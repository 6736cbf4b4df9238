"""Telescoped retrieval, answer voting, and evaluation metrics.

A ranker chain like "tfidf:200,neural:5" narrows the corpus in stages: each
stage re-ranks the survivors of the previous one and keeps its cut.  The
final survivors are read by the span head, and their answers vote with
weight exp(relevance / temperature); votes for the same raw answer string
pool together.  Vote weights are kept in log space so tiny temperatures
cannot overflow.

`NeuralScorer` scores passages in chunks of SCORE_BATCH, sorted by length
so little of each chunk is padding.  The contextual encoding of every
question and passage it sees stays in one LRU keyed by text (so one scorer
serves any corpus), bounded at ENCODING_CACHE_BYTES, together with the
text's token numbers in the scorer's own vocabulary; both leave the LRU
together.  A chunk that finds the vocabulary past VOCABULARY_WORDS words
starts a new one and empties the LRU, whose entries hold the old numbers.
A chunk of cached texts is batched from those numbers with no per-token
Python, and only the texts the chunk must encode are embedded.
Ranking and then reading for one question encode it once, and a later
question re-runs only the attention, fusion and heads on a cached passage.
An encoding made inside one chunk may differ by an ulp from one made inside
another, so a score can depend on which chunk first encoded its passage.

Reading has one path.  When a chain ends in a neural stage, `telescope`
asks the scorer to keep the final_k finalists of that stage: copies of
their attention output and fused states over their real tokens, and their
relevance.  `read_candidates` runs only the span heads on them, so an ask
runs attention, fusion and the rel head once per survivor, and each
finalist has one relevance for ranking and voting.  Records not kept for
this question (`eval-rc`, a chain ending in tfidf, another question or
passage) are first ranked, all of them kept, then read the same way.

Consecutive chunks are read in waves: one `read` call, so one time loop per
bi-LSTM layer, for as many chunks as keep their (rows, 8d, T) attention
output within WAVE_BYTES.  The `tfidf:200` survivors at the benchmark's
width are one wave, and a neural stage over a whole corpus never holds more
than a wave.  Each chunk keeps the bits it gets when read alone, except a
one-row chunk, which may move by an ulp (see `autodiff.bilstm_scan`).
"""
from __future__ import annotations

import math
import re
import string
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import (ForwardState, Hyperparams, ModelWeights, Vocabulary, encode_batch,
                    encode_sequences, extract_answer, read, select_span, span_head)
from .retriever import Corpus, PassageRecord, RankedList, TfIdfIndex, top_k
from .text import TokenSeq, VectorTable
from .training import QuestionExample

VALID_STAGE_KINDS = ("tfidf", "neural")
SCORE_BATCH = 32            # passages per forward pass when scoring or reading
ENCODING_CACHE_BYTES = 32 << 20   # bound on a scorer's cached question and passage encodings
VOCABULARY_WORDS = 1 << 17        # bound on a scorer's numbered words (~25 MB), checked per chunk
WAVE_BYTES = 32 << 20             # bound on the attention output of the chunks read together


class ChainSpecError(ValueError):
    """Raised for malformed or non-telescoping ranker chains."""


class EvaluationError(ValueError):
    """Raised when an evaluation is given nothing to evaluate, or when the model
    gives a non-finite relevance or span probability."""


@dataclass(frozen=True)
class ChainStage:
    kind: str
    cut: int


@dataclass(frozen=True)
class RankerChain:
    """Ordered stages with strictly decreasing cuts, plus the final k."""

    stages: tuple[ChainStage, ...]
    final_k: int

    def __post_init__(self):
        if not self.stages:
            raise ChainSpecError("a chain needs at least one stage")
        for stage in self.stages:
            if stage.kind not in VALID_STAGE_KINDS:
                raise ChainSpecError(f"unknown stage kind {stage.kind!r}")
            if stage.cut < 1:
                raise ChainSpecError(f"stage cut must be >= 1, got {stage.cut}")
        cuts = [s.cut for s in self.stages]
        for prev, nxt in zip(cuts, cuts[1:]):
            if nxt >= prev:
                raise ChainSpecError(
                    f"stage cuts must strictly decrease, got {cuts}")
        if not 1 <= self.final_k <= cuts[-1]:
            raise ChainSpecError(
                f"final k ({self.final_k}) must be in [1, last cut {cuts[-1]}]")


def parse_chain(spec: str, final_k: int | None = None) -> RankerChain:
    """Parse "kind:cut,kind:cut,..." into a validated RankerChain."""
    stages = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ChainSpecError(f"empty stage in chain spec {spec!r}")
        kind, sep, cut_text = part.partition(":")
        if not sep:
            raise ChainSpecError(f"stage {part!r} is not of the form kind:cut")
        try:
            cut = int(cut_text)
        except ValueError:
            raise ChainSpecError(f"stage {part!r} has a non-integer cut") from None
        stages.append(ChainStage(kind.strip(), cut))
    k = final_k if final_k is not None else stages[-1].cut
    return RankerChain(tuple(stages), k)


# ---------------------------------------------------------------------------
# neural scoring


@dataclass
class AnswerCandidate:
    passage_id: int
    answer: str
    span: tuple[int, int]
    span_score: float
    relevance: float


@dataclass
class _Finalist:
    """What a finalist keeps from the rank pass for `read_candidates`:
    copies of its attention output (8d, n) and fused states (2d, n) over its
    n real tokens, and its relevance."""

    attended: np.ndarray
    fused: np.ndarray
    relevance: float

    @classmethod
    def from_state(cls, rec: PassageRecord, state: ForwardState, row: int,
                   relevance: float) -> _Finalist:
        """Row `row` of a rank-pass state, copied so that no wave array stays alive."""
        n = len(rec.tokens)
        return cls(state.attended.value[row, :, :n].copy(),
                   state.fused.value[row, :, :n].copy(), relevance)


class _ScorerVocabulary(Vocabulary):
    """The scorer's vocabulary: a cached text's numbers come from the LRU."""

    def __init__(self, table: VectorTable, cache: OrderedDict):
        super().__init__(table)
        self.cache = cache

    def ids(self, seq: TokenSeq) -> np.ndarray:
        entry = self.cache.get(seq.text)
        return super().ids(seq) if entry is None else entry[0]


class NeuralScorer:
    """Runs the trained network in eval mode for ranking and reading.

    Use the EMA weights here; raw weights are for resuming training.  The
    encoding cache, questions and passages alike, belongs to these weights
    and this vector table; build a new scorer to change either.
    """

    def __init__(self, weights: ModelWeights, hp: Hyperparams, table: VectorTable):
        self.weights = weights
        self.hp = hp
        self.table = table
        # text -> (token numbers (len,), contextual states (2d, len))
        self._encodings: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._encoded_bytes = 0
        self.vocabulary = _ScorerVocabulary(table, self._encodings)
        self._question = ""                 # the text the finalists were ranked for
        self._finalists: dict[tuple[int, str], _Finalist] = {}   # by passage id and text

    def _states(self, seqs: list[TokenSeq], ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """(B, 2d, T) contextual states of `seqs`, whose padded token numbers
        and mask are the rows of `ids` and `mask` (B, T).

        The cache is keyed by each sequence's text.  A text not in it is
        embedded and encoded once, from its first row, and cached with its
        numbers.  The cache is cut back to its bound only after every row is
        copied out, so an eviction cannot drop an encoding this call still
        needs."""
        cache = self._encodings
        missing: dict[str, int] = {}        # uncached text -> its first row
        for i, seq in enumerate(seqs):
            if seq.text in cache:
                cache.move_to_end(seq.text)
            else:
                missing.setdefault(seq.text, i)
        if missing:
            rows = list(missing.values())
            emb = self.vocabulary.embed(ids[rows])
            [states] = encode_sequences(self.weights, [(emb, mask[rows])])
            for (text, i), row in zip(missing.items(), states.value):
                n = len(seqs[i])
                cache[text] = (ids[i, :n].copy(), row[:, :n].copy())
                self._encoded_bytes += sum(arr.nbytes for arr in cache[text])
        out = _stack([cache[seq.text][1] for seq in seqs], ids.shape[1])
        while self._encoded_bytes > ENCODING_CACHE_BYTES:
            self._encoded_bytes -= sum(arr.nbytes for arr in cache.popitem(last=False)[1])
        return out

    def _waves(self, records: list[PassageRecord]) -> list[list[list[int]]]:
        """Input positions of the length-sorted records, in chunks of up to
        SCORE_BATCH, grouped into waves whose (rows, 8d, T) attention output
        stays within WAVE_BYTES."""
        order = sorted(range(len(records)), key=lambda i: len(records[i].tokens))
        position_bytes = 8 * self.weights.hidden * self.table.matrix.dtype.itemsize
        waves: list[list[list[int]]] = []
        for start in range(0, len(order), SCORE_BATCH):
            rows = order[start:start + SCORE_BATCH]
            size = len(rows) * len(records[rows[-1]].tokens) * position_bytes
            if not waves or wave_bytes + size > WAVE_BYTES:
                waves.append([])
                wave_bytes = 0
            waves[-1].append(rows)
            wave_bytes += size
        return waves

    def _read_chunks(self, question: TokenSeq, records: list[PassageRecord]):
        """Yield (input positions, ranked state) per chunk of length-sorted
        records, read one wave at a time."""
        for wave in self._waves(records):
            chunks = []
            # Overflow shows as a non-finite output, which _checked reports.
            with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
                for rows in wave:
                    if len(self.vocabulary) > VOCABULARY_WORDS:   # cache entries hold its numbers
                        self._encodings.clear()
                        self._encoded_bytes = 0
                        self.vocabulary = _ScorerVocabulary(self.table, self._encodings)
                    seqs = [records[i].tokens for i in rows]
                    batch = encode_batch([question] * len(rows), seqs, self.table,
                                         self.vocabulary)
                    # Every row asks the one question: its states once, (1, 2d, J).
                    question_states = self._states([question], batch.question_ids[:1],
                                                   batch.question_mask[:1])
                    passages = self._states(seqs, batch.passage_ids, batch.passage_mask)
                    chunks.append((ad.constant(passages), ad.constant(question_states), batch))
                states = read(self.weights, chunks, heads=("relevance",))
            for rows, state in zip(wave, states):
                _checked(state.relevance)
                yield rows, state

    def _read_finalists(self, records: list[PassageRecord]):
        """Yield (input positions, start probs, end probs, relevances) per
        chunk of finalists, read from what they kept from the rank pass.  A
        chunk is padded to its longest passage, as the rank pass padded it."""
        for wave in self._waves(records):
            kept = [[self._finalists[records[i].passage_id, records[i].text] for i in rows]
                    for rows in wave]
            chunks = []
            for rows, fins in zip(wave, kept):
                lengths = np.array([len(records[i].tokens) for i in rows])
                mask = np.arange(lengths[-1]) < lengths[:, None]
                chunks.append((ad.constant(_stack([fin.attended for fin in fins], lengths[-1])),
                               ad.constant(_stack([fin.fused for fin in fins], lengths[-1])),
                               mask.astype(self.table.matrix.dtype)))
            with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
                spans = span_head(self.weights, chunks)
            for rows, fins, (_, start_probs, _, end_probs) in zip(wave, kept, spans):
                _checked(start_probs, end_probs)
                yield rows, start_probs.value, end_probs.value, [fin.relevance for fin in fins]

    def relevance_scores(self, question: TokenSeq, records: list[PassageRecord],
                         finalists: int = 0) -> list[float]:
        """Relevance of each record to the question, in input order.

        The top `finalists` records by (-relevance, passage id), the order
        `telescope` ranks in, are kept by passage id and text: copies of
        their attention output, fused states and relevance, so that
        `read_candidates` can read them without running attention, fusion
        and the rel head again.  Every call drops what an earlier one kept."""
        scores = [0.0] * len(records)
        kept: dict[tuple[int, str], _Finalist] = {}
        self._finalists = {}
        for rows, state in self._read_chunks(question, records):
            for i, value in zip(rows, state.relevance.value):
                scores[i] = float(value)
            # A running top `finalists`; j = -1 marks one kept from an earlier chunk.
            entrants = [(-fin.relevance, key, -1) for key, fin in kept.items()]
            entrants += [(-scores[i], (records[i].passage_id, records[i].text), j)
                         for j, i in enumerate(rows)]
            kept = {key: kept[key] if j < 0 else
                    _Finalist.from_state(records[rows[j]], state, j, scores[rows[j]])
                    for _, key, j in sorted(entrants)[:finalists]}
        self._question, self._finalists = question.text, kept
        return scores

    def read_candidates(self, question: TokenSeq,
                        records: list[PassageRecord]) -> list[AnswerCandidate]:
        """Span + relevance for each passage, in input order; spans stay in the passage.

        Records are read from what the rank pass kept for this question's
        text, and each candidate's relevance is its ranked score.  Unless the
        last `relevance_scores` call kept every record, they are ranked
        first, all of them kept."""
        held = self._finalists if question.text == self._question else {}
        if any((rec.passage_id, rec.text) not in held for rec in records):
            self.relevance_scores(question, records, len(records))
        out: list[AnswerCandidate | None] = [None] * len(records)
        for rows, starts, ends, rels in self._read_finalists(records):
            for j, i in enumerate(rows):
                rec = records[i]
                n = len(rec.tokens)
                t1, t2, score = select_span(starts[j, :n], ends[j, :n])
                out[i] = AnswerCandidate(
                    passage_id=rec.passage_id,
                    answer=extract_answer(rec.tokens, (t1, t2)),
                    span=(t1, t2), span_score=score, relevance=float(rels[j]))
        return out


def _stack(arrays: list[np.ndarray], length: int) -> np.ndarray:
    """(B, features, length) stack of (features, n) arrays, zero after each n."""
    out = np.zeros((len(arrays), arrays[0].shape[0], length), dtype=arrays[0].dtype)
    for j, arr in enumerate(arrays):
        out[j, :, :arr.shape[1]] = arr
    return out


def _checked(*outputs: ad.Node) -> None:
    """Raise EvaluationError if any given output holds a non-finite value."""
    if not all(np.isfinite(node.value).all() for node in outputs):
        raise EvaluationError("the model gave a non-finite relevance or span "
                              "probability; its weights overflow")


# ---------------------------------------------------------------------------
# telescoping


def telescope(question: TokenSeq, chain: RankerChain, index: TfIdfIndex,
              corpus: Corpus, scorer: NeuralScorer | None) -> RankedList:
    """Run the chain; the result is a reordered subset of stage-1 survivors."""
    survivors: RankedList | None = None
    for stage in chain.stages:
        if stage.kind == "neural":
            if scorer is None:
                raise ValueError("chain has a neural stage but no scorer was given")
            if survivors is None:
                records = list(corpus)
            else:
                records = [corpus[pid] for pid in survivors.ids()]
            if not records:
                survivors = RankedList([], warning="nothing to re-rank")
                continue
            finalists = chain.final_k if stage is chain.stages[-1] else 0
            scores = scorer.relevance_scores(question, records, finalists)
            pairs = sorted(zip((r.passage_id for r in records), scores),
                           key=lambda item: (-item[1], item[0]))
            survivors = RankedList(pairs[:stage.cut],
                                   survivors.warning if survivors else None)
        else:
            survivors = top_k(index, question.tokens, stage.cut,
                              None if survivors is None else survivors.ids())
    return survivors if survivors is not None else RankedList([])


# ---------------------------------------------------------------------------
# voting


@dataclass
class VoteEntry:
    answer: str
    log_weight: float
    best_relevance: float
    n_votes: int

    def weight(self) -> float:
        """exp of the pooled log weight; inf when not representable."""
        try:
            return math.exp(self.log_weight)
        except OverflowError:
            return math.inf


@dataclass
class VoteResult:
    answer: str | None
    table: list[VoteEntry] = field(default_factory=list)
    candidates: list[AnswerCandidate] = field(default_factory=list)
    warning: str | None = None


def vote_answers(candidates: list[AnswerCandidate], temperature: float) -> VoteResult:
    """Pool candidate answers by raw string; weight each vote exp(rel/temp).

    The span score plays no part in the vote.  Ties on pooled weight go to
    the answer holding the highest single relevance, then to the
    lexicographically smallest answer string.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not candidates:
        return VoteResult(None, warning="no candidates to vote on")
    pooled: dict[str, list[float]] = {}
    best_rel: dict[str, float] = {}
    for cand in candidates:
        pooled.setdefault(cand.answer, []).append(cand.relevance / temperature)
        best_rel[cand.answer] = max(best_rel.get(cand.answer, -math.inf),
                                    cand.relevance)
    table = [VoteEntry(answer=ans,
                       log_weight=float(np.logaddexp.reduce(logs)),
                       best_relevance=best_rel[ans],
                       n_votes=len(logs))
             for ans, logs in pooled.items()]
    table.sort(key=lambda e: (-e.log_weight, -e.best_relevance, e.answer))
    return VoteResult(table[0].answer, table, candidates)


def answer_question(question: TokenSeq, chain: RankerChain, index: TfIdfIndex,
                    corpus: Corpus, scorer: NeuralScorer,
                    temperature: float | None = None) -> tuple[VoteResult, RankedList]:
    """Retrieve with the chain, read its final_k survivors, vote on answers."""
    ranked = telescope(question, chain, index, corpus, scorer)
    keep = ranked.top(chain.final_k)
    if not keep.entries:
        return (VoteResult(None, warning=keep.warning or "retrieval came back empty"),
                keep)
    records = [corpus[pid] for pid in keep.ids()]
    candidates = scorer.read_candidates(question, records)
    temp = temperature if temperature is not None else scorer.hp.vote_temperature
    return vote_answers(candidates, temp), keep


# ---------------------------------------------------------------------------
# answer metrics (standard SQuAD-style normalization)


_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str | None, truths) -> float:
    """1.0 if the normalized prediction equals any normalized reference."""
    pred = normalize_answer(prediction or "")
    return float(any(pred == normalize_answer(t) for t in truths))


def _f1_single(prediction: str, truth: str) -> float:
    pred_toks = normalize_answer(prediction).split()
    truth_toks = normalize_answer(truth).split()
    if not pred_toks or not truth_toks:
        return float(pred_toks == truth_toks)
    overlap = Counter(pred_toks) & Counter(truth_toks)
    n_same = sum(overlap.values())
    if n_same == 0:
        return 0.0
    precision = n_same / len(pred_toks)
    recall = n_same / len(truth_toks)
    return 2 * precision * recall / (precision + recall)


def f1_score(prediction: str | None, truths) -> float:
    """Best token-overlap F1 over the reference answers."""
    truths = list(truths)
    if not truths:
        raise ValueError("f1_score needs at least one reference answer")
    return max(_f1_single(prediction or "", t) for t in truths)


# ---------------------------------------------------------------------------
# retrieval metrics


def success_at_k(rankings: list[list[int]], relevant: list[set[int]], k: int) -> float:
    """Fraction of queries with a relevant passage in the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(rankings) != len(relevant):
        raise ValueError("one relevant set per ranking required")
    if not rankings:
        raise ValueError("no queries to aggregate")
    hits = sum(1 for ranked, rel in zip(rankings, relevant)
               if any(pid in rel for pid in ranked[:k]))
    return hits / len(rankings)


def mrr_at_k(rankings: list[list[int]], relevant: list[set[int]], k: int) -> float:
    """Mean reciprocal rank of the first relevant passage within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(rankings) != len(relevant):
        raise ValueError("one relevant set per ranking required")
    if not rankings:
        raise ValueError("no queries to aggregate")
    total = 0.0
    for ranked, rel in zip(rankings, relevant):
        for pos, pid in enumerate(ranked[:k], start=1):
            if pid in rel:
                total += 1.0 / pos
                break
    return total / len(rankings)


# ---------------------------------------------------------------------------
# evaluation drivers


@dataclass
class QueryCase:
    qid: str
    question: TokenSeq
    relevant: set[int]
    answers: tuple[str, ...]


def group_questions(examples: list[QuestionExample]) -> list[QueryCase]:
    """Collapse positives that share a qid into one query case."""
    cases: dict[str, QueryCase] = {}
    for ex in examples:
        if ex.relevance != 1:
            continue
        case = cases.get(ex.qid)
        if case is None:
            cases[ex.qid] = QueryCase(ex.qid, ex.question, {ex.passage_id},
                                      ex.answer_texts)
        else:
            case.relevant.add(ex.passage_id)
    return list(cases.values())


def _aggregate_ir(rankings, relevant) -> dict:
    return {
        "success_at_1": success_at_k(rankings, relevant, 1),
        "success_at_5": success_at_k(rankings, relevant, 5),
        "mrr_at_5": mrr_at_k(rankings, relevant, 5),
    }


def evaluate_ir(examples: list[QuestionExample], chain: RankerChain,
                index: TfIdfIndex, corpus: Corpus,
                scorer: NeuralScorer | None) -> dict:
    """Retrieval-only report: per-query rankings plus S@1/S@5/MRR@5."""
    cases = group_questions(examples)
    if not cases:
        raise EvaluationError("no questions to evaluate")
    queries = []
    rankings, relevant = [], []
    for case in cases:
        ranked = telescope(case.question, chain, index, corpus, scorer)
        ids = ranked.ids()
        rankings.append(ids)
        relevant.append(case.relevant)
        queries.append({"qid": case.qid, "question": case.question.text,
                        "retrieved": ids, "answer": None, "em": None, "f1": None})
    aggregate = dict(_aggregate_ir(rankings, relevant), em=None, f1=None,
                     n_queries=len(cases))
    return {"queries": queries, "aggregate": aggregate}


def evaluate_rc(examples: list[QuestionExample], corpus: Corpus,
                scorer: NeuralScorer) -> dict:
    """Reading-only report: answers extracted from the gold passage."""
    queries = []
    ems, f1s = [], []
    for ex in examples:
        if ex.relevance != 1:
            continue
        [cand] = scorer.read_candidates(ex.question, [corpus[ex.passage_id]])
        em = exact_match(cand.answer, ex.answer_texts)
        f1 = f1_score(cand.answer, ex.answer_texts)
        ems.append(em)
        f1s.append(f1)
        queries.append({"qid": ex.qid, "question": ex.question.text,
                        "retrieved": [ex.passage_id], "answer": cand.answer,
                        "em": em, "f1": f1})
    if not queries:
        raise EvaluationError("no positive examples to evaluate")
    aggregate = {"success_at_1": None, "success_at_5": None, "mrr_at_5": None,
                 "em": float(np.mean(ems)), "f1": float(np.mean(f1s)),
                 "n_queries": len(queries)}
    return {"queries": queries, "aggregate": aggregate}


def evaluate_mrs(examples: list[QuestionExample], chain: RankerChain,
                 index: TfIdfIndex, corpus: Corpus, scorer: NeuralScorer) -> dict:
    """End-to-end report: retrieve, read, vote; IR and answer metrics."""
    cases = group_questions(examples)
    if not cases:
        raise EvaluationError("no questions to evaluate")
    queries = []
    rankings, relevant, ems, f1s = [], [], [], []
    for case in cases:
        vote, ranked = answer_question(case.question, chain, index, corpus, scorer)
        ids = ranked.ids()
        em = exact_match(vote.answer, case.answers)
        f1 = f1_score(vote.answer, case.answers)
        rankings.append(ids)
        relevant.append(case.relevant)
        ems.append(em)
        f1s.append(f1)
        queries.append({"qid": case.qid, "question": case.question.text,
                        "retrieved": ids, "answer": vote.answer,
                        "em": em, "f1": f1})
    aggregate = dict(_aggregate_ir(rankings, relevant),
                     em=float(np.mean(ems)), f1=float(np.mean(f1s)),
                     n_queries=len(cases))
    return {"queries": queries, "aggregate": aggregate}
