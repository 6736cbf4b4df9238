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
serves any corpus), bounded at ENCODING_CACHE_BYTES: ranking and then
reading for one question encode it once, and a later question re-runs only
the attention, fusion and heads on a cached passage.  An encoding made
inside one chunk may differ by an ulp from one made inside another, so a
score can depend on which chunk first encoded its passage.

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
from .model import (Hyperparams, ModelWeights, encode_batch, encode_sequences,
                    extract_answer, read, select_span)
from .retriever import Corpus, PassageRecord, RankedList, TfIdfIndex, top_k
from .text import TokenSeq, VectorTable
from .training import QuestionExample

VALID_STAGE_KINDS = ("tfidf", "neural")
SCORE_BATCH = 32            # passages per forward pass when scoring or reading
ENCODING_CACHE_BYTES = 32 << 20   # bound on a scorer's cached question and passage encodings
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
        self._encodings: OrderedDict[str, np.ndarray] = OrderedDict()  # text -> (2d, len)
        self._encoded_bytes = 0

    def _states(self, texts: list[str], emb: np.ndarray, mask: np.ndarray,
                lengths: list[int]) -> np.ndarray:
        """(B, 2d, T) contextual states of `texts`, one per row of `emb` (B, dim, T).

        A text not in the cache is encoded once, from its first row.  The cache
        is cut back to its bound only after every row is copied out, so an
        eviction cannot drop an encoding this call still needs."""
        cache = self._encodings
        missing: dict[str, int] = {}        # uncached text -> its first row
        for i, text in enumerate(texts):
            if text in cache:
                cache.move_to_end(text)
            else:
                missing.setdefault(text, i)
        if missing:
            rows = list(missing.values())
            [states] = encode_sequences(self.weights, self.hp, [(emb[rows], mask[rows])])
            for (text, i), row in zip(missing.items(), states.value):
                cache[text] = row[:, :lengths[i]].copy()
                self._encoded_bytes += cache[text].nbytes
        out = np.zeros((len(texts), 2 * self.weights.hidden, emb.shape[2]),
                       dtype=cache[texts[0]].dtype)
        for i, text in enumerate(texts):
            out[i, :, :lengths[i]] = cache[text]
        while self._encoded_bytes > ENCODING_CACHE_BYTES:
            self._encoded_bytes -= cache.popitem(last=False)[1].nbytes
        return out

    def _read_chunks(self, question: TokenSeq, records: list[PassageRecord],
                     heads: tuple[str, ...]):
        """Yield (input positions, batch, state) per chunk of length-sorted records.

        Consecutive chunks are read in waves, one `read` call per wave, each
        as large as keeps its (rows, 8d, T) attention output within WAVE_BYTES."""
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
        for wave in waves:
            chunks = []
            # Overflow shows as a non-finite output, which the check below reports.
            with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
                for rows in wave:
                    chunk = [records[i] for i in rows]
                    batch = encode_batch([question] * len(chunk),
                                         [rec.tokens for rec in chunk], self.table)
                    questions = self._states([question.text] * batch.size, batch.question_emb,
                                             batch.question_mask, [len(question)] * batch.size)
                    passages = self._states([rec.text for rec in chunk], batch.passage_emb,
                                            batch.passage_mask, batch.passage_lengths)
                    chunks.append((ad.constant(passages), ad.constant(questions), batch))
                states = read(self.weights, self.hp, chunks, heads=heads)
            for rows, (_, _, batch), state in zip(wave, chunks, states):
                outputs = (state.relevance, state.start_probs, state.end_probs)
                if not all(np.isfinite(node.value).all() for node in outputs
                           if node is not None):
                    raise EvaluationError("the model gave a non-finite relevance or span "
                                          "probability; its weights overflow")
                yield rows, batch, state

    def relevance_scores(self, question: TokenSeq,
                         records: list[PassageRecord]) -> list[float]:
        """Relevance of each record to the question, in input order."""
        scores = [0.0] * len(records)
        for rows, _, state in self._read_chunks(question, records, ("relevance",)):
            for i, value in zip(rows, state.relevance.value):
                scores[i] = float(value)
        return scores

    def read_candidates(self, question: TokenSeq,
                        records: list[PassageRecord]) -> list[AnswerCandidate]:
        """Span + relevance for each passage, in input order; spans stay in the passage."""
        out: list[AnswerCandidate | None] = [None] * len(records)
        for rows, batch, state in self._read_chunks(question, records,
                                                    ("span", "relevance")):
            starts = state.start_probs.value
            ends = state.end_probs.value
            rels = state.relevance.value
            for j, i in enumerate(rows):
                rec = records[i]
                n = batch.passage_lengths[j]
                t1, t2, score = select_span(starts[j, :n], ends[j, :n])
                out[i] = AnswerCandidate(
                    passage_id=rec.passage_id,
                    answer=extract_answer(rec.tokens, (t1, t2)),
                    span=(t1, t2), span_score=score, relevance=float(rels[j]))
        return out


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
            scores = scorer.relevance_scores(question, records)
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
