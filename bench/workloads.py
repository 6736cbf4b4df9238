"""Seeded, download-free inputs and the three benchmark workloads.

Every input is generated from the seed and written to files; the program
only reads those files, through the same public functions ``cli.py`` calls.
Each workload is a closed loop with one client: the next call starts when
the previous one returns.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from passageqa import (autodiff, checkpoint, evaluation, model, retriever, squad,
                       text, training)

from hostspeed import HostSpeed
from tracer import Tracer

ZIPF_OFFSET = 2.7          # Zipf-Mandelbrot rank offset
COMMA_RATE = 0.07
WH_WORDS = ("what", "which", "who", "where", "when", "how")
QUESTIONS_PER_PASSAGE = 5  # as in SQuAD
DEFAULT_CHAIN = "tfidf:200,neural:5"
RECALL_CUT = 200
PHASE_SAMPLES = 5          # host-speed samples before and after each set-up phase
# joint_loss of a training run: mean loss of its first steps.  Later steps of
# the paper-width model drop steeply at a seed-dependent step.
LOSS_STEPS = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes and model widths of one workload."""

    n_passages: int
    passage_tokens: tuple[int, int]
    n_questions: int
    embed_dim: int
    hidden: int
    attn_dim: int
    vocab_types: int = 20_000
    vector_types: int = 8_000   # pretrained vectors cover the most frequent types
    batch_positives: int = 0
    batch_negatives: int = 0
    mode: str = ""              # training mode; empty for the ask workload
    warmup_ops: int = 0
    min_ops: int = 10           # run at least this many; digest and counts use them
    setup_reps: int = 3


WORKLOADS: dict[str, Scale] = {
    "ask_default": Scale(n_passages=3000, passage_tokens=(20, 120), n_questions=500,
                         embed_dim=32, hidden=16, attn_dim=16, warmup_ops=3, min_ops=10),
    "train_mtl": Scale(n_passages=3000, passage_tokens=(20, 120), n_questions=100,
                       embed_dim=32, hidden=16, attn_dim=16, batch_positives=10,
                       batch_negatives=10, mode="mtl", min_ops=5),
    "train_rc": Scale(n_passages=2000, passage_tokens=(60, 160), n_questions=100,
                      embed_dim=300, hidden=100, attn_dim=100, batch_positives=8,
                      mode="stl-rc", min_ops=5),
}

# A few passages, two questions, one step: for the smoke test.
TINY: dict[str, Scale] = {
    name: replace(scale, n_passages=30, passage_tokens=(8, 30),
                  n_questions=2 if not scale.mode else 2 * QUESTIONS_PER_PASSAGE,
                  embed_dim=8, hidden=4, attn_dim=4, vocab_types=400, vector_types=300,
                  batch_positives=min(scale.batch_positives, 2),
                  batch_negatives=min(scale.batch_negatives, 2),
                  warmup_ops=0, min_ops=2 if not scale.mode else 1, setup_reps=1)
    for name, scale in WORKLOADS.items()
}


# ---------------------------------------------------------------------------
# input generation


@dataclass
class Inputs:
    passages: str
    examples: str
    vectors: str
    checkpoint: str
    index: str


class _Zipf:
    def __init__(self, rng: np.random.Generator, n_types: int):
        weights = 1.0 / (np.arange(n_types) + ZIPF_OFFSET)
        self.cdf = np.cumsum(weights) / weights.sum()
        self.rng = rng
        self.n_types = n_types

    def __call__(self, size: int) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(size), side="right")
        return np.minimum(ranks, self.n_types - 1)


def _vocabulary(rng: np.random.Generator, n_types: int) -> list[str]:
    """Distinct lowercase words of 2-9 letters, in Zipf rank order."""
    words: list[str] = []
    seen = set(WH_WORDS)
    while len(words) < n_types:
        lengths = rng.integers(2, 10, size=n_types)
        letters = (rng.integers(0, 26, size=int(lengths.sum())) + 97).astype(np.uint8)
        blob = letters.tobytes().decode("ascii")
        pos = 0
        for n in lengths.tolist():
            word = blob[pos:pos + n]
            pos += n
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n_types:
                    break
    return words


@dataclass
class _Passage:
    text: str
    tokens: list[str]
    offsets: list[tuple[int, int]]
    is_word: list[bool]


def _passage(rng: np.random.Generator, zipf: _Zipf, vocab: list[str],
             n_tokens: int) -> _Passage:
    """Zipf words with commas and a final period attached, as real text."""
    commas = rng.random(n_tokens) < COMMA_RATE
    commas[0] = commas[-1] = False
    commas[1:] &= ~commas[:-1]
    words = zipf(n_tokens).tolist()
    tokens, offsets, is_word, parts = [], [], [], []
    pos = 0
    for i in range(n_tokens):
        if i == n_tokens - 1:
            tok, word = ".", False
        elif commas[i]:
            tok, word = ",", False
        else:
            tok, word = vocab[words[i]], True
        if word and i > 0:
            parts.append(" ")
            pos += 1
        tokens.append(tok)
        offsets.append((pos, pos + len(tok)))
        is_word.append(word)
        parts.append(tok)
        pos += len(tok)
    return _Passage("".join(parts), tokens, offsets, is_word)


def _question(rng: np.random.Generator, zipf: _Zipf, vocab: list[str],
              common: list[str], passage: _Passage):
    """Answer span of 1-3 words; nearby words with one adjacent bigram; 1-2
    words from off the passage, the first of them a common one.

    Returns (question text, span, answer).
    """
    n = len(passage.tokens)
    in_passage = set(passage.tokens)
    words = passage.is_word
    for _ in range(100):
        length = int(rng.integers(1, 4))
        starts = [s for s in range(n - length + 1) if all(words[s:s + length])]
        if not starts:
            continue
        s = starts[int(rng.integers(len(starts)))]
        e = s + length - 1
        window = [i for i in range(max(0, s - 6), min(n, e + 7))
                  if words[i] and not s <= i <= e]
        bigrams = [i for i in window if i + 1 in window]
        if not bigrams:
            continue
        b = bigrams[int(rng.integers(len(bigrams)))]
        singles = [i for i in window if i not in (b, b + 1)]
        picked = rng.permutation(len(singles))[:2].tolist()
        parts = [passage.tokens[b] + " " + passage.tokens[b + 1]]
        parts += [passage.tokens[singles[i]] for i in picked]
        n_off = int(rng.integers(1, 3))
        while n_off:
            if n_off == 2 or not common:
                word = vocab[int(zipf(1)[0])]
            else:
                word = common[int(rng.integers(len(common)))]
            if word not in in_passage:
                parts.append(word)
                n_off -= 1
        order = rng.permutation(len(parts)).tolist()
        wh = WH_WORDS[int(rng.integers(len(WH_WORDS)))]
        question = wh + " " + " ".join(parts[i] for i in order) + "?"
        answer = passage.text[passage.offsets[s][0]:passage.offsets[e][1]]
        return question, (s, e), answer
    raise RuntimeError("passage too short to ask about")


def _choose_gold(rng: np.random.Generator, passages: list[_Passage], n_gold: int,
                 n_even: int) -> list[int]:
    """Distinct gold passages; the first n_even have lengths spread evenly
    over the corpus's range, so that a training batch is alike across seeds."""
    lengths = np.array([len(p.tokens) for p in passages])
    lo, hi = int(lengths.min()), int(lengths.max())
    chosen: list[int] = []
    for k in range(n_even):
        target = lo + (hi - lo) * (k + 0.5) / n_even
        nearest = np.argsort(np.abs(lengths - target), kind="stable")[:n_even + 10].tolist()
        free = [i for i in nearest if i not in chosen]
        chosen.append(free[int(rng.integers(len(free)))])
    taken = set(chosen)
    rest = [i for i in rng.permutation(len(passages)).tolist() if i not in taken]
    return chosen + rest[:n_gold - n_even]


def generate(seed: int, scale: Scale, workdir: Path) -> Inputs:
    """Write the corpus, questions, word vectors and (for asking) a model."""
    rng = np.random.default_rng(seed)
    vocab = _vocabulary(rng, scale.vocab_types)
    zipf = _Zipf(rng, scale.vocab_types)
    lo, hi = scale.passage_tokens
    passages = [_passage(rng, zipf, vocab, int(rng.integers(lo, hi + 1)))
                for _ in range(scale.n_passages)]
    inputs = Inputs(*(str(workdir / name) for name in (
        "passages.jsonl", "examples.jsonl", "vectors.txt", "final.ckpt", "index.pqix")))
    with open(inputs.passages, "w", encoding="utf-8") as fh:
        for pid, p in enumerate(passages):
            row = {"article_id": pid // 5, "passage_id": pid, "text": p.text}
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    # Words in enough passages to fill the tfidf:200 cut, yet in fewer than
    # half of them (idf 0): a question holding one re-ranks a full cut, as
    # questions over a large corpus do.
    df = Counter(word for p in passages for word in set(p.tokens))
    low, high = min(RECALL_CUT, scale.n_passages // 5), scale.n_passages // 2
    common = [word for word in vocab if low <= df[word] < high]
    n_gold = math.ceil(scale.n_questions / QUESTIONS_PER_PASSAGE)
    gold = _choose_gold(rng, passages, n_gold, scale.batch_positives)
    with open(inputs.examples, "w", encoding="utf-8") as fh:
        for q in range(scale.n_questions):
            pid = gold[q // QUESTIONS_PER_PASSAGE]
            p = passages[pid]
            question, span, answer = _question(rng, zipf, vocab, common, p)
            row = {"qid": f"p{pid}-q{q % QUESTIONS_PER_PASSAGE}", "question": question,
                   "passage_id": pid, "relevance": 1, "span": list(span),
                   "answers": [answer]}
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    n_vec = min(scale.vector_types, scale.vocab_types)
    vectors = rng.normal(0.0, 0.4, size=(n_vec, scale.embed_dim)).astype(np.float32)
    with open(inputs.vectors, "w", encoding="utf-8") as fh:
        fh.write(f"{n_vec} {scale.embed_dim}\n")
        for word, row in zip(vocab, vectors.tolist()):
            fh.write(word + " " + " ".join(["%.5f" % x for x in row]) + "\n")

    if not scale.mode:
        # A random-init model; its EMA shadow differs so that loading the
        # averaged weights, as the CLI does, is what the ask path uses.
        hp = model.Hyperparams(hidden=scale.hidden, attn_dim=scale.attn_dim, seed=seed)
        weights = model.init_weights(rng, scale.embed_dim, scale.hidden, scale.attn_dim)
        ema = {name: (arr + rng.normal(0.0, 0.01, arr.shape)).astype(np.float32)
               for name, arr in model.named_arrays(weights).items()}
        checkpoint.save_checkpoint(inputs.checkpoint, hp, weights, ema)
    return inputs


# ---------------------------------------------------------------------------
# measurement helpers


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 20 samples
    that percentile would lie below the median, so the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)     # failed output checks
    metrics: dict = field(default_factory=dict)          # name -> (value, unit)
    report: dict = field(default_factory=dict)           # raw figures, same form
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


@dataclass
class Run:
    """What every phase of one benchmark run writes to."""

    scale: Scale
    seed: int
    seconds: float
    tracer: Tracer
    speed: HostSpeed = field(default_factory=HostSpeed)
    result: Result = field(default_factory=Result)

    def phase(self, kind: str, fn):
        """Run fn as one root span; returns (value, raw s, host-scaled s)."""
        gc.collect()
        self.speed.sample(PHASE_SAMPLES)
        self.tracer.begin(kind)
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        self.tracer.end()
        self.speed.sample(PHASE_SAMPLES)
        return value, end - start, self.speed.scaled(start, end)

    def report_ops(self, spans: list[tuple[float, float]], examples: int, prefix: str) -> None:
        """Latency and throughput of the timed operations, raw and host-scaled."""
        raw = [end - start for start, end in spans]
        scaled = [self.speed.scaled(start, end) for start, end in spans]
        value, pct, n = tail(scaled)
        self.result.metrics["op_p50_ms"] = (median(scaled) * 1e3, "ms")
        self.result.metrics["op_tail_ms"] = (value * 1e3, "ms")
        self.result.metrics["examples_per_s"] = (examples / sum(scaled), "1/s")
        raw_tail = tail(raw)[0]
        self.result.report[f"{prefix}_p50_ms"] = (median(raw) * 1e3, "ms")
        self.result.report[f"{prefix}_tail_ms"] = (raw_tail * 1e3, "ms")
        self.result.report[f"{prefix}_tail_percentile"] = (pct, "%")
        self.result.report[f"{prefix}_samples"] = (n, "count")
        self.result.info["op_ms"] = [t * 1e3 for t in raw]
        self.result.info["host_scale"] = [self.speed.scale(s, e) for s, e in spans]


def _build_index(run: Run, inputs: Inputs, path: str) -> tuple[float, float]:
    """The build-index command: load the store, build, save."""
    corpus = retriever.Corpus.load_jsonl(inputs.passages)

    def build():
        retriever.save_index(path, retriever.build_index(corpus))

    return run.phase("build", build)[1:]


def _rebuild_index(run: Run, inputs: Inputs, first: tuple[float, float]) -> None:
    """Build again at the end of the run, check the bytes, report the mean time.

    A host's slow spell can begin or end inside one build, which the
    reference samples around it then misjudge; two builds half a minute
    apart halve that error.  The second also shows the bytes reproduce.
    """
    again = inputs.index + ".again"
    second = _build_index(run, inputs, again)
    with open(inputs.index, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            run.result.checks.append("rebuilding the index gave different bytes")
    run.result.metrics["index_build_s"] = ((first[1] + second[1]) / 2, "s")
    run.result.report["index_build_s"] = ((first[0] + second[0]) / 2, "s")
    run.result.info["index_builds_s"] = [first, second]
    run.result.info["index_bytes"] = os.path.getsize(inputs.index)


@dataclass
class Loaded:
    corpus: retriever.Corpus
    examples: list
    table: text.VectorTable
    index: retriever.TfIdfIndex
    scorer: evaluation.NeuralScorer | None = None
    hp: model.Hyperparams | None = None


def _load_for_ask(inputs: Inputs) -> Loaded:
    """What eval-mrs loads, in its order: store, examples, model, index."""
    corpus = retriever.Corpus.load_jsonl(inputs.passages)
    examples = squad.load_examples(inputs.examples)
    hp, weights, ema = checkpoint.load_checkpoint(inputs.checkpoint)
    table = text.load_vectors(inputs.vectors)
    averaged = model.weights_from_named(weights.embed_dim, hp.hidden, hp.attn_dim, ema)
    scorer = evaluation.NeuralScorer(averaged, hp, table)
    index = retriever.load_index(inputs.index)
    return Loaded(corpus, examples, table, index, scorer, hp)


def _load_for_train(inputs: Inputs) -> Loaded:
    """What the train command loads, in its order: store, examples, vectors, index."""
    corpus = retriever.Corpus.load_jsonl(inputs.passages)
    examples = [ex for ex in squad.load_examples(inputs.examples) if ex.relevance == 1]
    table = text.load_vectors(inputs.vectors)
    index = retriever.load_index(inputs.index)
    return Loaded(corpus, examples, table, index)


def _set_up(run: Run, inputs: Inputs) -> Loaded:
    """Load everything `setup_reps` times; report the median time."""
    loader = _load_for_train if run.scale.mode else _load_for_ask
    raw, scaled, loaded = [], [], None
    for _ in range(run.scale.setup_reps):
        loaded = None
        loaded, raw_s, scaled_s = run.phase("setup", lambda: loader(inputs))
        raw.append(raw_s)
        scaled.append(scaled_s)
    run.result.metrics["setup_s"] = (median(scaled), "s")
    run.result.report["setup_s"] = (median(raw), "s")
    return loaded


def _recall(run: Run, loaded: Loaded) -> dict[str, int]:
    """Share of questions whose gold passage survives the tfidf:200 cut."""
    run.tracer.begin("recall")
    survivors, hits = {}, 0
    for ex in loaded.examples:
        ranked = retriever.top_k(loaded.index, ex.question.tokens, RECALL_CUT)
        survivors[ex.qid] = len(ranked)
        hits += ex.passage_id in ranked.ids()
    run.tracer.end()
    run.result.metrics["tfidf200_recall"] = (hits / len(loaded.examples), "fraction")
    return survivors


def _check_spans(loaded: Loaded, result: Result) -> None:
    for ex in loaded.examples:
        passage = text.tokenize(loaded.corpus[ex.passage_id].text)
        if passage.span_text(*ex.span) != ex.answer_texts[0]:
            result.checks.append(f"{ex.qid}: answer span does not match its text")


# ---------------------------------------------------------------------------
# workloads


def _check_answer(vote, ranked, corpus) -> str | None:
    """Reason an ask's output is wrong, or None."""
    if not ranked.entries:
        return "empty ranking"
    for pid, score in ranked.entries:
        if pid not in corpus:
            return f"ranked passage {pid} is not in the corpus"
        if not math.isfinite(score):
            return f"non-finite relevance {score} for passage {pid}"
    if vote.answer is None:
        return f"no answer ({vote.warning})"
    for cand in vote.candidates:
        if cand.passage_id not in corpus or cand.answer not in corpus[cand.passage_id].text:
            return f"answer {cand.answer!r} does not occur in passage {cand.passage_id}"
        if not math.isfinite(cand.relevance):
            return f"non-finite relevance for passage {cand.passage_id}"
    if vote.answer not in {cand.answer for cand in vote.candidates}:
        return f"voted answer {vote.answer!r} is not among the candidates"
    return None


def _joint_loss_of_model(loaded: Loaded, n: int) -> float:
    """Joint (mtl) loss of the served model on n gold pairs, one per passage."""
    examples = loaded.examples[::QUESTIONS_PER_PASSAGE][:n]
    batch = training.Batch(examples)
    encoded = model.encode_batch([ex.question for ex in examples],
                                 [loaded.corpus[ex.passage_id].tokens for ex in examples],
                                 loaded.table)
    targets = training.build_targets(batch, encoded.passage_emb.shape[2])
    with autodiff.no_grad():
        state = model.forward_batch(loaded.scorer.weights, loaded.hp, encoded)
        loss = training.graph_loss(state, targets, loaded.hp.ir_weight,
                                   training.TrainMode.MULTI_TASK)
    return float(loss.value)


def _ask(run: Run, loaded: Loaded, survivors: dict[str, int]) -> None:
    """Closed loop of answer_question calls, as `passageqa ask` makes one."""
    scale, tracer, result = run.scale, run.tracer, run.result
    chain = evaluation.parse_chain(DEFAULT_CHAIN)
    order = np.random.default_rng([run.seed, 1]).permutation(len(loaded.examples)).tolist()
    outputs, spans, pairs = [], [], 0

    def ask(i: int, kind: str):
        ex = loaded.examples[order[i % len(order)]]
        run.speed.sample()
        tracer.begin(kind)
        start = time.perf_counter()
        try:
            vote, ranked = evaluation.answer_question(
                ex.question, chain, loaded.index, loaded.corpus, loaded.scorer,
                temperature=loaded.hp.vote_temperature)
        except Exception:       # a failed ask is counted, and the loop goes on
            tracer.end()
            traceback.print_exc()
            return ex, None
        end = time.perf_counter()
        tracer.end()
        problem = _check_answer(vote, ranked, loaded.corpus)
        if problem is not None:
            print(f"failed ask {ex.qid}: {problem}", file=sys.stderr)
            return ex, None
        return ex, (start, end, vote, ranked)

    for i in range(scale.warmup_ops):
        ask(i, "warmup")
    begin = time.perf_counter()
    i = scale.warmup_ops
    while True:
        ex, out = ask(i, "ask")
        i += 1
        result.attempted += 1
        if out is None:
            result.failed += 1
        else:
            start, end, vote, ranked = out
            spans.append((start, end))
            pairs += survivors[ex.qid] + min(survivors[ex.qid], chain.final_k)
            if len(outputs) < scale.min_ops:
                outputs.append([ex.qid, [[pid, repr(s)] for pid, s in ranked.entries],
                                vote.answer])
        # A traced run traces its first half and times its second half bare,
        # so at least one untraced operation follows the traced ones.
        done = result.attempted >= scale.min_ops and not tracer.installed
        elapsed = time.perf_counter() - begin
        if done and elapsed >= run.seconds:
            break
        if tracer.installed and result.attempted >= scale.min_ops and elapsed >= run.seconds / 2:
            tracer.uninstall()
    run.speed.sample()
    if spans:
        run.report_ops(spans, pairs, "ask")
    result.metrics["joint_loss"] = (_joint_loss_of_model(loaded, 64), "nats")
    result.info["digest"] = digest(outputs)
    result.info["op"] = "ask"


def _train(run: Run, loaded: Loaded, workdir: Path) -> None:
    """One train() call whose epochs are one step each, stopped after `seconds`."""
    scale, tracer, result = run.scale, run.tracer, run.result
    mode = training.TrainMode(scale.mode)
    hp = model.Hyperparams(hidden=scale.hidden, attn_dim=scale.attn_dim,
                           batch_positives=scale.batch_positives,
                           batch_negatives=scale.batch_negatives,
                           epochs=10 ** 6, seed=run.seed)
    # One question per gold passage, as a batch drawn from a large dataset is.
    positives = loaded.examples[::QUESTIONS_PER_PASSAGE][:scale.batch_positives]
    negatives = (min(hp.batch_negatives, len(positives))
                 if mode == training.TrainMode.MULTI_TASK else 0)
    ckpt_dir = workdir / "checkpoints"
    ckpt_dir.mkdir()
    spans, losses = [], []
    clock = {"start": 0.0, "begin": 0.0}

    def on_epoch(epoch, weights, ema, stats):
        end = time.perf_counter()
        tracer.end()
        spans.append((clock["start"], end))
        losses.append(stats.mean_loss)
        # The CLI keeps a checkpoint per epoch; here an epoch is one step, so
        # only the newest is kept on disk.
        previous = ckpt_dir / f"epoch_{epoch - 1:03d}.ckpt"
        if previous.exists():
            previous.unlink()
        elapsed = end - clock["begin"]
        if epoch >= scale.min_ops and elapsed >= run.seconds and not tracer.installed:
            return True
        if tracer.installed and epoch >= scale.min_ops and elapsed >= run.seconds / 2:
            tracer.uninstall()
        run.speed.sample()
        tracer.begin("step")
        clock["start"] = time.perf_counter()
        return False

    run.speed.sample()
    tracer.begin("step")
    clock["begin"] = clock["start"] = time.perf_counter()
    try:
        trained = training.train(positives, loaded.corpus, loaded.index, loaded.table, hp,
                                 mode, checkpoint_dir=str(ckpt_dir), epoch_callback=on_epoch)
    except training.OptimizerError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        trained = None
    tracer.uninstall()
    run.speed.sample()
    result.attempted = len(spans) + (trained is None)
    result.failed = int(trained is None)
    if spans:
        run.report_ops(spans, len(spans) * (len(positives) + negatives), "step")
        result.report["train_examples_per_s"] = (
            len(spans) * (len(positives) + negatives)
            / sum(end - start for start, end in spans), "1/s")
        first = losses[:min(LOSS_STEPS, scale.min_ops)]
        result.metrics["joint_loss"] = (float(np.mean(first)), "nats")
        result.report["train_loss"] = result.metrics["joint_loss"]
    result.info["digest"] = digest([repr(x) for x in losses[:scale.min_ops]])
    result.info["op"] = "step"
    if trained is None:
        return

    # Output checks: a negative exists for every positive, and the final
    # checkpoint (saved as the train command does) reads back unchanged.
    if negatives:
        for pid in sorted({ex.passage_id for ex in positives}):
            ranked = retriever.similar_passages(loaded.index, loaded.corpus[pid], 15)
            if not ranked.entries:
                result.checks.append(f"no negative candidate for passage {pid}")
    final = str(ckpt_dir / "final.ckpt")
    checkpoint.save_checkpoint(final, hp, trained.weights, trained.ema)
    _, weights, ema = checkpoint.load_checkpoint(final)
    saved = model.named_arrays(trained.weights)
    for name, arr in model.named_arrays(weights).items():
        if not (np.array_equal(arr, saved[name]) and np.array_equal(ema[name], trained.ema[name])
                and np.all(np.isfinite(arr))):
            result.checks.append(f"checkpoint tensor {name} did not round-trip")


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> tuple[Result, Tracer]:
    """Generate inputs, build the index, set up, run the loop, check outputs."""
    scale = (TINY if tiny else WORKLOADS)[workload]
    inputs = generate(seed, scale, workdir)
    bench = Run(scale, seed, seconds, Tracer())
    if trace:
        bench.tracer.install()
    first_build = _build_index(bench, inputs, inputs.index)
    loaded = _set_up(bench, inputs)
    survivors = _recall(bench, loaded)
    if scale.mode:
        _train(bench, loaded, workdir)
    else:
        _ask(bench, loaded, survivors)
    result = bench.result
    _check_spans(loaded, result)
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # Free the loaded artifacts so that the second build meets the same heap
    # (and the same garbage-collector work) as the first.
    del loaded
    _rebuild_index(bench, inputs, first_build)
    for name in ("tfidf200_recall", "peak_rss_mb"):
        result.report[name] = result.metrics[name]
    if trace:
        result.metrics = _layer_metrics(bench.tracer, scale, result)
    return result, bench.tracer


def _layer_metrics(tracer: Tracer, scale: Scale, result: Result) -> dict:
    op = result.info["op"]
    metrics = tracer.layer_metrics(op, scale.min_ops)
    if "retriever.build_index" not in tracer.missing:
        metrics["retriever.index_bytes"] = (float(result.info["index_bytes"]), "bytes")
    traced = [o.end - o.start for o in tracer.ops if o.kind == op and o.traced]
    untraced = [o.end - o.start for o in tracer.ops if o.kind == op and not o.traced]
    if traced and untraced:
        base = median(untraced)
        metrics["trace.overhead_pct"] = ((median(traced) - base) / base * 100.0, "%")
    return metrics
