"""Multi-task training of the retrieve-and-read network.

A batch holds positive examples (question, its gold passage, an answer span)
and negative examples (same question, a lexically similar but irrelevant
passage).  The relevance loss is binary cross-entropy over every example;
the span loss is negative log-likelihood of the gold start/end positions
over positive examples only.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .checkpoint import save_checkpoint
from .model import (ForwardState, Hyperparams, ModelWeights,
                    as_param_nodes, encode_batch, forward_batch, init_weights,
                    named_arrays)
from .retriever import Corpus, TfIdfIndex, similar_passages
from .text import TokenSeq, VectorTable

logger = logging.getLogger(__name__)


class TrainMode(str, Enum):
    MULTI_TASK = "mtl"
    RETRIEVAL_ONLY = "stl-ir"
    READING_ONLY = "stl-rc"


class OptimizerError(RuntimeError):
    """Raised when the loss or a gradient goes non-finite; names the epoch or tensor."""


@dataclass
class QuestionExample:
    """One (question, passage) training or evaluation pair."""

    qid: str
    question: TokenSeq
    passage_id: int
    relevance: int                      # 1 gold passage, 0 sampled negative
    span: tuple[int, int] | None = None  # inclusive token span of the answer
    answer_texts: tuple[str, ...] = ()

    def __post_init__(self):
        if self.relevance == 1 and self.span is None:
            raise ValueError(f"positive example {self.qid} needs an answer span")
        if self.relevance not in (0, 1):
            raise ValueError(f"relevance must be 0 or 1, got {self.relevance}")


@dataclass
class Batch:
    examples: list[QuestionExample]

    def __post_init__(self):
        if not self.examples:
            raise ValueError("empty batch")

    @property
    def size(self) -> int:
        return len(self.examples)

    @property
    def n_positive(self) -> int:
        return sum(ex.relevance for ex in self.examples)


# TF-IDF neighbours of the gold passage that a negative is drawn from.
NEGATIVE_POOL = 15


def make_negative(positive: QuestionExample, index: TfIdfIndex, corpus: Corpus,
                  rng: np.random.Generator,
                  relevant_ids: set[int] | None = None,
                  pools: dict[int, list[int]] | None = None) -> QuestionExample | None:
    """Same question paired with a similar-but-irrelevant passage.

    The passage is drawn uniformly from the top NEGATIVE_POOL TF-IDF-similar
    passages to the gold one, excluding `relevant_ids` (default: the gold
    passage alone).  Returns None (with a warning) when no candidate exists.
    `pools` (gold passage id -> its similar passage ids) keeps each gold
    passage's ranking across calls, so the index is queried once per passage.
    """
    exclude = relevant_ids if relevant_ids is not None else {positive.passage_id}
    pools = {} if pools is None else pools
    if positive.passage_id not in pools:
        pools[positive.passage_id] = similar_passages(
            index, corpus[positive.passage_id], NEGATIVE_POOL).ids()
    pool = [pid for pid in pools[positive.passage_id] if pid not in exclude]
    if not pool:
        logger.warning("no negative candidate for question %s (passage %d)",
                       positive.qid, positive.passage_id)
        return None
    pick = pool[int(rng.integers(len(pool)))]
    return QuestionExample(qid=positive.qid, question=positive.question,
                           passage_id=pick, relevance=0,
                           answer_texts=positive.answer_texts)


# ---------------------------------------------------------------------------
# losses


@dataclass
class BatchTargets:
    """Constant arrays the graph loss needs."""

    relevance: np.ndarray      # (B,) 0/1
    start_onehot: np.ndarray   # (B, T)
    end_onehot: np.ndarray     # (B, T)
    n_positive: int


def build_targets(batch: Batch, t_len: int, dtype=np.float32) -> BatchTargets:
    n = batch.size
    relevance = np.zeros(n, dtype=dtype)
    start_onehot = np.zeros((n, t_len), dtype=dtype)
    end_onehot = np.zeros((n, t_len), dtype=dtype)
    for i, ex in enumerate(batch.examples):
        relevance[i] = ex.relevance
        if ex.relevance == 1:
            y1, y2 = ex.span
            if not 0 <= y1 <= y2 < t_len:
                raise ValueError(f"span {ex.span} outside passage of {t_len} tokens")
            start_onehot[i, y1] = 1.0
            end_onehot[i, y2] = 1.0
    return BatchTargets(relevance, start_onehot, end_onehot, batch.n_positive)


def relevance_loss(state: ForwardState, targets: BatchTargets) -> Node:
    """Mean BCE from the relevance logits (numerically safe at saturation)."""
    logit = state.relevance_logit
    pos = ad.mul(ad.constant(targets.relevance), ad.log_sigmoid(logit))
    neg = ad.mul(ad.constant(1.0 - targets.relevance), ad.log_sigmoid(ad.neg(logit)))
    total = ad.reduce_sum(ad.add(pos, neg))
    return ad.scale(total, -1.0 / targets.relevance.size)


def span_loss(state: ForwardState, targets: BatchTargets) -> Node:
    """Mean NLL of gold spans over positives; negatives contribute nothing."""
    if targets.n_positive == 0:
        raise ValueError("a batch must contain at least one positive example")
    pos_mask = ad.constant(targets.relevance)

    def head_nll(logits: Node, onehot: np.ndarray) -> Node:
        picked = ad.reduce_sum(ad.mul(logits, ad.constant(onehot)), axis=-1)  # (B,)
        lse = ad.masked_logsumexp(logits, state.passage_mask)                 # (B,)
        return ad.mul(pos_mask, ad.sub(lse, picked))

    total = ad.reduce_sum(ad.add(head_nll(state.start_logits, targets.start_onehot),
                                 head_nll(state.end_logits, targets.end_onehot)))
    return ad.scale(total, 1.0 / targets.n_positive)


def graph_loss(state: ForwardState, targets: BatchTargets, ir_weight: float,
               mode: TrainMode) -> Node:
    if mode == TrainMode.RETRIEVAL_ONLY:
        return relevance_loss(state, targets)
    if mode == TrainMode.READING_ONLY:
        return span_loss(state, targets)
    return ad.add(span_loss(state, targets),
                  ad.scale(relevance_loss(state, targets), ir_weight))


# ---------------------------------------------------------------------------
# optimizer and averaging


def sgd_momentum_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      velocity: dict[str, np.ndarray], lr: float,
                      momentum: float = 0.9) -> None:
    """Classical momentum update, in place: v <- m*v + g; w <- w - lr*v."""
    for name, array in params.items():
        grad = grads[name]
        if not np.all(np.isfinite(grad)):
            raise OptimizerError(f"non-finite gradient in tensor {name!r}")
        vel = velocity[name]
        vel *= momentum
        vel += grad
        array -= lr * vel


def ema_update(shadow: dict[str, np.ndarray], params: dict[str, np.ndarray],
               decay: float = 0.99) -> None:
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    for name, array in params.items():
        sh = shadow[name]
        sh *= decay
        sh += (1.0 - decay) * array


# ---------------------------------------------------------------------------
# the loop


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    n_batches: int
    learning_rate: float


@dataclass
class TrainResult:
    weights: ModelWeights
    ema: dict[str, np.ndarray]
    history: list[EpochStats] = field(default_factory=list)


def _batches(order: np.ndarray, size: int) -> list[np.ndarray]:
    return [order[i:i + size] for i in range(0, len(order), size)]


def train(positives: list[QuestionExample], corpus: Corpus, index: TfIdfIndex,
          table: VectorTable, hp: Hyperparams,
          mode: TrainMode = TrainMode.MULTI_TASK,
          checkpoint_dir: str | None = None,
          epoch_callback=None) -> TrainResult:
    """Train from scratch on positive examples.

    Negatives are regenerated every epoch.  The EMA shadow starts as a copy
    of the initial weights and is updated after every optimizer step.  With
    `checkpoint_dir` set, a checkpoint is written after each epoch.  All
    randomness (init, shuffling, negative sampling, dropout) derives from
    hp.seed, so runs are bit-reproducible.

    `train` owns the dropout stream: an `ad.KeepFactors` over its dropout
    generator, which draws keep factors ahead on autodiff's helper thread
    while the step runs, and each step's `forward_batch` takes it.  Factors
    drawn ahead carry over to the next step and the leftovers are dropped at
    the end, so the factors follow the order of the dropout calls, however
    the stream cuts its blocks, and runs stay bit-reproducible.  No draw is
    left running when `train` returns or raises.
    """
    if not positives:
        raise ValueError("no training examples")
    for ex in positives:
        if ex.relevance != 1:
            raise ValueError(f"train() takes positive examples only, got {ex.qid}")
        n_tokens = len(corpus[ex.passage_id].tokens)
        if not 0 <= ex.span[0] <= ex.span[1] < n_tokens:
            raise ValueError(f"question {ex.qid}: span {ex.span} outside passage "
                             f"{ex.passage_id} of {n_tokens} tokens")

    seeds = np.random.SeedSequence(hp.seed).spawn(4)
    rng_init = np.random.default_rng(seeds[0])
    rng_order = np.random.default_rng(seeds[1])
    rng_negative = np.random.default_rng(seeds[2])
    rng_dropout = np.random.default_rng(seeds[3])

    # a question may have several gold passages; none of them is a negative
    gold: dict[str, set[int]] = {}
    for ex in positives:
        gold.setdefault(ex.qid, set()).add(ex.passage_id)

    weights = init_weights(rng_init, table.dim, hp.hidden, hp.attn_dim)
    arrays = named_arrays(weights)
    dtype = np.result_type(table.matrix, *arrays.values())    # of every dropout input
    ema = {name: arr.copy() for name, arr in arrays.items()}
    velocity = {name: np.zeros_like(arr) for name, arr in arrays.items()}

    heads = {TrainMode.MULTI_TASK: ("span", "relevance"),
             TrainMode.RETRIEVAL_ONLY: ("relevance",),
             TrainMode.READING_ONLY: ("span",)}[mode]
    want_negatives = mode != TrainMode.READING_ONLY
    pools: dict[int, list[int]] = {}

    history: list[EpochStats] = []
    # From here on only the stream reads rng_dropout, on autodiff's helper thread.
    with ad.KeepFactors(rng_dropout, hp.dropout, dtype) as keep_factors:
        for epoch in range(1, hp.epochs + 1):
            lr = hp.learning_rate * hp.lr_decay ** (epoch - 1)
            order = rng_order.permutation(len(positives))
            losses = []
            for chunk in _batches(order, hp.batch_positives):
                examples = [positives[i] for i in chunk]
                if want_negatives:
                    negatives = []
                    for pos_ex in examples[:hp.batch_negatives]:
                        neg = make_negative(pos_ex, index, corpus, rng_negative,
                                            gold[pos_ex.qid], pools)
                        if neg is not None:
                            negatives.append(neg)
                    examples = examples + negatives
                batch = Batch(examples)
                encoded = encode_batch([ex.question for ex in batch.examples],
                                       [corpus[ex.passage_id].tokens
                                        for ex in batch.examples], table)
                targets = build_targets(batch, encoded.passage_emb.shape[2])
                node_weights, leaves = as_param_nodes(weights)
                # A diverging run ends in OptimizerError, not in numpy warnings.
                with np.errstate(over="ignore", invalid="ignore"):
                    state = forward_batch(node_weights, hp, encoded, keep_factors, heads=heads)
                    loss = graph_loss(state, targets, hp.ir_weight, mode)
                    loss_value = float(loss.value)
                    if not np.isfinite(loss_value):
                        raise OptimizerError(f"non-finite loss at epoch {epoch}")
                    ad.backward(loss)
                    grads = {name: leaves[name].gradient() for name in arrays}
                    sgd_momentum_step(arrays, grads, velocity, lr, hp.momentum)
                    ema_update(ema, arrays, hp.ema_decay)
                losses.append(loss_value)
            stats = EpochStats(epoch, float(np.mean(losses)), len(losses), lr)
            history.append(stats)
            logger.info("epoch %d: loss %.4f (lr %.4g, %d batches)",
                        epoch, stats.mean_loss, lr, stats.n_batches)
            if checkpoint_dir is not None:
                path = Path(checkpoint_dir) / f"epoch_{epoch:03d}.ckpt"
                save_checkpoint(str(path), hp, weights, ema)
            if epoch_callback is not None and epoch_callback(epoch, weights, ema, stats):
                break
    return TrainResult(weights, ema, history)
