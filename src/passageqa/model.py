"""The retrieve-and-read network.

A shared trunk encodes question and passage (fixed word vectors, a shared
two-layer highway network, a shared contextual bi-LSTM), mixes them with
bidirectional attention and a fusion bi-LSTM, then splits into two heads:

  - span head: start/end distributions over passage positions
  - relevance head: probability that the passage answers the question,
    helped by a binary exact-match input channel

`encode_batch` is the one place token sequences become a padded batch.  A
`Vocabulary` numbers surface tokens; the masks come from the padded
numbers, the exact-match channel is one boolean lookup, and each side is
embedded by one gather from the vector table when first read.  The scorer
keeps one vocabulary and each text's numbers, so a batch of cached texts
needs no per-token Python.

`forward_batch` is two stages: `encode_sequences` (highway + contextual
bi-LSTM, which sees one sequence only) and `read` (everything after), so
inference can encode a question once and reuse passage encodings.  Every
bi-LSTM is one `ad.bilstm_scan` op from its input to its states, input
projections included, whose backward pass works over real tokens only.
`read` takes a list of chunks and runs each later bi-LSTM once over all of
them (`ad.bilstm_scan` groups), while attention and the heads stay per chunk.
Its span head is `span_head`, which the scorer also runs alone on the
attention output and fused states its finalists kept from ranking.
Each chunk keeps the bits it gets alone, except a one-row chunk sharing
steps with others, which may move by an ulp.  Gradients flow through one
chunk; several chunks run without them, as the scorer's waves do.  Layers
take dropout as `drop`, a Node -> Node function, the identity by default;
only `forward_batch` builds one, from `hp.dropout` and a keep-factor stream.

All sequence tensors are (batch, features, time).  Masks are constant float
arrays (batch, time) and right-padded: 1.0 at the real tokens, which come
first in each row, and 0.0 at the padding after them.  Every softmax over
positions receives one, and bi-LSTM states and outputs at padding are zero.

The weights are one ordered name -> array table.  `param_shapes` is the only
listing of the parameters: initialisation, checkpoint validation and the
forward pass all work from its names and shapes.  Layer functions take
weights as arrays (inference) or graph leaves (training).  `bilstm_encode`
looks up a bi-LSTM by name: each direction X_fwd, X_bwd has w_in (in_dim,
4*hidden), w_rec (hidden, 4*hidden) and bias (4*hidden,), gate columns in
[input, forget, cell, output] blocks.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import MASK_OFFSET, Node
from .text import TokenSeq, VectorTable


@dataclass
class Hyperparams:
    """Model sizes and training settings; defaults follow the reference setup."""

    hidden: int = 100          # per-direction LSTM width
    attn_dim: int = 100        # relevance self-attention projection width
    dropout: float = 0.2
    ir_weight: float = 1.0     # weight of the relevance loss in the joint loss
    vote_temperature: float = 0.05
    learning_rate: float = 1.0
    momentum: float = 0.9
    lr_decay: float = 0.9      # learning-rate factor applied each epoch
    epochs: int = 15
    ema_decay: float = 0.99
    batch_positives: int = 30
    batch_negatives: int = 30
    seed: int = 13

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, raw: dict) -> "Hyperparams":
        """Defaults overridden by `raw`, a mapping read from JSON.

        Each value must have its default's type (an int field takes an int,
        a float field an int or a float; bool is neither), be finite and lie
        in the range `RANGES` gives its field.  Raises ValueError otherwise.
        """
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ValueError(f"unknown hyperparameter fields: {sorted(unknown)}")
        for key, value in raw.items():
            kind = type(fields[key].default)
            allowed = (int,) if kind is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"hyperparameter {key} must be {kind.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"hyperparameter {key} must be finite, got {value!r}")
        hp = cls(**raw)
        for key, (rule, holds) in RANGES.items():
            if not holds(getattr(hp, key)):
                raise ValueError(f"{key} must be {rule}, got {getattr(hp, key)!r}")
        return hp


# Field -> (rule, test) for every hyperparameter a run breaks on outside its range.
RANGES = {
    "hidden": ("at least 1", lambda v: v >= 1),
    "attn_dim": ("at least 1", lambda v: v >= 1),
    "dropout": ("in [0, 1)", lambda v: 0 <= v < 1),
    "vote_temperature": ("positive", lambda v: v > 0),
    "epochs": ("at least 1", lambda v: v >= 1),
    "ema_decay": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "batch_positives": ("at least 1", lambda v: v >= 1),
    "batch_negatives": ("non-negative", lambda v: v >= 0),
    "seed": ("non-negative", lambda v: v >= 0),
}


def param_shapes(embed_dim: int, hidden: int, attn_dim: int
                 ) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable array, in initialisation draw order.

    This is the one listing of the model's parameters.  Highway layers map
    (dim, dim) with (dim, 1) biases.  Every LSTM is bidirectional: X_fwd and
    X_bwd each have .w_in (in_dim, 4*hidden), .w_rec (hidden, 4*hidden) and
    .bias (4*hidden,).
    """
    d = hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(2):
        for part in ("transform", "gate"):
            shapes[f"highway.{i}.{part}.weight"] = (embed_dim, embed_dim)
            shapes[f"highway.{i}.{part}.bias"] = (embed_dim, 1)

    def bilstm(name: str, in_dim: int) -> None:
        for direction in ("fwd", "bwd"):
            shapes[f"{name}_{direction}.w_in"] = (in_dim, 4 * d)
            shapes[f"{name}_{direction}.w_rec"] = (d, 4 * d)
            shapes[f"{name}_{direction}.bias"] = (4 * d,)

    bilstm("ctx", embed_dim)
    shapes["sim_weight"] = (6 * d,)
    bilstm("fusion", 8 * d)
    bilstm("start", 2 * d)
    shapes["start_weight"] = (10 * d,)
    bilstm("end", 14 * d)
    shapes["end_weight"] = (10 * d,)
    bilstm("rel", 2 * d + 1)          # fused states plus the exact-match bit
    shapes["attn_proj.weight"] = (attn_dim, 2 * d)
    shapes["attn_proj.bias"] = (attn_dim, 1)
    shapes["attn_context"] = (attn_dim,)
    shapes["rel_weight"] = (2 * d,)
    return shapes


def _stored_order(shapes: dict[str, tuple[int, ...]]) -> list[str]:
    """Checkpoint order: highway arrays, then LSTMs, then the rest."""
    def rank(name: str) -> int:
        if name.startswith("highway."):
            return 0
        return 1 if name.split(".")[0] + ".w_rec" in shapes else 2
    return sorted(shapes, key=rank)


@dataclass
class ModelWeights:
    """Every trainable array (or its graph leaf), keyed as in `param_shapes`."""

    embed_dim: int
    hidden: int
    attn_dim: int
    arrays: dict[str, Any]


def named_arrays(weights: ModelWeights) -> dict[str, np.ndarray]:
    """A new name -> array dict over the same arrays, in checkpoint order."""
    return dict(weights.arrays)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_weights(rng: np.random.Generator, embed_dim: int, hidden: int,
                 attn_dim: int, dtype=np.float32) -> ModelWeights:
    """Xavier-uniform matrices and vectors, zero biases, in a fixed draw order.

    A vector (n,) is drawn with fans (n, 1).
    """
    shapes = param_shapes(embed_dim, hidden, attn_dim)
    drawn = {}
    for name, shape in shapes.items():
        if name.endswith(".bias"):
            drawn[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in, fan_out = shape if len(shape) == 2 else (shape[0], 1)
            drawn[name] = xavier_uniform(rng, shape, fan_in, fan_out, dtype)
    arrays = {name: drawn[name] for name in _stored_order(shapes)}
    return ModelWeights(embed_dim, hidden, attn_dim, arrays)


def weights_from_named(embed_dim: int, hidden: int, attn_dim: int,
                       named: dict[str, np.ndarray]) -> ModelWeights:
    """Check a flat name -> array map against `param_shapes` and wrap it."""
    for what, dim in (("embed_dim", embed_dim), ("hidden", hidden),
                      ("attn_dim", attn_dim)):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
            raise ValueError(f"{what} must be a positive integer, got {dim!r}")
    shapes = param_shapes(embed_dim, hidden, attn_dim)
    missing = set(shapes) - set(named)
    extra = set(named) - set(shapes)
    if missing or extra:
        raise ValueError(f"weight name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for name, want in shapes.items():
        if named[name].shape != want:
            raise ValueError(f"{name}: expected shape {want}, got {named[name].shape}")
    arrays = {name: named[name] for name in _stored_order(shapes)}
    return ModelWeights(embed_dim, hidden, attn_dim, arrays)


def as_param_nodes(weights: ModelWeights) -> tuple[ModelWeights, dict[str, Node]]:
    """Wrap every weight array as a trainable graph leaf; returns the copy and its leaves."""
    nodes = {name: ad.leaf(arr, requires_grad=True) for name, arr in weights.arrays.items()}
    return replace(weights, arrays=nodes), nodes


# ---------------------------------------------------------------------------
# batch preparation


class Vocabulary:
    """Surface tokens numbered from 1 in order of first sight; 0 is padding.

    Numbers are case-sensitive, like the vector table and the match channel.
    Each number keeps its word's table row (0 for a word without a vector),
    so padded numbers embed with one gather.  `encode_batch` numbers each
    batch afresh unless it is given a vocabulary to grow.
    """

    def __init__(self, table: VectorTable):
        self.table = table
        self.numbers: dict[str, int] = {}
        self.rows = np.zeros(1, dtype=np.intp)    # number -> table row

    def __len__(self) -> int:
        return len(self.numbers)

    def ids(self, seq: TokenSeq) -> np.ndarray:
        """The numbers of `seq`'s tokens, numbering the words not seen before."""
        numbers = self.numbers
        known = len(numbers)
        ids = np.array([numbers.setdefault(tok, len(numbers) + 1) for tok in seq.tokens],
                       dtype=np.intp)
        if len(numbers) > known:
            new = itertools.islice(reversed(numbers), len(numbers) - known)
            rows = [self.table.rows.get(word, 0) for word in new][::-1]
            self.rows = np.concatenate([self.rows, rows])
        return ids

    def embed(self, ids: np.ndarray) -> np.ndarray:
        """(B, dim, T) C-ordered embeddings of (B, T) padded numbers."""
        return np.ascontiguousarray(self.table.matrix[self.rows[ids]].transpose(0, 2, 1))


@dataclass
class EncodedBatch:
    """Right-padded token numbers and masks of both sides, and the exact-match
    channel.  Masks and channel are C-ordered arrays in the vector table's
    dtype.  `passage_emb` and `question_emb` are gathered when first read,
    so the scorer, which holds the encodings of cached texts, skips them."""

    vocabulary: Vocabulary
    passage_ids: np.ndarray    # (B, T), 0 at padding
    question_ids: np.ndarray   # (B, J)
    passage_mask: np.ndarray   # (B, T)
    question_mask: np.ndarray  # (B, J)
    match_channel: np.ndarray  # (B, 1, T)

    @functools.cached_property
    def passage_emb(self) -> np.ndarray:      # (B, embed_dim, T)
        return self.vocabulary.embed(self.passage_ids)

    @functools.cached_property
    def question_emb(self) -> np.ndarray:     # (B, embed_dim, J)
        return self.vocabulary.embed(self.question_ids)


def encode_batch(questions: list[TokenSeq], passages: list[TokenSeq], table: VectorTable,
                 vocabulary: Vocabulary | None = None) -> EncodedBatch:
    """Number and right-pad a batch of (question, passage) pairs.

    Tokens are numbered by `vocabulary`, or by a new one over `table`.  An
    out-of-vocabulary word and every padding position embed as the table's
    zero row 0.  The match channel is 1.0 where a passage token occurs
    verbatim (case-sensitive) among its own row's question tokens, and 0.0
    elsewhere, padding included: one boolean lookup in a table with a row
    per distinct question text.
    """
    if len(questions) != len(passages):
        raise ValueError("questions and passages must pair up")
    if not questions:
        raise ValueError("empty batch")
    for q, p in zip(questions, passages):
        if len(q) == 0:
            raise ValueError(f"empty question: {q.text!r}")
        if len(p) == 0:
            raise ValueError(f"empty passage: {p.text!r}")
    if vocabulary is None:
        vocabulary = Vocabulary(table)
    dtype = table.matrix.dtype

    def pad(seqs: list[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
        ids = [vocabulary.ids(seq) for seq in seqs]
        lengths = np.array([len(row) for row in ids])
        real = np.arange(lengths.max()) < lengths[:, None]          # (B, T)
        padded = np.zeros(real.shape, dtype=np.intp)
        # Right-padded: the True positions, row by row, are the tokens in order.
        padded[real] = np.concatenate(ids)
        return padded, real

    passage_ids, real = pad(passages)
    question_ids, question_real = pad(questions)
    slots: dict[str, int] = {}
    slot = np.array([slots.setdefault(q.text, len(slots)) for q in questions])[:, None]
    lookup = np.zeros((len(slots), len(vocabulary) + 1), dtype=bool)
    lookup[slot, question_ids] = question_real      # number 0, padding, stays False
    match = lookup[slot, passage_ids].astype(dtype).reshape(len(passages), 1, -1)
    return EncodedBatch(vocabulary, passage_ids, question_ids, real.astype(dtype),
                        question_real.astype(dtype), match)


# ---------------------------------------------------------------------------
# forward pass


def _keep(node: Node) -> Node:
    return node


def bilstm_encode(w: dict, name: str, seqs: Sequence[Node],
                  masks: Sequence[np.ndarray]) -> list[Node]:
    """Each (batch, in_dim, time) sequence -> (batch, 2*hidden, time) by the
    `{name}_fwd` and `{name}_bwd` LSTMs of the weight table `w`, input
    projections included, all in one time loop (`ad.bilstm_scan`); rows
    :hidden are forward.  Each mask must be right-padded (real tokens
    first); the states at padding are zero, and so are its columns."""
    if any(seq.value.shape[2] == 0 for seq in seqs):
        raise ValueError("cannot encode an empty sequence")
    w_in, bias, w_rec = ([w[f"{name}_{d}.{part}"] for d in ("fwd", "bwd")]
                         for part in ("w_in", "bias", "w_rec"))
    return ad.bilstm_scan(list(zip(seqs, masks)), w_in, bias, w_rec)


def linear_seq(weight, bias, seq: Node) -> Node:
    """Apply (out, in) weight + (out, 1) bias along the feature axis of (B, in, T)."""
    return ad.add(ad.matmul(weight, seq), bias)


def highway_forward(layers: Sequence[tuple], seq: Node,
                    drop: Callable[[Node], Node] = _keep) -> Node:
    """Highway network over (B, dim, T); gate mixes transform with identity.

    Each layer is (transform weight, transform bias, gate weight, gate bias);
    `drop` takes its input.
    """
    out = seq
    for transform_w, transform_b, gate_w, gate_b in layers:
        out = drop(out)
        transformed = ad.relu(linear_seq(transform_w, transform_b, out))
        gate = ad.sigmoid(linear_seq(gate_w, gate_b, out))
        carry = ad.sub(1.0, gate)
        out = ad.add(ad.mul(gate, transformed), ad.mul(carry, out))
    return out


@dataclass
class ForwardState:
    """Nodes produced by one forward pass; head fields are None if skipped."""

    ctx_passage: Node          # (B, 2d, T)
    ctx_question: Node         # (B or 1, 2d, J)
    similarity: Node           # (B, T, J)
    attended: Node             # (B, 8d, T)
    fused: Node                # (B, 2d, T)
    passage_mask: np.ndarray
    question_mask: np.ndarray
    start_logits: Node | None = None
    start_probs: Node | None = None
    end_logits: Node | None = None
    end_probs: Node | None = None
    rel_attention: Node | None = None
    relevance_logit: Node | None = None
    relevance: Node | None = None


def attention_flow(ctx_passage: Node, ctx_question: Node, sim_weight: Node,
                   passage_mask: np.ndarray, question_mask: np.ndarray
                   ) -> tuple[Node, Node]:
    """Bidirectional attention between passage and question encodings.

    Returns the (B, T, J) similarity matrix and the (B, 8d, T) output that
    stacks passage encodings with question-aware and passage-aware blends.
    A (1, 2d, J) `ctx_question` is one question that every row reads.
    """
    n, two_d, t_len = ctx_passage.value.shape
    j_len = ctx_question.value.shape[2]
    dtype = ctx_passage.value.dtype

    w_passage = ad.reshape(ad.slice_axis(sim_weight, 0, 0, two_d), (1, two_d, 1))
    w_question = ad.reshape(ad.slice_axis(sim_weight, 0, two_d, 2 * two_d), (1, two_d, 1))
    w_product = ad.reshape(ad.slice_axis(sim_weight, 0, 2 * two_d, 3 * two_d), (1, two_d, 1))

    lin_passage = ad.reduce_sum(ad.mul(ctx_passage, w_passage), axis=1)    # (B, T)
    lin_question = ad.reduce_sum(ad.mul(ctx_question, w_question), axis=1)  # (B or 1, J)
    cross = ad.matmul(ad.transpose(ad.mul(ctx_passage, w_product), (0, 2, 1)),
                      ctx_question)                                        # (B, T, J)
    similarity = ad.add(cross, ad.add(ad.reshape(lin_passage, (n, t_len, 1)),
                                      ad.reshape(lin_question, (-1, 1, j_len))))

    # passage -> question attention
    att_over_question = ad.masked_softmax(similarity, question_mask[:, None, :])
    question_blend = ad.matmul(ctx_question, ad.transpose(att_over_question, (0, 2, 1)))

    # question -> passage attention: strongest question link per position
    q_offset = ((question_mask[:, None, :] - 1.0) * MASK_OFFSET).astype(dtype)
    strongest = ad.reduce_max(ad.add(similarity, ad.constant(q_offset)), axis=2)
    att_over_passage = ad.masked_softmax(strongest, passage_mask)          # (B, T)
    passage_blend = ad.matmul(ctx_passage,
                              ad.reshape(att_over_passage, (n, t_len, 1)))  # (B, 2d, 1)

    attended = ad.concat([
        ctx_passage,
        question_blend,
        ad.mul(ctx_passage, question_blend),
        ad.mul(ctx_passage, passage_blend),
    ], axis=1)
    return similarity, attended


def encode_sequences(weights: ModelWeights,
                     sequences: Sequence[tuple[np.ndarray, np.ndarray]],
                     drop: Callable[[Node], Node] = _keep) -> list[Node]:
    """Highway + contextual bi-LSTM of each (embeddings (B, dim, T), mask (B, T)).

    Returns one (B, 2d, T) node per sequence, each from a ctx time loop of
    its own, so a one-row batch keeps the bits of a one-row scan (see
    `ad.bilstm_scan`).  Each depends on its own sequence only, never on the
    one it will be read against.  `drop` takes, in this order, each highway
    layer's input of every sequence in turn, then each ctx input.
    """
    w = weights.arrays
    highway = [(w[f"highway.{i}.transform.weight"], w[f"highway.{i}.transform.bias"],
                w[f"highway.{i}.gate.weight"], w[f"highway.{i}.gate.bias"])
               for i in range(2)]
    highways = [highway_forward(highway, ad.constant(emb), drop) for emb, _ in sequences]
    return [bilstm_encode(w, "ctx", [drop(seq)], [mask])[0]
            for seq, (_, mask) in zip(highways, sequences)]


def span_head(weights: ModelWeights, chunks: Sequence[tuple[Node, Node, np.ndarray]],
              drop: Callable[[Node], Node] = _keep
              ) -> list[tuple[Node, Node, Node, Node]]:
    """Start and end logits and probabilities of each chunk.

    Each chunk is (attention output (B, 8d, T), fused states (B, 2d, T),
    passage mask (B, T)).  The start and end bi-LSTMs each run one time loop
    over all chunks.  `drop` is applied to each LSTM and output-transform
    input, stage by stage and chunk by chunk within a stage.  `read` calls
    this on the states it has just fused; the scorer calls it on the states
    its finalists kept from ranking.
    """
    w = weights.arrays
    d = weights.hidden
    w_start = ad.reshape(w["start_weight"], (1, 10 * d, 1))
    w_end = ad.reshape(w["end_weight"], (1, 10 * d, 1))
    masks = [mask for _, _, mask in chunks]
    start_all = bilstm_encode(w, "start", [drop(fused) for _, fused, _ in chunks], masks)
    starts, end_inputs = [], []
    for (attended, _, mask), start_states in zip(chunks, start_all):
        n, _, t_len = start_states.shape
        start_in = ad.concat([attended, start_states], axis=1)        # (B, 10d, T)
        start_logits = ad.reduce_sum(ad.mul(drop(start_in), w_start), axis=1)
        start_probs = ad.masked_softmax(start_logits, mask)
        starts.append((start_logits, start_probs))

        pooled = ad.matmul(start_states, ad.reshape(start_probs, (n, t_len, 1)))  # (B, 2d, 1)
        tiled = ad.broadcast_to(pooled, (n, 2 * d, t_len))
        end_seq_in = ad.concat([attended, start_states, tiled,
                                ad.mul(start_states, tiled)], axis=1)       # (B, 14d, T)
        end_inputs.append(drop(end_seq_in))
    out = []
    for (attended, _, mask), start, end_states in zip(
            chunks, starts, bilstm_encode(w, "end", end_inputs, masks)):
        end_in = ad.concat([attended, end_states], axis=1)
        end_logits = ad.reduce_sum(ad.mul(drop(end_in), w_end), axis=1)
        out.append((*start, end_logits, ad.masked_softmax(end_logits, mask)))
    return out


def read(weights: ModelWeights, chunks: Sequence[tuple[Node, Node, EncodedBatch]],
         drop: Callable[[Node], Node] = _keep,
         heads: tuple[str, ...] = ("span", "relevance")) -> list[ForwardState]:
    """Attention flow, fusion and the requested heads over encoded states.

    Each chunk is (ctx_passage (B, 2d, T), ctx_question (B or 1, 2d, J), batch):
    the states come from `encode_sequences`, and `batch` supplies the masks
    and the match channel.  Returns one state per chunk.  Attention and the
    heads' arithmetic run chunk by chunk; each of the fusion, start, end and
    rel bi-LSTMs runs one time loop over all chunks, which gives every chunk
    the bits it gets alone, except for a one-row chunk (see
    `ad.bilstm_scan`).  Gradients flow through one chunk only: several
    chunks run without them, as the scorer's waves do.  `drop` takes each LSTM
    and output-transform input, stage by stage, chunk by chunk in a stage.
    """
    unknown = set(heads) - {"span", "relevance"}
    if unknown:
        raise ValueError(f"unknown heads: {sorted(unknown)}")
    w = weights.arrays
    d = weights.hidden
    states = []
    for ctx_passage, ctx_question, batch in chunks:
        pmask, qmask = batch.passage_mask, batch.question_mask
        similarity, attended = attention_flow(ctx_passage, ctx_question,
                                              w["sim_weight"], pmask, qmask)
        states.append(ForwardState(ctx_passage, ctx_question, similarity, attended, None,
                                   pmask, qmask))
    pmasks = [state.passage_mask for state in states]
    fused_all = bilstm_encode(w, "fusion", [drop(s.attended) for s in states], pmasks)
    for state, fused in zip(states, fused_all):
        state.fused = fused

    if "span" in heads:
        spans = span_head(weights, [(s.attended, s.fused, s.passage_mask) for s in states], drop)
        for state, outputs in zip(states, spans):
            state.start_logits, state.start_probs, state.end_logits, state.end_probs = outputs

    if "relevance" in heads:
        w_ctx = ad.reshape(w["attn_context"], (1, weights.attn_dim, 1))
        w_rel = ad.reshape(w["rel_weight"], (1, 2 * d))
        rel_inputs = [drop(ad.concat([state.fused, ad.constant(batch.match_channel)], axis=1))
                      for state, (_, _, batch) in zip(states, chunks)]
        for state, rel_states in zip(states, bilstm_encode(w, "rel", rel_inputs, pmasks)):
            n, _, t_len = rel_states.shape
            proj = linear_seq(w["attn_proj.weight"], w["attn_proj.bias"],
                              rel_states)                                # (B, c, T)
            att_logits = ad.reduce_sum(ad.mul(proj, w_ctx), axis=1)     # (B, T)
            state.rel_attention = ad.masked_softmax(att_logits, state.passage_mask)
            summary = ad.reshape(
                ad.matmul(rel_states, ad.reshape(state.rel_attention, (n, t_len, 1))),
                (n, 2 * d))
            state.relevance_logit = ad.reduce_sum(ad.mul(drop(summary), w_rel), axis=1)
            state.relevance = ad.sigmoid(state.relevance_logit)

    return states


def forward_batch(weights: ModelWeights, hp: Hyperparams, batch: EncodedBatch,
                  keep_factors: ad.KeepFactors | None = None,
                  heads: tuple[str, ...] = ("span", "relevance")) -> ForwardState:
    """Run the network on an encoded batch: `encode_sequences`, then `read`.

    `weights` may hold arrays (inference) or graph leaves (training).  This is
    the one place `hp.dropout` and `keep_factors` become the layers' `drop`:
    inverted dropout by the next factors of `keep_factors`, the
    `ad.KeepFactors` stream `training.train` owns, which draws them ahead on
    autodiff's helper thread; without a stream, the identity.
    """
    def drop(node: Node) -> Node:
        return ad.dropout(node, hp.dropout, keep_factors)

    ctx_passage, ctx_question = encode_sequences(
        weights, [(batch.passage_emb, batch.passage_mask),
                  (batch.question_emb, batch.question_mask)], drop)
    [state] = read(weights, [(ctx_passage, ctx_question, batch)], drop, heads)
    return state


# ---------------------------------------------------------------------------
# span selection


def select_span(start_probs: np.ndarray, end_probs: np.ndarray
                ) -> tuple[int, int, float]:
    """Best (start, end) with start <= end maximizing start_p * end_p.

    Single linear scan keeping a running best start probability.  Ties go to
    the smallest start, then the smallest end.
    """
    start_probs = np.asarray(start_probs)
    end_probs = np.asarray(end_probs)
    if start_probs.ndim != 1 or start_probs.shape != end_probs.shape:
        raise ValueError(
            f"need matching 1-d arrays, got {start_probs.shape} and {end_probs.shape}")
    if start_probs.size == 0:
        raise ValueError("cannot select a span over zero positions")
    best: tuple[int, int, float] | None = None
    run_p = -1.0
    run_at = 0
    for pos in range(start_probs.size):
        if start_probs[pos] > run_p:
            run_p = float(start_probs[pos])
            run_at = pos
        score = run_p * float(end_probs[pos])
        if best is None or score > best[2]:
            best = (run_at, pos, score)
    return best
