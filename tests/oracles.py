"""Reference implementations used only by tests.

Everything here is written the slow, obvious way: python loops, the math
module, string-keyed dictionaries.  None of it touches the autodiff graph or
the inverted index, so a disagreement between these and the package points
at the package (or at a genuinely different reading of the math, which is
worth knowing too).
"""
from __future__ import annotations

import math
import re
import struct
import unicodedata
from collections import Counter

import numpy as np

from passageqa.retriever import BIGRAM_SEP
from passageqa.text import TokenSeq, VectorFileError, VectorTable


# ---------------------------------------------------------------------------
# scalar activations


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax(xs: list[float]) -> list[float]:
    m = max(xs)
    exps = [math.exp(x - m) for x in xs]
    z = sum(exps)
    return [e / z for e in exps]


def logsumexp(xs: list[float]) -> float:
    m = max(xs)
    return m + math.log(sum(math.exp(x - m) for x in xs))


# ---------------------------------------------------------------------------
# recurrent cells, one scalar at a time
#
# Weight containers are plain numpy arrays in the package's layout:
# w_in (in_dim, 4*hidden), w_rec (hidden, 4*hidden), bias (4*hidden,), with
# gate columns ordered [input, forget, cell-candidate, output].


def lstm_step(w_in, w_rec, bias, x: list[float], h_prev: list[float],
              c_prev: list[float]) -> tuple[list[float], list[float]]:
    hidden = len(h_prev)
    in_dim = len(x)
    pre = []
    for g in range(4 * hidden):
        acc = float(bias[g])
        for i in range(in_dim):
            acc += float(x[i]) * float(w_in[i, g])
        for j in range(hidden):
            acc += float(h_prev[j]) * float(w_rec[j, g])
        pre.append(acc)
    h_out, c_out = [], []
    for k in range(hidden):
        i_gate = sigmoid(pre[k])
        f_gate = sigmoid(pre[hidden + k])
        cand = math.tanh(pre[2 * hidden + k])
        o_gate = sigmoid(pre[3 * hidden + k])
        c_new = f_gate * float(c_prev[k]) + i_gate * cand
        c_out.append(c_new)
        h_out.append(o_gate * math.tanh(c_new))
    return h_out, c_out


def lstm_unroll(w_in, w_rec, bias, columns: list[list[float]], hidden: int,
                reverse: bool = False) -> list[list[float]]:
    """Hidden state at every position for one direction, full-length mask."""
    h = [0.0] * hidden
    c = [0.0] * hidden
    order = range(len(columns) - 1, -1, -1) if reverse else range(len(columns))
    out: list[list[float] | None] = [None] * len(columns)
    for t in order:
        h, c = lstm_step(w_in, w_rec, bias, columns[t], h, c)
        out[t] = h
    return out  # type: ignore[return-value]


def bilstm(fwd, bwd, columns: list[list[float]], hidden: int) -> list[list[float]]:
    """Concatenated forward/backward states; mirrors bilstm_encode at B=1.

    fwd and bwd are (w_in, w_rec, bias) triples.
    """
    f = lstm_unroll(*fwd, columns, hidden)
    b = lstm_unroll(*bwd, columns, hidden, reverse=True)
    return [f[t] + b[t] for t in range(len(columns))]


def linear(weight, bias, col: list[float]) -> list[float]:
    out = []
    for r in range(weight.shape[0]):
        acc = float(bias[r, 0])
        for i in range(weight.shape[1]):
            acc += float(weight[r, i]) * float(col[i])
        out.append(acc)
    return out


def highway(layers, col: list[float]) -> list[float]:
    """layers: (transform weight, transform bias, gate weight, gate bias) tuples."""
    out = list(col)
    for transform_w, transform_b, gate_w, gate_b in layers:
        transformed = [max(0.0, v) for v in linear(transform_w, transform_b, out)]
        gate = [sigmoid(v) for v in linear(gate_w, gate_b, out)]
        out = [g * t + (1.0 - g) * o for g, t, o in zip(gate, transformed, out)]
    return out


# ---------------------------------------------------------------------------
# the bi-LSTM scan with the state carried across masked positions
#
# Both LSTM directions in numpy, with the state at a masked position blended
# as k*new + (1-k)*old, so a mask may have gaps.  At a real position the
# arithmetic is autodiff.bilstm_scan's, in the same order, so on a right-padded
# mask the package's scan can be held to its bytes.  The gates' sigmoid is the
# scan's tanh form, 0.5*tanh(x/2) + 0.5, written here on the whole sums.
# _sigmoid_array below is the reference formula, np.where's select, whose
# bytes the package's branch-free _sigmoid_values (the graph ops' sigmoid)
# must give.


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    base = 1.0 / (1.0 + ex)
    return np.where(x >= 0, base, ex * base)


def bilstm_scan_blended(proj: tuple[np.ndarray, np.ndarray],
                        w_rec: tuple[np.ndarray, np.ndarray], mask: np.ndarray,
                        grad: np.ndarray):
    """(B, 2h, T) output of both LSTM directions over (B, T, 4h) projections,
    and the gradients of (proj_fwd, proj_bwd, w_rec_fwd, w_rec_bwd) for the
    output gradient `grad`, each as accumulated into a fresh zero array."""
    x, w = proj[0], w_rec[0]
    batch, steps, _ = x.shape
    hidden = w.shape[0]
    dtype = x.dtype
    xs = np.stack([x.transpose(1, 0, 2), proj[1].transpose(1, 0, 2)[::-1]], axis=1)
    w = np.stack([w, w_rec[1]])
    keep = np.stack([mask.T, mask.T[::-1]], axis=1).astype(dtype)[..., None]
    drop = 1.0 - keep
    acts = np.empty((steps, 2, batch, 4 * hidden), dtype)
    h_prev, c_prev, tanh_c, states = (np.empty((steps, 2, batch, hidden), dtype)
                                      for _ in range(4))
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
    h = np.zeros((2, batch, hidden), dtype)
    c = np.zeros((2, batch, hidden), dtype)
    for t in range(steps):
        h_prev[t], c_prev[t] = h, c
        gates = xs[t] + h @ w
        acts[t] = 0.5 * np.tanh(0.5 * gates) + 0.5
        acts[t, ..., blocks[2]] = np.tanh(gates[..., blocks[2]])
        i, f, cand, o = (acts[t, ..., b] for b in blocks)
        c_new = f * c + i * cand
        h_new = o * np.tanh(c_new, out=tanh_c[t])
        h = keep[t] * h_new + drop[t] * h
        c = keep[t] * c_new + drop[t] * c
        states[t] = keep[t] * h
    value = np.empty((batch, 2 * hidden, steps), dtype)
    value[:, :hidden] = states[:, 0].transpose(1, 2, 0)
    value[:, hidden:] = states[::-1, 1].transpose(1, 2, 0)

    gs = np.stack([grad[:, :hidden].transpose(2, 0, 1),
                   grad[:, hidden:].transpose(2, 0, 1)[::-1]], axis=1)
    d_gates = np.empty_like(acts)
    dh = np.zeros((2, batch, hidden), dtype)
    dc = np.zeros((2, batch, hidden), dtype)
    for t in range(steps - 1, -1, -1):
        i, f, cand, o = (acts[t, ..., b] for b in blocks)
        dh = dh + keep[t] * gs[t]
        dh_new, dc_new = keep[t] * dh, keep[t] * dc
        dc_new += dh_new * o * (1.0 - tanh_c[t] * tanh_c[t])
        d_gates[t] = np.concatenate([dc_new * cand * i * (1.0 - i),
                                     dc_new * c_prev[t] * f * (1.0 - f),
                                     dc_new * i * (1.0 - cand * cand),
                                     dh_new * tanh_c[t] * o * (1.0 - o)], axis=-1)
        dh = drop[t] * dh + d_gates[t] @ w.swapaxes(1, 2)
        dc = drop[t] * dc + dc_new * f
    d_proj, d_w = [], []
    for d_k, h_k in ((d_gates[:, 0], h_prev[:, 0]), (d_gates[::-1, 1], h_prev[::-1, 1])):
        d_proj.append(np.zeros_like(x) + d_k.transpose(1, 0, 2))
        d_w.append(np.zeros_like(w[0])
                   + h_k.reshape(-1, hidden).T @ d_k.reshape(-1, 4 * hidden))
    return value, (*d_proj, *d_w)


# ---------------------------------------------------------------------------
# masked softmax
#
# autodiff.masked_softmax's value as first written: a masked position is
# shifted to 0, so its weight is exp(0), and then multiplied by the mask.
# The package takes exp(-inf) = 0 there instead, and must keep these bytes.


def masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    keep = np.broadcast_to(np.asarray(mask) != 0, x.shape)
    low = np.where(keep, x, -np.inf)
    rowmax = low.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    shifted = np.where(keep, x - rowmax, 0.0)
    weights = np.exp(shifted) * keep
    denom = weights.sum(axis=-1, keepdims=True)
    safe = np.where(denom > 0, denom, 1.0)
    return (weights / safe).astype(x.dtype)


# ---------------------------------------------------------------------------
# reverse mode the plain way
#
# A few graph ops with the gradient bookkeeping autodiff had before its
# backward pass was trimmed: every first gradient is zeros_like(value) plus
# the incoming one, both operand gradients are formed whether or not they are
# needed, and an operand broadcast over a stack gets the whole product stack
# summed.  The graph walk is autodiff's, so gradients meet in the same order
# and the package can be held to these bytes.


class RefNode:
    def __init__(self, value, parents=(), back=None, needs_grad=False):
        self.value, self.parents, self.back = value, parents, back
        self.needs_grad, self.grad = needs_grad, None


def ref_leaf(value: np.ndarray, requires_grad: bool = False) -> RefNode:
    return RefNode(np.asarray(value), needs_grad=requires_grad)


def _ref_make(value, parents, back) -> RefNode:
    if any(p.needs_grad for p in parents):
        return RefNode(value, parents, back, needs_grad=True)
    return RefNode(value)


def _ref_accumulate(node: RefNode, grad: np.ndarray) -> None:
    if not node.needs_grad:
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += grad


def _ref_unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def ref_add(a: RefNode, b: RefNode) -> RefNode:
    def back(g):
        _ref_accumulate(a, _ref_unbroadcast(g, a.value.shape))
        _ref_accumulate(b, _ref_unbroadcast(g, b.value.shape))
    return _ref_make(a.value + b.value, (a, b), back)


def ref_sub(a: RefNode, b: RefNode) -> RefNode:
    def back(g):
        _ref_accumulate(a, _ref_unbroadcast(g, a.value.shape))
        _ref_accumulate(b, _ref_unbroadcast(-g, b.value.shape))
    return _ref_make(a.value - b.value, (a, b), back)


def ref_mul(a: RefNode, b: RefNode) -> RefNode:
    def back(g):
        _ref_accumulate(a, _ref_unbroadcast(g * b.value, a.value.shape))
        _ref_accumulate(b, _ref_unbroadcast(g * a.value, b.value.shape))
    return _ref_make(a.value * b.value, (a, b), back)


def ref_matmul(a: RefNode, b: RefNode) -> RefNode:
    def back(g):
        _ref_accumulate(a, _ref_unbroadcast(g @ b.value.swapaxes(-1, -2), a.value.shape))
        _ref_accumulate(b, _ref_unbroadcast(a.value.swapaxes(-1, -2) @ g, b.value.shape))
    return _ref_make(a.value @ b.value, (a, b), back)


def ref_transpose(a: RefNode, axes: tuple[int, ...]) -> RefNode:
    inverse = tuple(np.argsort(axes))

    def back(g):
        _ref_accumulate(a, g.transpose(inverse))
    return _ref_make(a.value.transpose(axes), (a,), back)


def ref_sum(a: RefNode) -> RefNode:
    def back(g):
        _ref_accumulate(a, np.broadcast_to(g, a.value.shape).copy())
    return _ref_make(a.value.sum(), (a,), back)


def ref_backward(loss: RefNode) -> None:
    """Fill `.grad` on every grad-requiring node, in autodiff.backward's order."""
    order, seen = [], {id(loss)}
    stack = [(loss, iter(loss.parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.needs_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p.parents)))
                break
        else:
            order.append(node)
            stack.pop()
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.back is not None:
            node.back(node.grad)


# ---------------------------------------------------------------------------
# batch encoding, one row at a time
#
# model.encode_batch as it was before it gathered whole batches: each row's
# embeddings and exact-match row are built alone, then copied into
# zero-filled padded arrays.  The package must give these bytes.


def encode_batch_rows(questions: list[TokenSeq], passages: list[TokenSeq],
                      table: VectorTable) -> tuple[np.ndarray, ...]:
    """(passage_emb, question_emb, passage_mask, question_mask, match_channel)."""
    def embed(seq: TokenSeq) -> np.ndarray:
        return table.matrix[[table.rows.get(tok, 0) for tok in seq.tokens]].T

    def exact_match_channel(question: TokenSeq, passage: TokenSeq) -> np.ndarray:
        vocab = set(question.tokens)
        row = np.fromiter((1.0 if tok in vocab else 0.0 for tok in passage.tokens),
                          dtype=np.float32, count=len(passage))
        return row.reshape(1, -1)

    n = len(questions)
    t_max = max(len(p) for p in passages)
    j_max = max(len(q) for q in questions)
    dim, dtype = table.dim, table.matrix.dtype
    passage_emb = np.zeros((n, dim, t_max), dtype=dtype)
    question_emb = np.zeros((n, dim, j_max), dtype=dtype)
    passage_mask = np.zeros((n, t_max), dtype=dtype)
    question_mask = np.zeros((n, j_max), dtype=dtype)
    match = np.zeros((n, 1, t_max), dtype=dtype)
    for i, (q, p) in enumerate(zip(questions, passages)):
        passage_emb[i, :, :len(p)] = embed(p)
        question_emb[i, :, :len(q)] = embed(q)
        passage_mask[i, :len(p)] = 1.0
        question_mask[i, :len(q)] = 1.0
        match[i, :, :len(p)] = exact_match_channel(q, p)
    return passage_emb, question_emb, passage_mask, question_mask, match


# ---------------------------------------------------------------------------
# attention between two encoded sequences


def attention_flow(h_cols: list[list[float]], u_cols: list[list[float]],
                   w6) -> tuple[list[list[float]], list[list[float]]]:
    """Similarity matrix [T][J] and the stacked output columns [T] of 8d."""
    two_d = len(h_cols[0])
    w_h = [float(w6[i]) for i in range(two_d)]
    w_u = [float(w6[two_d + i]) for i in range(two_d)]
    w_hu = [float(w6[2 * two_d + i]) for i in range(two_d)]

    sim = []
    for h in h_cols:
        row = []
        for u in u_cols:
            s = sum(w_h[i] * h[i] for i in range(two_d))
            s += sum(w_u[i] * u[i] for i in range(two_d))
            s += sum(h[i] * w_hu[i] * u[i] for i in range(two_d))
            row.append(s)
        sim.append(row)

    g_cols = []
    # strongest question link per passage position, softmaxed over positions
    peaks = [max(row) for row in sim]
    over_passage = softmax(peaks)
    h_blend = [sum(over_passage[t] * h_cols[t][i] for t in range(len(h_cols)))
               for i in range(two_d)]
    for t, h in enumerate(h_cols):
        over_question = softmax(sim[t])
        u_blend = [sum(over_question[j] * u_cols[j][i] for j in range(len(u_cols)))
                   for i in range(two_d)]
        g_cols.append(h + u_blend + [h[i] * u_blend[i] for i in range(two_d)]
                      + [h[i] * h_blend[i] for i in range(two_d)])
    return sim, g_cols


# ---------------------------------------------------------------------------
# end-to-end single-pair forward


def full_forward(weights, question_tokens: list[str], passage_tokens: list[str],
                 table) -> dict:
    """Whole network for one pair, no padding, no dropout.

    `weights` is a ModelWeights of raw arrays; `table` maps token -> vector.
    Returns start/end distributions, the relevance probability, and a few
    intermediates useful for narrower comparisons.
    """
    d = weights.hidden
    w = weights.arrays

    def embed_cols(tokens):
        return [[float(v) for v in table.get(tok)] for tok in tokens]

    def lstm(name):
        return w[name + ".w_in"], w[name + ".w_rec"], w[name + ".bias"]

    layers = [(w[f"highway.{i}.transform.weight"], w[f"highway.{i}.transform.bias"],
               w[f"highway.{i}.gate.weight"], w[f"highway.{i}.gate.bias"])
              for i in range(2)]
    p_cols = [highway(layers, c) for c in embed_cols(passage_tokens)]
    q_cols = [highway(layers, c) for c in embed_cols(question_tokens)]
    ctx_p = bilstm(lstm("ctx_fwd"), lstm("ctx_bwd"), p_cols, d)
    ctx_q = bilstm(lstm("ctx_fwd"), lstm("ctx_bwd"), q_cols, d)
    sim, g_cols = attention_flow(ctx_p, ctx_q, w["sim_weight"])
    fused = bilstm(lstm("fusion_fwd"), lstm("fusion_bwd"), g_cols, d)

    t_len = len(passage_tokens)
    start_states = bilstm(lstm("start_fwd"), lstm("start_bwd"), fused, d)
    start_logits = [sum(float(w["start_weight"][i]) * (g_cols[t] + start_states[t])[i]
                        for i in range(10 * d)) for t in range(t_len)]
    start_p = softmax(start_logits)
    pooled = [sum(start_p[t] * start_states[t][i] for t in range(t_len))
              for i in range(2 * d)]
    end_seq = [g_cols[t] + start_states[t] + pooled
               + [start_states[t][i] * pooled[i] for i in range(2 * d)]
               for t in range(t_len)]
    end_states = bilstm(lstm("end_fwd"), lstm("end_bwd"), end_seq, d)
    end_logits = [sum(float(w["end_weight"][i]) * (g_cols[t] + end_states[t])[i]
                      for i in range(10 * d)) for t in range(t_len)]
    end_p = softmax(end_logits)

    q_set = set(question_tokens)
    rel_in = [fused[t] + [1.0 if passage_tokens[t] in q_set else 0.0]
              for t in range(t_len)]
    rel_states = bilstm(lstm("rel_fwd"), lstm("rel_bwd"), rel_in, d)
    att_logits = []
    for t in range(t_len):
        proj = linear(w["attn_proj.weight"], w["attn_proj.bias"], rel_states[t])
        att_logits.append(sum(float(w["attn_context"][i]) * proj[i]
                              for i in range(len(proj))))
    att = softmax(att_logits)
    summary = [sum(att[t] * rel_states[t][i] for t in range(t_len))
               for i in range(2 * d)]
    rel_logit = sum(float(w["rel_weight"][i]) * summary[i] for i in range(2 * d))

    return {
        "similarity": sim,
        "attended": g_cols,
        "start_probs": start_p,
        "end_probs": end_p,
        "rel_attention": att,
        "relevance_logit": rel_logit,
        "relevance": sigmoid(rel_logit),
    }


# ---------------------------------------------------------------------------
# joint loss from per-example probabilities


def joint_loss(outputs: list[tuple[np.ndarray, np.ndarray, float]],
               batch, ir_weight: float) -> float:
    """Reference numeric loss over per-example (start_p, end_p, relevance_p).

    relevance part: mean binary cross-entropy over all examples
    span part: mean over positives of -(log start_p[y1] + log end_p[y2])
    total: span + ir_weight * relevance
    `batch` is a training.Batch.
    """
    if len(outputs) != batch.size:
        raise ValueError("one output triple per example required")
    n_pos = batch.n_positive
    if n_pos == 0:
        raise ValueError("a batch must contain at least one positive example")
    bce = 0.0
    nll = 0.0
    for (start_p, end_p, rel_p), ex in zip(outputs, batch.examples):
        if ex.relevance == 1:
            bce -= float(np.log(rel_p))
            y1, y2 = ex.span
            nll -= float(np.log(start_p[y1])) + float(np.log(end_p[y2]))
        else:
            bce -= float(np.log1p(-rel_p))
    return nll / n_pos + ir_weight * (bce / len(outputs))


# ---------------------------------------------------------------------------
# span search by exhaustive enumeration


def best_span_quadratic(start_p, end_p) -> tuple[int, int, float]:
    """All (t1, t2) pairs with t1 <= t2; ties keep the earliest pair."""
    best = None
    for t1 in range(len(start_p)):
        for t2 in range(t1, len(end_p)):
            score = float(start_p[t1]) * float(end_p[t2])
            if best is None or score > best[2]:
                best = (t1, t2, score)
    return best


# ---------------------------------------------------------------------------
# tokenizer, one character at a time


def tokenize(text: str) -> TokenSeq:
    """Whitespace split, then leading and trailing punctuation peeled off one
    character at a time into their own tokens."""
    tokens, offsets = [], []
    for m in re.finditer(r"\S+", text):
        lo, hi = m.start(), m.end()
        while lo < hi and unicodedata.category(text[lo]).startswith("P"):
            tokens.append(text[lo])
            offsets.append((lo, lo + 1))
            lo += 1
        trailing = []
        while hi > lo and unicodedata.category(text[hi - 1]).startswith("P"):
            trailing.append(hi - 1)
            hi -= 1
        if lo < hi:
            tokens.append(text[lo:hi])
            offsets.append((lo, hi))
        for pos in reversed(trailing):
            tokens.append(text[pos])
            offsets.append((pos, pos + 1))
    return TokenSeq(text, tuple(tokens), tuple(offsets))


# ---------------------------------------------------------------------------
# word-vector file, one row and one float() at a time


def load_vectors(path: str) -> VectorTable:
    """Header "COUNT DIM", then COUNT "word v1 .. vDIM" rows, each parsed with
    float() and np.float32 on its own; the first bad line raises VectorFileError."""
    def decoded(fh):
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise VectorFileError(path, line_no, f"not UTF-8: {exc}") from None

    vectors: dict[str, np.ndarray] = {}
    n_rows = 0
    # over="raise": a value beyond float32's range raises FloatingPointError.
    with open(path, "rb") as fh, np.errstate(over="raise"):
        lines = decoded(fh)
        _, header = next(lines, (1, ""))
        parts = header.split()
        if len(parts) != 2:
            raise VectorFileError(path, 1, f"expected 'COUNT DIM' header, got {header.strip()!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise VectorFileError(path, 1,
                                  f"non-integer header fields: {header.strip()!r}") from None
        if count <= 0 or dim <= 0:
            raise VectorFileError(path, 1, f"COUNT and DIM must be positive, got {count} {dim}")
        for line_no, line in lines:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise VectorFileError(
                    path, line_no, f"expected 1 word + {dim} values, got {len(fields)} fields")
            if not fields[0]:
                raise VectorFileError(path, line_no, "empty word")
            if fields[0].split() != [fields[0]]:
                raise VectorFileError(path, line_no, "word holds whitespace")
            try:
                values = list(map(float, fields[1:]))
                vec = np.array(values, dtype=np.float32)
            except ValueError:
                raise VectorFileError(path, line_no, "non-numeric vector component") from None
            except FloatingPointError:
                raise VectorFileError(path, line_no, "vector component out of range") from None
            if not math.isfinite(sum(values)):      # a nan or inf component
                raise VectorFileError(path, line_no, "non-finite vector component")
            n_rows += 1
            vectors.setdefault(fields[0], vec)
    if n_rows != count:
        raise VectorFileError(path, 1, f"header says {count} rows, file has {n_rows}")
    return VectorTable(dim, vectors)


# ---------------------------------------------------------------------------
# tf-idf over raw string keys, or over their hash buckets one key at a time
#
# The arithmetic deliberately repeats the package's formulas step for step,
# including the float32 rounding of stored norms and the accumulation order
# (first occurrence of each key, then ascending passage id within a key).
# When no two distinct keys of a fixture share a hash bucket, scores from
# this class and from the hashed index are bit-identical.


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time."""
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def ngram_keys(tokens) -> list[str]:
    """Raw unigram and adjacent-bigram keys, before hashing."""
    keys = list(tokens)
    keys.extend(tokens[i] + BIGRAM_SEP + tokens[i + 1] for i in range(len(tokens) - 1))
    return keys


def bucket_collisions(token_lists, n_buckets: int) -> dict[int, set[str]]:
    """Buckets holding more than one distinct raw key across all token lists."""
    seen: dict[int, set[str]] = {}
    for tokens in token_lists:
        for key in ngram_keys(tokens):
            seen.setdefault(fnv1a_64(key.encode("utf-8")) % n_buckets, set()).add(key)
    return {b: ks for b, ks in seen.items() if len(ks) > 1}


class PlainTfIdf:
    """Keys are the raw strings, or with `n_buckets` their FNV-1a buckets."""

    def __init__(self, docs: dict[int, list[str]], n_buckets: int | None = None):
        self.n_docs = len(docs)
        self.n_buckets = n_buckets
        self.doc_counts: dict[int, Counter] = {}
        self.doc_freq: dict = {}
        for pid, tokens in docs.items():
            counts = Counter(self.keys(tokens))
            self.doc_counts[pid] = counts
            for key in counts:
                self.doc_freq[key] = self.doc_freq.get(key, 0) + 1
        self.postings: dict = {}    # key -> [(pid, tf)]
        self.norms: dict[int, float] = {}
        for pid, counts in self.doc_counts.items():
            sq = 0.0
            for key, tf in counts.items():
                self.postings.setdefault(key, []).append((pid, tf))
                sq += self.weight(tf, key) ** 2
            self.norms[pid] = float(np.float32(np.sqrt(sq)))
        for plist in self.postings.values():
            plist.sort()

    def keys(self, tokens) -> list:
        if self.n_buckets is None:
            return ngram_keys(tokens)
        return [fnv1a_64(key.encode("utf-8")) % self.n_buckets for key in ngram_keys(tokens)]

    def to_bytes(self) -> bytes:
        """The PQIX v1 file of a bucketed index, packed one record at a time."""
        buckets = sorted(self.postings)
        df = b"".join(struct.pack("<QI", b, len(self.postings[b])) for b in buckets)
        rows = b"".join(struct.pack("<QI", b, len(self.postings[b]))
                        + b"".join(struct.pack("<QI", pid, tf) for pid, tf in self.postings[b])
                        for b in buckets)
        norms = b"".join(struct.pack("<Qf", pid, self.norms[pid]) for pid in sorted(self.norms))
        out = struct.pack("<4sIQQ", b"PQIX", 1, self.n_buckets, self.n_docs)
        for count, records in ((len(buckets), df), (len(buckets), rows), (self.n_docs, norms)):
            out += struct.pack("<QQ", 8 + len(records), count) + records
        return out

    def idf(self, key: str) -> float:
        df = self.doc_freq.get(key, 0)
        return max(0.0, float(np.log((self.n_docs - df + 0.5) / (df + 0.5))))

    def weight(self, tf: int, key: str) -> float:
        return float(np.log1p(tf)) * self.idf(key)

    def top_k(self, tokens, k: int) -> list[tuple[int, float]]:
        counts = Counter(self.keys(tokens))
        weights = {key: self.weight(tf, key) for key, tf in counts.items()}
        qnorm = float(np.sqrt(sum(w * w for w in weights.values())))
        if qnorm == 0.0:
            return []
        dots: dict[int, float] = {}
        for key, qw in weights.items():
            if qw == 0.0:
                continue
            for pid, tf in self.postings.get(key, ()):
                dots[pid] = dots.get(pid, 0.0) + qw * self.weight(tf, key)
        scores = {}
        for pid, dot in dots.items():
            pnorm = self.norms[pid]
            if pnorm > 0.0 and dot != 0.0:
                scores[pid] = dot / (qnorm * pnorm)
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return ordered[:k]
