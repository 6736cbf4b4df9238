"""Reference implementations used only by tests.

Everything here is written the slow, obvious way: python loops, the math
module, string-keyed dictionaries.  None of it touches the autodiff graph or
the inverted index, so a disagreement between these and the package points
at the package (or at a genuinely different reading of the math, which is
worth knowing too).
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from passageqa.retriever import BIGRAM_SEP, fnv1a_64


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
# tf-idf over raw string keys (no hashing)
#
# The arithmetic deliberately repeats the package's formulas step for step,
# including the float32 rounding of stored norms and the accumulation order
# (first occurrence of each key, then ascending passage id within a key).
# When no two distinct keys of a fixture share a hash bucket, scores from
# this class and from the hashed index are bit-identical.


def string_keys(tokens) -> list[str]:
    keys = list(tokens)
    keys.extend(tokens[i] + BIGRAM_SEP + tokens[i + 1] for i in range(len(tokens) - 1))
    return keys


def bucket_collisions(token_lists, n_buckets: int) -> dict[int, set[str]]:
    """Buckets holding more than one distinct raw key across all token lists."""
    seen: dict[int, set[str]] = {}
    for tokens in token_lists:
        for key in string_keys(tokens):
            seen.setdefault(fnv1a_64(key.encode("utf-8")) % n_buckets, set()).add(key)
    return {b: ks for b, ks in seen.items() if len(ks) > 1}


class PlainTfIdf:
    def __init__(self, docs: dict[int, list[str]]):
        self.n_docs = len(docs)
        self.doc_counts: dict[int, Counter[str]] = {}
        self.doc_freq: dict[str, int] = {}
        for pid, tokens in docs.items():
            counts = Counter(string_keys(tokens))
            self.doc_counts[pid] = counts
            for key in counts:
                self.doc_freq[key] = self.doc_freq.get(key, 0) + 1
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.norms: dict[int, float] = {}
        for pid, counts in self.doc_counts.items():
            sq = 0.0
            for key, tf in counts.items():
                self.postings.setdefault(key, []).append((pid, tf))
                sq += self.weight(tf, key) ** 2
            self.norms[pid] = float(np.float32(np.sqrt(sq)))
        for plist in self.postings.values():
            plist.sort()

    def idf(self, key: str) -> float:
        df = self.doc_freq.get(key, 0)
        return max(0.0, float(np.log((self.n_docs - df + 0.5) / (df + 0.5))))

    def weight(self, tf: int, key: str) -> float:
        return float(np.log1p(tf)) * self.idf(key)

    def top_k(self, tokens, k: int) -> list[tuple[int, float]]:
        counts = Counter(string_keys(tokens))
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
