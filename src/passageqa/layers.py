"""Sequence encoder layers built on the autodiff graph.

Shape conventions:
  - a batch of sequences is (batch, features, time), mirroring the
    per-example column layout (features x time)
  - sequence masks are plain float arrays of shape (batch, time) with 1.0
    at real tokens and 0.0 at padding; they are constants, never learned

Layer functions take weights directly: arrays for inference, graph leaves
for training.  An LSTM is a (w_in, w_rec, bias) triple with gate columns
stacked as [input, forget, cell, output] blocks: w_in (in_dim, 4*hidden),
w_rec (hidden, 4*hidden), bias (4*hidden,).  The model's parameter names
and shapes are listed once, in `model.param_shapes`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Node


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def bilstm_encode(fwd: tuple, bwd: tuple, seq: Node,
                  mask: np.ndarray | None) -> Node:
    """Bidirectional encoding of (batch, in_dim, time) -> (batch, 2*hidden, time).

    The forward and backward passes run independently; their outputs are
    concatenated along the feature axis.  Output columns at padded positions
    are exactly zero.
    """
    batch, _, steps_n = seq.value.shape
    if steps_n == 0:
        raise ValueError("cannot encode an empty sequence")
    if mask is None:
        mask = np.ones((batch, steps_n), dtype=seq.value.dtype)
    # Project all timesteps through w_in at once; the recurrence only needs
    # the per-step (batch, 4*hidden) rows.
    seq_rows = ad.transpose(seq, (0, 2, 1))
    outputs = []
    for (w_in, w_rec, bias), reverse in ((fwd, False), (bwd, True)):
        proj = ad.add(ad.matmul(seq_rows, w_in), bias)
        outputs.append(ad.lstm_scan(proj, w_rec, mask, reverse))
    return ad.concat(outputs, axis=1)


def linear_seq(weight, bias, seq: Node) -> Node:
    """Apply (out, in) weight + (out, 1) bias along the feature axis of (B, in, T)."""
    return ad.add(ad.matmul(weight, seq), bias)


def highway_forward(layers: Sequence[tuple], seq: Node, dropout_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    train: bool = False) -> Node:
    """Highway network over (B, dim, T); gate mixes transform with identity.

    Each layer is (transform weight, transform bias, gate weight, gate bias).
    """
    out = seq
    for transform_w, transform_b, gate_w, gate_b in layers:
        out = ad.dropout(out, dropout_rate, rng, train)
        transformed = ad.relu(linear_seq(transform_w, transform_b, out))
        gate = ad.sigmoid(linear_seq(gate_w, gate_b, out))
        carry = ad.sub(1.0, gate)
        out = ad.add(ad.mul(gate, transformed), ad.mul(carry, out))
    return out
