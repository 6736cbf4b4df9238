"""LSTM / highway layer tests against hand-rolled scalar references."""
import numpy as np
import pytest

import passageqa.autodiff as ad
from passageqa.autodiff import constant, gradient_check, leaf
from passageqa.layers import (bilstm_encode, highway_forward, linear_seq, lstm_step,
                              xavier_uniform)

import oracles


def random_lstm(rng, in_dim, hidden):
    """(w_in, w_rec, bias) drawn the way the model initialises an LSTM."""
    w_in = xavier_uniform(rng, (in_dim, 4 * hidden), in_dim, 4 * hidden, np.float64)
    w_rec = xavier_uniform(rng, (hidden, 4 * hidden), hidden, 4 * hidden, np.float64)
    return w_in, w_rec, np.zeros(4 * hidden)


# ---------------------------------------------------------------------------
# single step


def test_lstm_step_matches_scalar_reference():
    rng = np.random.default_rng(10)
    p = random_lstm(rng, 4, 3)
    x = rng.standard_normal((2, 4))
    h0 = rng.standard_normal((2, 3))
    c0 = rng.standard_normal((2, 3))
    h, c = lstm_step(p, constant(x), constant(h0), constant(c0), 3)
    for row in range(2):
        h_ref, c_ref = oracles.lstm_step(*p, list(x[row]), list(h0[row]),
                                         list(c0[row]))
        np.testing.assert_allclose(h.value[row], h_ref, rtol=1e-12)
        np.testing.assert_allclose(c.value[row], c_ref, rtol=1e-12)


def test_saturated_forget_gate_copies_cell_state():
    hidden = 3
    bias = np.zeros(4 * hidden)
    bias[0:hidden] = -50.0        # input gate shut
    bias[hidden:2 * hidden] = 50.0  # forget gate open
    p = (np.zeros((2, 4 * hidden)), np.zeros((hidden, 4 * hidden)), bias)
    c0 = np.array([[0.3, -1.2, 2.0]])
    x = np.ones((1, 2))
    h, c = lstm_step(p, constant(x), constant(np.zeros((1, hidden))), constant(c0), hidden)
    # candidate is tanh(0) = 0 exactly, so the cell state passes through untouched
    np.testing.assert_array_equal(c.value, c0)


def test_saturated_input_gate_overwrites_cell_state():
    hidden = 2
    bias = np.zeros(4 * hidden)
    bias[0:hidden] = 50.0           # input gate open
    bias[hidden:2 * hidden] = -50.0  # forget gate shut
    bias[2 * hidden:3 * hidden] = 1.0
    p = (np.zeros((2, 4 * hidden)), np.zeros((hidden, 4 * hidden)), bias)
    c0 = np.full((1, hidden), 7.0)
    _, c = lstm_step(p, constant(np.zeros((1, 2))),
                     constant(np.zeros((1, hidden))), constant(c0), hidden)
    np.testing.assert_allclose(c.value, np.tanh(1.0), atol=1e-15)


# ---------------------------------------------------------------------------
# sequence encoding


def test_bilstm_matches_naive_unroll():
    rng = np.random.default_rng(11)
    fwd = random_lstm(rng, 3, 2)
    bwd = random_lstm(rng, 3, 2)
    seq = rng.standard_normal((1, 3, 4))
    enc = bilstm_encode(fwd, bwd, constant(seq), None, 2)
    assert enc.value.shape == (1, 4, 4)
    columns = [list(seq[0, :, t]) for t in range(4)]
    ref = oracles.bilstm(fwd, bwd, columns, 2)
    for t in range(4):
        np.testing.assert_allclose(enc.value[0, :, t], ref[t], rtol=1e-10)


def test_bilstm_direction_swap_mirrors_reversed_input():
    rng = np.random.default_rng(12)
    fwd = random_lstm(rng, 3, 2)
    bwd = random_lstm(rng, 3, 2)
    seq = rng.standard_normal((2, 3, 5))
    enc = bilstm_encode(fwd, bwd, constant(seq), None, 2).value
    flipped = bilstm_encode(bwd, fwd, constant(seq[:, :, ::-1].copy()), None, 2).value
    np.testing.assert_allclose(flipped[:, 2:, ::-1], enc[:, :2, :], atol=1e-12)
    np.testing.assert_allclose(flipped[:, :2, ::-1], enc[:, 2:, :], atol=1e-12)


def test_bilstm_single_step_sequence():
    rng = np.random.default_rng(13)
    fwd = random_lstm(rng, 2, 2)
    bwd = random_lstm(rng, 2, 2)
    enc = bilstm_encode(fwd, bwd, constant(rng.standard_normal((1, 2, 1))), None, 2)
    assert enc.value.shape == (1, 4, 1)


def test_bilstm_rejects_empty_sequence():
    rng = np.random.default_rng(14)
    p = random_lstm(rng, 2, 2)
    with pytest.raises(ValueError, match="empty"):
        bilstm_encode(p, p, constant(np.zeros((1, 2, 0))), None, 2)


def test_padded_batch_equals_individual_encoding():
    """Masked positions must not leak into real ones, in either direction."""
    rng = np.random.default_rng(15)
    fwd = random_lstm(rng, 3, 2)
    bwd = random_lstm(rng, 3, 2)
    long_seq = rng.standard_normal((3, 5))
    short_seq = rng.standard_normal((3, 3))

    padded = np.zeros((2, 3, 5))
    padded[0] = long_seq
    padded[1, :, :3] = short_seq
    # garbage in the padding: results must be unaffected by it
    padded[1, :, 3:] = 1e6
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)

    joint = bilstm_encode(fwd, bwd, constant(padded), mask, 2).value
    solo_long = bilstm_encode(fwd, bwd, constant(long_seq[None]), None, 2).value
    solo_short = bilstm_encode(fwd, bwd, constant(short_seq[None]), None, 2).value

    np.testing.assert_allclose(joint[0], solo_long[0], atol=1e-12)
    np.testing.assert_allclose(joint[1, :, :3], solo_short[0], atol=1e-12)
    np.testing.assert_array_equal(joint[1, :, 3:], np.zeros((4, 2)))


def test_bilstm_gradients_with_ragged_mask():
    rng = np.random.default_rng(16)
    p = random_lstm(rng, 2, 2)
    xs = rng.standard_normal((2, 2, 4))
    mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
    arrays = dict(zip(("w_in", "w_rec", "bias"), p))

    def build():
        leaves = {k: leaf(v, True) for k, v in arrays.items()}
        lp = (leaves["w_in"], leaves["w_rec"], leaves["bias"])
        out = bilstm_encode(lp, lp, constant(xs), mask, 2)
        return ad.reduce_sum(ad.mul(out, out)), leaves

    assert gradient_check(build, arrays) < 1e-6


# ---------------------------------------------------------------------------
# feed-forward pieces


def test_linear_seq_frozen():
    weight = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    bias = np.array([[1.0], [0.0], [0.0]])
    col = constant(np.array([[2.0], [3.0]])[None].reshape(1, 2, 1))
    out = linear_seq(weight, bias, col)
    np.testing.assert_array_equal(out.value[0, :, 0], [3.0, 6.0, 5.0])


def test_highway_matches_scalar_reference():
    rng = np.random.default_rng(17)
    layers = [(xavier_uniform(rng, (5, 5), 5, 5, np.float64), np.zeros((5, 1)),
               xavier_uniform(rng, (5, 5), 5, 5, np.float64), np.zeros((5, 1)))
              for _ in range(2)]
    cols = rng.standard_normal((1, 5, 3))
    out = highway_forward(layers, constant(cols))
    for t in range(3):
        ref = oracles.highway(layers, list(cols[0, :, t]))
        np.testing.assert_allclose(out.value[0, :, t], ref, rtol=1e-10)


def test_highway_open_gate_is_pure_transform():
    dim = 3
    layer = (np.eye(dim) * 2.0, np.zeros((dim, 1)),
             np.zeros((dim, dim)), np.full((dim, 1), 50.0))
    x = np.array([[1.0], [2.0], [-3.0]]).reshape(1, 3, 1)
    out = highway_forward([layer], constant(x))
    np.testing.assert_allclose(out.value, np.maximum(2.0 * x, 0.0), atol=1e-15)


def test_highway_closed_gate_is_identity():
    dim = 3
    layer = (np.eye(dim) * 9.0, np.ones((dim, 1)),
             np.zeros((dim, dim)), np.full((dim, 1), -50.0))
    x = np.array([[1.0], [2.0], [-3.0]]).reshape(1, 3, 1)
    out = highway_forward([layer], constant(x))
    np.testing.assert_allclose(out.value, x, atol=1e-15)


# ---------------------------------------------------------------------------
# initialization


def test_xavier_uniform_bounds():
    rng = np.random.default_rng(18)
    w = xavier_uniform(rng, (50, 40), fan_in=40, fan_out=50, dtype=np.float64)
    limit = np.sqrt(6.0 / 90.0)
    assert np.all(np.abs(w) <= limit)
    assert np.abs(w).max() > 0.5 * limit  # actually spread out, not degenerate

