"""LSTM / highway layer tests against hand-rolled scalar references."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import passageqa.autodiff as ad
from passageqa.autodiff import constant, gradient_check, leaf
from passageqa.model import bilstm_encode, highway_forward, linear_seq, xavier_uniform

import oracles


def random_lstm(rng, in_dim, hidden):
    """(w_in, w_rec, bias) drawn the way the model initialises an LSTM."""
    w_in = xavier_uniform(rng, (in_dim, 4 * hidden), in_dim, 4 * hidden, np.float64)
    w_rec = xavier_uniform(rng, (hidden, 4 * hidden), hidden, 4 * hidden, np.float64)
    return w_in, w_rec, np.zeros(4 * hidden)


def unmasked(seq):
    """The all-real (B, T) mask of a (B, features, T) batch."""
    return np.ones((seq.shape[0], seq.shape[2]))


# ---------------------------------------------------------------------------
# both directions, step by step


def gate_row(hidden, input_, forget, cell, output):
    """A (4*hidden,) input projection with one value per gate block."""
    return np.repeat(np.array([input_, forget, cell, output], dtype=np.float64), hidden)


def scan_mirrored(proj):
    """bilstm_scan with zero w_rec and the backward projection time-reversed,
    so both halves of the output should show the same states, mirrored."""
    hidden = proj.shape[2] // 4
    zeros = constant(np.zeros((hidden, 4 * hidden)))
    out = ad.bilstm_scan([((constant(proj), constant(proj[:, ::-1].copy())),
                           np.ones(proj.shape[:2]))], (zeros, zeros))[0].value
    np.testing.assert_array_equal(out[:, hidden:, ::-1], out[:, :hidden])
    return out[:, :hidden]


def test_bilstm_scan_matches_scalar_steps():
    rng = np.random.default_rng(10)
    fwd = random_lstm(rng, 4, 3)[:2] + (rng.standard_normal(12),)
    bwd = random_lstm(rng, 4, 3)[:2] + (rng.standard_normal(12),)
    x = rng.standard_normal((2, 3, 4))
    out = ad.bilstm_scan([([constant(x @ w_in + bias) for w_in, _, bias in (fwd, bwd)],
                           np.ones((2, 3)))], (constant(fwd[1]), constant(bwd[1])))[0].value
    # C order like every other op's output, so downstream matmuls round alike
    assert out.flags.c_contiguous
    for row in range(2):
        columns = [list(x[row, t]) for t in range(3)]
        for half, lstm, reverse in ((slice(0, 3), fwd, False), (slice(3, 6), bwd, True)):
            ref = oracles.lstm_unroll(*lstm, columns, 3, reverse=reverse)
            for t in range(3):
                np.testing.assert_allclose(out[row, half, t], ref[t], rtol=1e-12)


@st.composite
def right_padded_scans(draw):
    """Shape, dtype, seed and a right-padded (B, T) mask: rows of full length
    mixed with shorter ones, empty rows included."""
    batch, steps = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    lengths = draw(st.lists(st.just(steps) | st.integers(0, steps - 1),
                            min_size=batch, max_size=batch))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    mask = (np.arange(steps) < np.array(lengths)[:, None]).astype(dtype)
    return draw(st.integers(1, 20)), dtype, draw(st.integers(0, 2**32 - 1)), mask


@settings(max_examples=60, deadline=None)
@given(right_padded_scans())
def test_bilstm_scan_matches_blended_reference(case):
    """Value and all four gradients equal the scan that carried its state
    across masked positions, byte for byte; at padding both outputs are zero."""
    hidden, dtype, seed, mask = case
    rng = np.random.default_rng(seed)
    batch, steps = mask.shape
    proj = [rng.standard_normal((batch, steps, 4 * hidden)).astype(dtype) for _ in range(2)]
    w_rec = [(rng.standard_normal((hidden, 4 * hidden)) * 0.5).astype(dtype) for _ in range(2)]
    grad = rng.standard_normal((batch, 2 * hidden, steps)).astype(dtype)
    leaves = [leaf(a, True) for a in proj + w_rec]
    out = ad.bilstm_scan([(leaves[:2], mask)], leaves[2:])[0]
    ad.backward(ad.reduce_sum(ad.mul(out, constant(grad))))
    value, grads = oracles.bilstm_scan_blended(proj, w_rec, mask, grad)
    # The sign of a zero at padding differs between the two, so compare real
    # positions by their bytes and padded ones by value.
    real = np.broadcast_to(mask[:, None, :] == 1, value.shape)
    assert out.value.dtype == dtype and out.value.flags.c_contiguous
    assert out.value[real].tobytes() == value[real].tobytes()
    assert not out.value[~real].any() and not value[~real].any()
    for node, expected in zip(leaves, grads):
        assert node.grad.tobytes() == expected.tobytes()


@st.composite
def scan_groups(draw):
    """Hidden size, dtype, seed and one right-padded (B_g, T_g) mask per group."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    masks = []
    for _ in range(draw(st.integers(1, 4))):
        batch, steps = draw(st.integers(1, 6)), draw(st.integers(1, 12))
        lengths = draw(st.lists(st.just(steps) | st.integers(0, steps - 1),
                                min_size=batch, max_size=batch))
        masks.append((np.arange(steps) < np.array(lengths)[:, None]).astype(dtype))
    return draw(st.integers(1, 20)), dtype, draw(st.integers(0, 2**32 - 1)), masks


def scan_with_grads(groups, w_rec, grads):
    """bilstm_scan over `groups` of (proj pair, mask), backpropagating `grads`
    (one per group); returns the outputs, each group's projection gradients
    and the two w_rec gradients."""
    proj_leaves = [[leaf(p, True) for p in proj] for proj, _ in groups]
    w_leaves = [leaf(w, True) for w in w_rec]
    outs = ad.bilstm_scan([(pair, mask) for pair, (_, mask) in zip(proj_leaves, groups)],
                          w_leaves)
    loss = None
    for out, grad in zip(outs, grads):
        term = ad.reduce_sum(ad.mul(out, constant(grad)))
        loss = term if loss is None else ad.add(loss, term)
    ad.backward(loss)
    return ([out.value for out in outs], [[n.grad for n in pair] for pair in proj_leaves],
            [n.grad for n in w_leaves])


@settings(max_examples=60, deadline=None)
@given(scan_groups())
def test_grouped_bilstm_scan_equals_one_call_per_group(case):
    """Values and all four gradients equal those of one call per group, byte for
    byte; each w_rec gradient is the per-call ones summed in group order.  A
    one-row group sharing steps with others may move by an ulp (single-row
    products take another BLAS path), so then only closeness is checked."""
    hidden, dtype, seed, masks = case
    rng = np.random.default_rng(seed)
    groups = [([rng.standard_normal(m.shape + (4 * hidden,)).astype(dtype) for _ in range(2)], m)
              for m in masks]
    w_rec = [(rng.standard_normal((hidden, 4 * hidden)) * 0.5).astype(dtype) for _ in range(2)]
    grads = [rng.standard_normal((len(m), 2 * hidden, m.shape[1])).astype(dtype) for m in masks]
    values, proj_grads, w_grads = scan_with_grads(groups, w_rec, grads)
    alone = [scan_with_grads([group], w_rec, [grad]) for group, grad in zip(groups, grads)]
    want_values = [a[0][0] for a in alone]
    want_proj = [a[1][0] for a in alone]
    want_w = [functools.reduce(np.add, (a[2][k] for a in alone)) for k in range(2)]
    got = values + [g for pair in proj_grads for g in pair] + w_grads
    want = want_values + [g for pair in want_proj for g in pair] + want_w
    assert all(v.flags.c_contiguous and v.dtype == dtype for v in values)
    if len(masks) > 1 and any(len(m) == 1 for m in masks):
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-4 if dtype == np.float32 else 1e-10,
                                       atol=1e-5 if dtype == np.float32 else 1e-12)
    else:
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mask", [[[1, 1, 0], [1, 0, 1]], [[1, 1, 1], [1, 0.5, 0]],
                                  [[0, 1, 1], [1, 1, 1]], [[1, 1, 2], [1, 1, 1]]])
def test_bilstm_scan_rejects_mask_not_right_padded(mask):
    proj, w_rec = constant(np.ones((2, 3, 8))), constant(np.ones((2, 8)))
    with pytest.raises(ValueError, match="bilstm_scan: mask"):
        ad.bilstm_scan([((proj, proj), np.array(mask, dtype=np.float64))], (w_rec, w_rec))


def test_saturated_forget_gate_copies_cell_state():
    hidden = 3
    # step 0 writes tanh(cell) into c; step 1 shuts the input gate and opens
    # the forget gate with a candidate of tanh(0) = 0, so c passes through
    # untouched.  The output gate is 1.0 exactly, so h = tanh(c) shows c.
    proj = np.stack([gate_row(hidden, 50.0, -50.0, 0.0, 50.0),
                     gate_row(hidden, -50.0, 50.0, 0.0, 50.0)])[None]
    proj[0, 0, 2 * hidden:3 * hidden] = [0.3, -1.2, 2.0]
    out = scan_mirrored(proj)
    np.testing.assert_allclose(out[0, :, 0], np.tanh(np.tanh([0.3, -1.2, 2.0])), rtol=1e-15)
    np.testing.assert_array_equal(out[0, :, 1], out[0, :, 0])


def test_saturated_input_gate_overwrites_cell_state():
    hidden = 2
    # step 0 leaves tanh(3) in c; step 1 shuts the forget gate and opens the
    # input gate, so c becomes its candidate tanh(1) whatever it held.
    proj = np.stack([gate_row(hidden, 50.0, -50.0, 3.0, 50.0),
                     gate_row(hidden, 50.0, -50.0, 1.0, 50.0)])[None]
    out = scan_mirrored(proj)
    np.testing.assert_allclose(out[0, :, 1], np.tanh(np.tanh(1.0)), atol=1e-15)


# ---------------------------------------------------------------------------
# sequence encoding


def test_bilstm_matches_naive_unroll():
    rng = np.random.default_rng(11)
    fwd = random_lstm(rng, 3, 2)
    bwd = random_lstm(rng, 3, 2)
    seq = rng.standard_normal((1, 3, 4))
    enc = bilstm_encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0]
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
    enc = bilstm_encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0].value
    flipped = bilstm_encode(bwd, fwd, [constant(seq[:, :, ::-1].copy())], [unmasked(seq)])[0].value
    np.testing.assert_allclose(flipped[:, 2:, ::-1], enc[:, :2, :], atol=1e-12)
    np.testing.assert_allclose(flipped[:, :2, ::-1], enc[:, 2:, :], atol=1e-12)


def test_bilstm_single_step_sequence():
    rng = np.random.default_rng(13)
    fwd = random_lstm(rng, 2, 2)
    bwd = random_lstm(rng, 2, 2)
    seq = rng.standard_normal((1, 2, 1))
    enc = bilstm_encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0]
    assert enc.value.shape == (1, 4, 1)


def test_bilstm_rejects_empty_sequence():
    rng = np.random.default_rng(14)
    p = random_lstm(rng, 2, 2)
    with pytest.raises(ValueError, match="empty"):
        bilstm_encode(p, p, [constant(np.zeros((1, 2, 0)))], [np.ones((1, 0))])[0]


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

    joint = bilstm_encode(fwd, bwd, [constant(padded)], [mask])[0].value
    solo_long = bilstm_encode(fwd, bwd, [constant(long_seq[None])], [np.ones((1, 5))])[0].value
    solo_short = bilstm_encode(fwd, bwd, [constant(short_seq[None])], [np.ones((1, 3))])[0].value

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
        out = bilstm_encode(lp, lp, [constant(xs)], [mask])[0]
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

