"""LSTM / highway layer tests against hand-rolled scalar references."""

from unittest import mock

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


def encode(fwd, bwd, seqs, masks):
    """`bilstm_encode` over the (w_in, w_rec, bias) triples `fwd` and `bwd`."""
    w = {f"lstm_{d}.{part}": value for d, p in (("fwd", fwd), ("bwd", bwd))
         for part, value in zip(("w_in", "w_rec", "bias"), p)}
    return bilstm_encode(w, "lstm", seqs, masks)


def unmasked(seq):
    """The all-real (B, T) mask of a (B, features, T) batch."""
    return np.ones((seq.shape[0], seq.shape[2]))


# ---------------------------------------------------------------------------
# both directions, step by step


def gate_row(hidden, input_, forget, cell, output):
    """A (4*hidden,) input projection with one value per gate block."""
    return np.repeat(np.array([input_, forget, cell, output], dtype=np.float64), hidden)


def projection_inputs(proj_fwd, proj_bwd):
    """A (B, 8h, T) input and the (w_in, bias) pairs under which bilstm_scan's
    input projections are exactly `proj_fwd` and `proj_bwd` (B, T, 4h): the
    input stacks both along its features, each w_in picks its half with an
    identity block, and the biases are zero.  Every product term is x * 1 or
    x * 0, so the input's gradient is the two projection gradients, stacked
    the same way, with their bits."""
    four_h, dtype = proj_fwd.shape[2], proj_fwd.dtype
    seq = np.ascontiguousarray(np.concatenate([proj_fwd, proj_bwd], axis=2).transpose(0, 2, 1))
    w_in = (np.eye(2 * four_h, four_h, dtype=dtype), np.eye(2 * four_h, four_h, -four_h, dtype))
    return seq, w_in, (np.zeros(four_h, dtype), np.zeros(four_h, dtype))


def scan_mirrored(proj):
    """bilstm_scan with zero w_rec and the backward projection time-reversed,
    so both halves of the output should show the same states, mirrored."""
    hidden = proj.shape[2] // 4
    zeros = constant(np.zeros((hidden, 4 * hidden)))
    seq, w_in, bias = projection_inputs(proj, proj[:, ::-1])
    out = ad.bilstm_scan([(constant(seq), np.ones(proj.shape[:2]))], w_in, bias,
                         (zeros, zeros))[0].value
    np.testing.assert_array_equal(out[:, hidden:, ::-1], out[:, :hidden])
    return out[:, :hidden]


def test_bilstm_scan_matches_scalar_steps():
    rng = np.random.default_rng(10)
    fwd = random_lstm(rng, 4, 3)[:2] + (rng.standard_normal(12),)
    bwd = random_lstm(rng, 4, 3)[:2] + (rng.standard_normal(12),)
    x = rng.standard_normal((2, 3, 4))
    w_in, w_rec, bias = zip(fwd, bwd)
    out = ad.bilstm_scan([(constant(x.transpose(0, 2, 1)), np.ones((2, 3)))],
                         w_in, bias, w_rec)[0].value
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
    across masked positions, byte for byte; at padding both outputs are zero.
    The projections come in through `projection_inputs`, so the input's
    gradient holds both projection gradients."""
    hidden, dtype, seed, mask = case
    rng = np.random.default_rng(seed)
    batch, steps = mask.shape
    proj = [rng.standard_normal((batch, steps, 4 * hidden)).astype(dtype) for _ in range(2)]
    w_rec = [(rng.standard_normal((hidden, 4 * hidden)) * 0.5).astype(dtype) for _ in range(2)]
    grad = rng.standard_normal((batch, 2 * hidden, steps)).astype(dtype)
    seq, w_in, bias = projection_inputs(*proj)
    leaves = [leaf(a, True) for a in [seq] + w_rec]
    out = ad.bilstm_scan([(leaves[0], mask)], w_in, bias, leaves[1:])[0]
    ad.backward(ad.reduce_sum(ad.mul(out, constant(grad))))
    value, grads = oracles.bilstm_scan_blended(proj, w_rec, mask, grad)
    halves = [leaves[0].grad[:, k * 4 * hidden:(k + 1) * 4 * hidden].transpose(0, 2, 1)
              for k in range(2)]
    # The sign of a zero at padding differs between the two, so compare real
    # positions by their bytes and padded ones by value.
    real = np.broadcast_to(mask[:, None, :] == 1, value.shape)
    assert out.value.dtype == dtype and out.value.flags.c_contiguous
    assert out.value[real].tobytes() == value[real].tobytes()
    assert not out.value[~real].any() and not value[~real].any()
    for got, expected in zip(halves + [node.grad for node in leaves[1:]], grads):
        assert got.tobytes() == expected.tobytes()


def summed_in_stack_order(xs, ys):
    """The sum over k of xs[k] @ ys[k], added up one product at a time."""
    total = xs[0] @ ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x @ y
    return total


@settings(max_examples=80, deadline=None)
@given(right_padded_scans(), st.integers(1, 9))
def test_bilstm_scan_matches_unfused_reference(case, in_dim):
    """The value and all seven gradients (the input's, and w_in, bias and
    w_rec of each direction) equal the unfused graph's: numpy projections
    over the padded rows fed to the blended scan, and the gradient products
    over the padded rows, which the fused scan forms over the real tokens
    only.  The value, the bias and w_rec gradients and, from two input
    features on, the w_in ones are equal byte for byte.  The input gradient
    is held to closeness: OpenBLAS picks its kernel by a product's shape,
    and at these small widths the N real rows in one product may round
    otherwise than T rows per batch row (the paper-width shapes are pinned
    byte for byte by test_real_token_products_keep_their_bits).  With one
    input feature the w_in gradient is a gemv, also held to closeness."""
    hidden, dtype, seed, mask = case
    rng = np.random.default_rng(seed)
    batch, steps = mask.shape
    seq = rng.standard_normal((batch, in_dim, steps)).astype(dtype)
    w_in = [rng.standard_normal((in_dim, 4 * hidden)).astype(dtype) for _ in range(2)]
    bias = [rng.standard_normal(4 * hidden).astype(dtype) for _ in range(2)]
    w_rec = [(rng.standard_normal((hidden, 4 * hidden)) * 0.5).astype(dtype) for _ in range(2)]
    grad = rng.standard_normal((batch, 2 * hidden, steps)).astype(dtype)
    leaves = [leaf(a, True) for a in [seq] + w_in + bias + w_rec]
    out = ad.bilstm_scan([(leaves[0], mask)], leaves[1:3], leaves[3:5], leaves[5:])[0]
    ad.backward(ad.reduce_sum(ad.mul(out, constant(grad))))

    rows = seq.transpose(0, 2, 1)
    proj = [rows @ w + b for w, b in zip(w_in, bias)]
    value, (d_fwd, d_bwd, *d_rec) = oracles.bilstm_scan_blended(proj, w_rec, mask, grad)
    # The unfused graph met both directions in the input's transpose node,
    # backward first, and summed each weight gradient over the stack.
    d_rows = np.zeros_like(rows) + d_bwd @ w_in[1].T
    d_rows += d_fwd @ w_in[0].T
    expected = [np.ascontiguousarray(d_rows.transpose(0, 2, 1))]
    d_proj = (d_fwd, d_bwd)
    expected += [np.zeros_like(w) + summed_in_stack_order(seq, d) for w, d in zip(w_in, d_proj)]
    expected += [np.zeros_like(b) + d.sum(axis=(0, 1)) for b, d in zip(bias, d_proj)]
    expected += d_rec

    real = np.broadcast_to(mask[:, None, :] == 1, value.shape)
    assert out.value.dtype == dtype and out.value.flags.c_contiguous
    assert out.value[real].tobytes() == value[real].tobytes()
    assert not out.value[~real].any()
    close = [0, 1, 2] if in_dim == 1 else [0]
    for k, (node, want) in enumerate(zip(leaves, expected)):
        assert node.grad.dtype == want.dtype
        if k in close:
            np.testing.assert_allclose(node.grad, want,
                                       rtol=1e-4 if dtype == np.float32 else 1e-11,
                                       atol=1e-5 if dtype == np.float32 else 1e-13)
        else:
            assert node.grad.tobytes() == want.tobytes()


# Bit patterns of a signaling NaN: any arithmetic that reads one raises under
# np.errstate(invalid="raise"), where a quiet NaN would pass on silently.
SIGNALING_NAN = {np.dtype(np.float32): (np.uint32, 0x7FA00000),
                 np.dtype(np.float64): (np.uint64, 0x7FF4000000000000)}


def signaling_nans(make):
    """np.empty or np.empty_like whose floating arrays come filled with
    signaling NaNs in place of whatever the allocator left there."""
    def poisoned(*args, **kwargs):
        out = make(*args, **kwargs)
        if out.dtype in SIGNALING_NAN:
            view, bits = SIGNALING_NAN[out.dtype]
            out.view(view).fill(bits)
        return out
    return poisoned


@settings(max_examples=60, deadline=None)
@given(right_padded_scans(), st.integers(1, 5))
def test_bilstm_scan_reads_no_unwritten_buffer(case, in_dim):
    """Forward and backward on finite inputs raise no floating-point error,
    also when every array the scan leaves unwritten holds signaling NaNs,
    and give the same bytes either way; a second, shorter group runs the
    gradient-free scan's row-prefix segments."""
    hidden, dtype, seed, mask = case
    rng = np.random.default_rng(seed)
    batch, steps = mask.shape
    arrays = [rng.standard_normal((batch, in_dim, steps)),
              *(rng.standard_normal((in_dim, 4 * hidden)) for _ in range(2)),
              *(rng.standard_normal(4 * hidden) for _ in range(2)),
              *(rng.standard_normal((hidden, 4 * hidden)) * 0.5 for _ in range(2))]
    seq, *weights = [a.astype(dtype) for a in arrays]
    grad = rng.standard_normal((batch, 2 * hidden, steps)).astype(dtype)
    short = max(1, steps // 2)

    def run():
        leaves = [leaf(a, True) for a in [seq] + weights]
        out = ad.bilstm_scan([(leaves[0], mask)], leaves[1:3], leaves[3:5], leaves[5:])[0]
        ad.backward(ad.reduce_sum(ad.mul(out, constant(grad))))
        with ad.no_grad():
            waves = ad.bilstm_scan([(seq[:1, :, :short], mask[:1, :short]), (seq, mask)],
                                   weights[0:2], weights[2:4], weights[4:])
        return [out.value] + [node.grad for node in leaves] + [node.value for node in waves]

    with np.errstate(all="raise"):
        clean = run()
        with mock.patch.object(np, "empty", signaling_nans(np.empty)), \
                mock.patch.object(np, "empty_like", signaling_nans(np.empty_like)):
            poisoned = run()
    for got, want in zip(poisoned, clean):
        assert np.isfinite(want).all()
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("in_dim", [1400, 800, 300, 200])
def test_real_token_products_keep_their_bits(in_dim):
    """bilstm_scan forms the input and w_in gradients over real tokens only,
    and keeps the padded graph's bits because OpenBLAS gives those products
    the same bits over fewer rows at the model's paper widths: the end,
    fusion, ctx and start LSTM inputs, 8 passages of 66-154 tokens, hidden
    100, float32.  A numpy or OpenBLAS change that breaks this shows here,
    by product, before any digest moves."""
    from conftest import pytest_report_header
    rng = np.random.default_rng(in_dim)
    lengths = np.array([154, 66, 120, 98, 154, 77, 140, 103])
    real = np.arange(154) < lengths[:, None]
    seq = rng.standard_normal((8, in_dim, 154)).astype(np.float32)
    grads = rng.standard_normal((8, 154, 400)).astype(np.float32) * real[..., None]
    w_in = rng.standard_normal((in_dim, 400)).astype(np.float32)
    rows = grads[real]
    ends = np.cumsum(lengths)
    products = {
        "input gradient rows @ w_in.T": ((grads @ w_in.T)[real], rows @ w_in.T),
        "w_in gradient summed per row": (
            summed_in_stack_order(seq, grads),
            summed_in_stack_order([seq[k, :, :n] for k, n in enumerate(lengths)],
                                  np.split(rows, ends[:-1]))),
    }
    for name, (padded, real_only) in products.items():
        assert padded.tobytes() == real_only.tobytes(), (
            f"{name} at in_dim {in_dim}: over real tokens it differs from the padded "
            f"product; {pytest_report_header(None)}")


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


@settings(max_examples=60, deadline=None)
@given(scan_groups())
def test_grouped_bilstm_scan_equals_one_call_per_group(case):
    """Run without gradients, as the scorer's waves run, each group's states
    equal those of a call of its own, byte for byte.  A one-row group sharing
    steps with others may move by an ulp (single-row products take another
    BLAS path), so then only closeness is checked."""
    hidden, dtype, seed, masks = case
    rng = np.random.default_rng(seed)
    inputs = [projection_inputs(*(rng.standard_normal(m.shape + (4 * hidden,)).astype(dtype)
                                  for _ in range(2))) for m in masks]
    groups = [(seq, m) for (seq, _, _), m in zip(inputs, masks)]
    w_in, bias = inputs[0][1:]
    w_rec = [(rng.standard_normal((hidden, 4 * hidden)) * 0.5).astype(dtype) for _ in range(2)]
    values = [out.value for out in ad.bilstm_scan(groups, w_in, bias, w_rec)]
    want = [ad.bilstm_scan([group], w_in, bias, w_rec)[0].value for group in groups]
    assert all(v.flags.c_contiguous and v.dtype == dtype for v in values)
    if len(masks) > 1 and any(len(m) == 1 for m in masks):
        for a, b in zip(values, want):
            np.testing.assert_allclose(a, b, rtol=1e-4 if dtype == np.float32 else 1e-10,
                                       atol=1e-5 if dtype == np.float32 else 1e-12)
    else:
        for a, b in zip(values, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("learned", ["proj", "w_rec"])
def test_grouped_bilstm_scan_refuses_gradients(learned):
    """Gradients flow through one group: two groups with an input that needs
    a gradient (the sequence the projections come from, or w_rec) raise
    ValueError, and run under no_grad."""
    seq = leaf(np.ones((2, 8, 3)), learned == "proj")
    w_rec = leaf(np.ones((2, 8)), learned == "w_rec")
    weights = ((np.eye(8),) * 2, (np.zeros(8),) * 2, (w_rec, w_rec))
    groups = [(seq, np.ones((2, 3))), (seq, np.ones((2, 3)))]
    with pytest.raises(ValueError, match="bilstm_scan: gradients flow through one group"):
        ad.bilstm_scan(groups, *weights)
    assert len(ad.bilstm_scan(groups[:1], *weights)) == 1
    with ad.no_grad():
        assert len(ad.bilstm_scan(groups, *weights)) == 2


@pytest.mark.parametrize("mask", [[[1, 1, 0], [1, 0, 1]], [[1, 1, 1], [1, 0.5, 0]],
                                  [[0, 1, 1], [1, 1, 1]], [[1, 1, 2], [1, 1, 1]]])
def test_bilstm_scan_rejects_mask_not_right_padded(mask):
    seq, w_rec = constant(np.ones((2, 8, 3))), constant(np.ones((2, 8)))
    with pytest.raises(ValueError, match="bilstm_scan: mask"):
        ad.bilstm_scan([(seq, np.array(mask, dtype=np.float64))], (np.eye(8),) * 2,
                       (np.zeros(8),) * 2, (w_rec, w_rec))


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
    enc = encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0]
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
    enc = encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0].value
    flipped = encode(bwd, fwd, [constant(seq[:, :, ::-1].copy())], [unmasked(seq)])[0].value
    np.testing.assert_allclose(flipped[:, 2:, ::-1], enc[:, :2, :], atol=1e-12)
    np.testing.assert_allclose(flipped[:, :2, ::-1], enc[:, 2:, :], atol=1e-12)


def test_bilstm_single_step_sequence():
    rng = np.random.default_rng(13)
    fwd = random_lstm(rng, 2, 2)
    bwd = random_lstm(rng, 2, 2)
    seq = rng.standard_normal((1, 2, 1))
    enc = encode(fwd, bwd, [constant(seq)], [unmasked(seq)])[0]
    assert enc.value.shape == (1, 4, 1)


def test_bilstm_rejects_empty_sequence():
    rng = np.random.default_rng(14)
    p = random_lstm(rng, 2, 2)
    with pytest.raises(ValueError, match="empty"):
        encode(p, p, [constant(np.zeros((1, 2, 0)))], [np.ones((1, 0))])[0]


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

    joint = encode(fwd, bwd, [constant(padded)], [mask])[0].value
    solo_long = encode(fwd, bwd, [constant(long_seq[None])], [np.ones((1, 5))])[0].value
    solo_short = encode(fwd, bwd, [constant(short_seq[None])], [np.ones((1, 3))])[0].value

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
        out = encode(lp, lp, [constant(xs)], [mask])[0]
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

