"""Graph engine tests: frozen values, gradient checks, masking, errors."""
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import passageqa.autodiff as ad
from passageqa.autodiff import (ShapeMismatchError, backward, constant,
                                gradient_check, leaf, no_grad)

import oracles


def fd(arrays, build_loss, tol=1e-6, step=1e-5):
    """Finite-difference sweep over float64 arrays; asserts the worst error."""
    def build():
        leaves = {k: leaf(v, True) for k, v in arrays.items()}
        return build_loss(leaves), leaves
    worst = gradient_check(build, arrays, step=step)
    assert worst < tol, f"worst relative error {worst}"


# ---------------------------------------------------------------------------
# frozen forward values


def test_softmax_quarter_three_quarters():
    out = ad.masked_softmax(constant(np.array([0.0, math.log(3.0)])), None)
    np.testing.assert_allclose(out.value, [0.25, 0.75], atol=1e-12)


def test_sigmoid_fixed_points():
    x = constant(np.array([0.0, 1000.0, -1000.0]))
    out = ad.sigmoid(x).value
    assert out[0] == 0.5
    assert out[1] == 1.0
    assert out[2] == 0.0


_SIGMOID_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-45,
                     -1e-45, 88.7, -88.7, 1e38, -1e38)


@st.composite
def _sigmoid_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.finfo(dtype).bits
    values = st.one_of(st.sampled_from(_SIGMOID_SPECIALS).map(dtype),
                       st.floats(width=width, allow_subnormal=True))
    x = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                        elements=values))
    if x.ndim and draw(st.booleans()):
        x = x[..., ::-2]
    return x.T if draw(st.booleans()) else x


@settings(max_examples=300, deadline=None)
@given(_sigmoid_inputs())
def test_sigmoid_values_match_the_reference_formula_bytes(x):
    """The branch-free sigmoid gives np.where's bytes on every input."""
    ref = oracles._sigmoid_array(x)
    out = ad._sigmoid_values(x)
    assert type(out) is np.ndarray and out.shape == x.shape
    assert out.dtype == ref.dtype == x.dtype
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == ref[~nan].tobytes()


def test_sigmoid_keeps_low_relevances_apart():
    """The scorer ranks and votes on float32 relevances from ad.sigmoid, so
    two low logits must not tie: 0.5*tanh(x/2) + 0.5, the bi-LSTM gates'
    form, gives both of these the same float32 value."""
    out = ad.sigmoid(constant(np.array([-12.0, -12.001], np.float32))).value
    assert out.dtype == np.float32
    assert (out > 0).all() and out[0] != out[1]


def test_log_sigmoid_values():
    x = constant(np.array([0.0, -1000.0, 40.0]))
    out = ad.log_sigmoid(x).value
    assert math.isclose(out[0], -math.log(2.0), rel_tol=1e-12)
    assert math.isclose(out[1], -1000.0, rel_tol=1e-12)  # finite, not -inf
    assert out[2] == pytest.approx(0.0, abs=1e-15)


def test_hadamard_and_matmul_frozen():
    prod = ad.mul(constant(np.array([1.0, 2.0])), constant(np.array([3.0, 4.0])))
    np.testing.assert_array_equal(prod.value, [3.0, 8.0])
    a = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = constant(np.array([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[19.0, 22.0], [43.0, 50.0]])


def test_scalar_shift_and_scale_keep_dtype():
    x = constant(np.ones(3, dtype=np.float32))
    assert ad.add(x, 1.5).value.dtype == np.float32
    assert ad.mul(x, 2.0).value.dtype == np.float32
    assert ad.sigmoid(x).value.dtype == np.float32


# ---------------------------------------------------------------------------
# frozen gradients


def test_sum_of_squares_gradient():
    x = leaf(np.array([1.0, 2.0]), True)
    loss = ad.reduce_sum(ad.mul(x, x))
    backward(loss)
    np.testing.assert_array_equal(x.gradient(), [2.0, 4.0])


def test_sigmoid_gradient_at_zero():
    x = leaf(np.array([0.0]), True)
    backward(ad.reduce_sum(ad.sigmoid(x)))
    np.testing.assert_array_equal(x.gradient(), [0.25])


def test_matmul_gradient_frozen():
    a = leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), True)
    b = constant(np.array([[5.0, 6.0], [7.0, 8.0]]))
    backward(ad.reduce_sum(ad.matmul(a, b)))
    np.testing.assert_array_equal(a.gradient(), [[11.0, 15.0], [11.0, 15.0]])


def test_broadcast_add_gradient_sums_over_batch():
    x = leaf(np.zeros((2, 3)), True)
    bias = leaf(np.zeros(3), True)
    backward(ad.reduce_sum(ad.add(x, bias)))
    np.testing.assert_array_equal(bias.gradient(), [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(x.gradient(), np.ones((2, 3)))


def test_reduce_max_splits_gradient_on_ties():
    x = leaf(np.array([[3.0, 3.0, 1.0]]), True)
    backward(ad.reduce_sum(ad.reduce_max(x, axis=1)))
    np.testing.assert_array_equal(x.gradient(), [[0.5, 0.5, 0.0]])


def test_untouched_leaf_gets_zero_gradient():
    used = leaf(np.ones(2), True)
    unused = leaf(np.ones(3), True)
    backward(ad.reduce_sum(used))
    np.testing.assert_array_equal(unused.gradient(), np.zeros(3))


# ---------------------------------------------------------------------------
# finite differences, op by op


def test_fd_elementwise_chain():
    rng = np.random.default_rng(0)
    arrays = {"x": rng.standard_normal((3, 4))}
    fd(arrays, lambda p: ad.reduce_sum(
        ad.sigmoid(ad.sub(ad.scale(ad.sigmoid(p["x"]), 3.0), ad.shift(p["x"], 0.7)))))


def test_fd_exp_log():
    rng = np.random.default_rng(1)
    arrays = {"x": rng.uniform(0.5, 2.0, size=(2, 3))}
    fd(arrays, lambda p: ad.reduce_sum(ad.log(ad.exp(p["x"]))), tol=1e-7)


def test_fd_relu_away_from_kink():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3))
    arrays = {"x": x + 0.2 * np.sign(x)}
    fd(arrays, lambda p: ad.reduce_sum(ad.mul(ad.relu(p["x"]), ad.relu(p["x"]))))


def test_fd_log_sigmoid():
    # +/-30 logits are value-tested above; with a summed loss their gradient
    # signal sits below float64 rounding, so the FD sweep stays within +/-8.
    arrays = {"x": np.array([-8.0, -3.0, 0.5, 3.0, 8.0])}
    fd(arrays, lambda p: ad.reduce_sum(ad.log_sigmoid(p["x"])), tol=1e-6)


def test_fd_matmul_broadcast_batched():
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((4, 5))}
    fd(arrays, lambda p: ad.reduce_sum(ad.sigmoid(ad.matmul(p["a"], p["b"]))))


def test_fd_shape_ops_composite():
    rng = np.random.default_rng(4)
    arrays = {"x": rng.standard_normal((2, 4, 3)), "y": rng.standard_normal((2, 2, 3))}

    def build_loss(p):
        top = ad.slice_axis(p["x"], 1, 0, 2)
        joined = ad.concat([top, p["y"]], axis=1)              # (2, 4, 3)
        flipped = ad.transpose(joined, (0, 2, 1))              # (2, 3, 4)
        flat = ad.reshape(flipped, (2, 12))
        parts = [ad.slice_axis(flat, 1, i, i + 1) for i in (0, 5, 11)]  # each (2, 1)
        spread = ad.broadcast_to(ad.reshape(ad.concat(parts, axis=0), (3, 2, 1)),
                                 (3, 2, 4))
        return ad.reduce_sum(ad.mul(spread, spread))

    fd(arrays, build_loss)


def test_fd_bilstm_scan():
    """BPTT through both directions, each with its own w_in, bias and w_rec,
    down to the input sequence both read; row 1 is padded after two tokens,
    row 2 after three."""
    rng = np.random.default_rng(9)
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=np.float64)
    arrays, weights = {"seq": rng.standard_normal((3, 2, 4))}, []
    for direction in ("fwd", "bwd"):
        weights.append(rng.standard_normal((3, 3, 4)))
        arrays[f"w_in_{direction}"] = rng.standard_normal((2, 12))
        arrays[f"bias_{direction}"] = rng.standard_normal(12) * 0.5
        arrays[f"w_rec_{direction}"] = rng.standard_normal((3, 12)) * 0.5
    weights = np.concatenate(weights, axis=1)

    def build_loss(p):
        [out] = ad.bilstm_scan([(p["seq"], mask)], *((p[f"{name}_fwd"], p[f"{name}_bwd"])
                                                     for name in ("w_in", "bias", "w_rec")))
        return ad.reduce_sum(ad.mul(out, constant(weights)))

    fd(arrays, build_loss)


@pytest.mark.parametrize("reverse", [False, True])
def test_fd_lstm_scan(reverse):
    """BPTT through one direction of bilstm_scan, the other's weights held
    constant, down to the input sequence; row 1 is padded after two tokens,
    row 2 after three."""
    rng = np.random.default_rng(9)
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=np.float64)
    weights = rng.standard_normal((3, 3, 4))
    arrays = {"seq": rng.standard_normal((3, 2, 4)), "w_in": rng.standard_normal((2, 12)),
              "bias": rng.standard_normal(12) * 0.5,
              "w_rec": rng.standard_normal((3, 12)) * 0.5}
    other = {"w_in": constant(rng.standard_normal((2, 12))),
             "bias": constant(rng.standard_normal(12) * 0.5),
             "w_rec": constant(rng.standard_normal((3, 12)) * 0.5)}
    rows = slice(3, 6) if reverse else slice(0, 3)

    def build_loss(p):
        pairs = [(other[name], p[name]) if reverse else (p[name], other[name])
                 for name in ("w_in", "bias", "w_rec")]
        out = ad.slice_axis(ad.bilstm_scan([(p["seq"], mask)], *pairs)[0], 1,
                            rows.start, rows.stop)
        return ad.reduce_sum(ad.mul(out, constant(weights)))

    fd(arrays, build_loss)


def test_fd_reductions():
    rng = np.random.default_rng(5)
    base = rng.permutation(12).astype(np.float64).reshape(3, 4) * 0.3
    arrays = {"x": base + rng.standard_normal((3, 4)) * 0.01}

    def build_loss(p):
        a = ad.reduce_max(p["x"], axis=1)
        b = ad.scale(ad.reduce_sum(p["x"], axis=0), 1 / 3)
        return ad.add(ad.reduce_sum(ad.mul(a, a)), ad.reduce_sum(ad.mul(b, b)))

    fd(arrays, build_loss)


def test_fd_masked_softmax_and_logsumexp():
    rng = np.random.default_rng(6)
    mask = np.array([[1, 1, 0, 1], [1, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float64)
    weights = rng.standard_normal((3, 4))
    arrays = {"x": rng.standard_normal((3, 4))}

    def build_loss(p):
        probs = ad.masked_softmax(p["x"], mask)
        lse = ad.masked_logsumexp(p["x"], mask)
        return ad.add(ad.reduce_sum(ad.mul(probs, constant(weights))),
                      ad.reduce_sum(ad.mul(lse, lse)))

    fd(arrays, build_loss)


def test_fd_dropout_with_fixed_mask():
    base = np.random.default_rng(7).standard_normal((4, 5))
    arrays = {"x": base}

    def build_loss(p):
        rng = np.random.default_rng(99)  # same mask on every rebuild
        dropped = ad.dropout(p["x"], 0.4, rng, train=True)
        return ad.reduce_sum(ad.mul(dropped, dropped))

    fd(arrays, build_loss)


def test_fd_deep_recurrence():
    """Three chained sigmoid layers with weight reuse, like an unrolled RNN."""
    rng = np.random.default_rng(9)
    arrays = {"w": rng.standard_normal((3, 3)) * 0.5,
              "b": rng.standard_normal((3, 1)) * 0.1}
    x0 = rng.standard_normal((3, 1))

    def build_loss(p):
        h = constant(x0)
        for _ in range(3):
            h = ad.sigmoid(ad.add(ad.matmul(p["w"], h), p["b"]))
        return ad.reduce_sum(ad.mul(h, ad.sigmoid(h)))

    fd(arrays, build_loss)


# ---------------------------------------------------------------------------
# masking semantics


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 4), cols=st.integers(1, 7))
def test_masked_softmax_properties(seed, rows, cols):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, cols)) * 5.0
    mask = (rng.random((rows, cols)) < 0.6).astype(np.float64)
    probs = ad.masked_softmax(constant(logits), mask).value
    for r in range(rows):
        kept = mask[r] != 0
        assert np.all(probs[r][~kept] == 0.0)
        if kept.any():
            assert math.isclose(probs[r][kept].sum(), 1.0, rel_tol=1e-12)
            assert np.all(probs[r][kept] > 0.0)
        else:
            assert np.all(probs[r] == 0.0)


_SOFTMAX_SPECIALS = (0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, 1e30, -1e30)


@st.composite
def _masked_softmax_inputs(draw):
    """Logits with specials, and no mask or one broadcastable to them."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = st.one_of(st.sampled_from(_SOFTMAX_SPECIALS).map(dtype),
                       st.floats(width=np.finfo(dtype).bits))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    x = draw(hnp.arrays(dtype, shape, elements=values))
    if draw(st.booleans()):
        return x, None
    trailing = shape[draw(st.integers(0, len(shape))):]
    mask_shape = tuple(draw(st.sampled_from([1, n])) for n in trailing)
    return x, draw(hnp.arrays(np.float64, mask_shape, elements=st.sampled_from([0.0, 1.0])))


@settings(max_examples=300, deadline=None)
@given(_masked_softmax_inputs())
def test_masked_softmax_matches_the_first_formula_bytes(case):
    """masked_softmax takes exp(-inf) = 0 at masked positions where it once
    took exp(0) * 0, and keeps that formula's bytes on every input: NaN,
    +-inf, +-0, +-1e30, all-masked rows, broadcast masks, float32 and
    float64.  Overflow and inf/inf warn in both formulas alike, so warnings
    are off here."""
    x, mask = case
    with np.errstate(all="ignore"):
        want = oracles.masked_softmax(x, mask)
        got = ad.masked_softmax(constant(x), mask).value
    assert got.dtype == want.dtype == x.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_masked_logsumexp_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 5)) * 10.0
    mask = np.ones((3, 5))
    mask[1, 2:] = 0.0
    out = ad.masked_logsumexp(constant(logits), mask).value
    for r in range(3):
        kept = [float(v) for v, m in zip(logits[r], mask[r]) if m]
        assert math.isclose(out[r], oracles.logsumexp(kept), rel_tol=1e-12)


def test_masked_logsumexp_gradient_is_masked_softmax():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((2, 6))
    mask = np.array([[1, 1, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1]], dtype=np.float64)
    x = leaf(logits, True)
    backward(ad.reduce_sum(ad.masked_logsumexp(x, mask)))
    expected = ad.masked_softmax(constant(logits), mask).value
    np.testing.assert_allclose(x.gradient(), expected, atol=1e-12)


def test_masked_logsumexp_exact_when_one_position_survives():
    logits = constant(np.array([[0.0, 5.0]]))
    out = ad.masked_logsumexp(logits, np.array([[1.0, 0.0]]))
    assert out.value[0] == 0.0


# ---------------------------------------------------------------------------
# dropout behavior


def test_dropout_is_identity_in_eval():
    x = constant(np.ones((2, 2)))
    assert ad.dropout(x, 0.5, None, train=False) is x
    assert ad.dropout(x, 0.0, None, train=True) is x


def test_dropout_needs_rng_and_valid_rate():
    x = constant(np.ones(4))
    with pytest.raises(ValueError, match="rng"):
        ad.dropout(x, 0.5, None, train=True)
    with pytest.raises(ValueError, match="rate"):
        ad.dropout(x, 1.0, np.random.default_rng(0), train=True)


def test_dropout_scales_survivors():
    x = constant(np.ones(1000))
    out = ad.dropout(x, 0.25, np.random.default_rng(0), train=True).value
    survivors = out[out != 0.0]
    assert 600 < survivors.size < 900
    np.testing.assert_allclose(survivors, 1.0 / 0.75, rtol=1e-12)


# ---------------------------------------------------------------------------
# gradients byte for byte against the plain bookkeeping (oracles.ref_*)


PACKAGE = SimpleNamespace(leaf=leaf, add=ad.add, sub=ad.sub, mul=ad.mul, matmul=ad.matmul,
                          transpose=ad.transpose, total=ad.reduce_sum, backward=backward)
REFERENCE = SimpleNamespace(leaf=oracles.ref_leaf, add=oracles.ref_add, sub=oracles.ref_sub,
                            mul=oracles.ref_mul, matmul=oracles.ref_matmul,
                            transpose=oracles.ref_transpose, total=oracles.ref_sum,
                            backward=oracles.ref_backward)


def assert_same_leaf_gradients(build, arrays, trainable):
    """`build(ops, leaves)` -> scalar loss, run on the package and on the
    reference; every trainable leaf's gradient must match in dtype, strides
    and bytes."""
    grads = []
    for ops in (PACKAGE, REFERENCE):
        leaves = {k: ops.leaf(v, k in trainable) for k, v in arrays.items()}
        ops.backward(build(ops, leaves))
        grads.append({k: leaves[k].grad for k in trainable})
    for name in trainable:
        got, want = grads[0][name], grads[1][name]
        if want is None:
            assert got is None, name
            continue
        assert (got.dtype, got.strides) == (want.dtype, want.strides), name
        assert got.tobytes() == want.tobytes(), name


def signed_zeros(data, rng, shape, dtype):
    """Normal values with some entries replaced by 0.0 and some by -0.0."""
    values = rng.standard_normal(shape).astype(dtype)
    kind = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=values.size,
                              max_size=values.size))
    flat = values.reshape(-1)
    flat[np.array(kind) == 1] = 0.0
    flat[np.array(kind) == 2] = -0.0
    return values


def shared_trunk(ops, v, swap, reuse_w):
    """2-D @ 3-D, broadcast add and mul, a transpose node, 3-D @ 2-D with W
    used a second time or V, a sub that reads X again, and a sum weighted by
    C, whose signed zeros reach D and E as 0.0 and -0.0 gradients."""
    def add(a, b):
        return ops.add(b, a) if swap else ops.add(a, b)

    def mul(a, b):
        return ops.mul(b, a) if swap else ops.mul(a, b)

    h = mul(add(ops.matmul(v["W"], v["X"]), v["bias"]), v["gate"])     # (B, m, n)
    h = ops.matmul(ops.transpose(h, (0, 2, 1)), v["W"] if reuse_w else v["V"])  # (B, n, k)
    diff = ops.sub(h, ops.transpose(v["X"], (0, 2, 1)))
    return ops.total(mul(ops.sub(add(v["D"], diff), v["E"]), v["C"]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_backward_matches_plain_bookkeeping_bytes(data):
    """Every leaf gradient equals the zeros_like + add, both-operands,
    whole-stack bookkeeping byte for byte, in float32 and float64, with
    constant operands, a leaf used twice, transposed views and -0.0 gradients."""
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    batch, m, n = (data.draw(st.integers(1, 5)) for _ in range(3))
    reuse_w = data.draw(st.booleans())
    k = m if reuse_w else data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = {"X": signed_zeros(data, rng, (batch, k, n), dtype),
              "W": signed_zeros(data, rng, (m, k), dtype),
              "V": signed_zeros(data, rng, (m, k), dtype),
              "bias": signed_zeros(data, rng, (m, 1), dtype),
              "gate": signed_zeros(data, rng, (batch, 1, n), dtype),
              "C": signed_zeros(data, rng, (batch, n, k), dtype),
              "D": signed_zeros(data, rng, (batch, n, k), dtype),
              "E": signed_zeros(data, rng, (batch, n, k), dtype)}
    if data.draw(st.booleans()):       # W as a transposed view, F-ordered
        arrays["W"] = np.ascontiguousarray(arrays["W"].T).T
    trainable = data.draw(st.sets(st.sampled_from(["X", "W", "V", "bias", "gate", "D", "E"])))
    swap = data.draw(st.booleans())
    assert_same_leaf_gradients(lambda ops, v: shared_trunk(ops, v, swap, reuse_w),
                               arrays, trainable)


def test_first_gradient_holds_no_negative_zero():
    """A first gradient of -0.0 is stored as 0.0, as zeros + grad gives, whether
    it is copied (D, an F-ordered leaf) or kept (E)."""
    arrays = {"D": np.ones((2, 3)).T, "E": np.ones((3, 2)),
              "C": np.array([[0.0, -0.0], [1.5, -0.0], [-0.0, 2.0]])}
    build = lambda ops, v: ops.total(ops.add(ops.mul(v["D"], v["C"]), ops.mul(v["E"], v["C"])))
    assert_same_leaf_gradients(build, arrays, {"D", "E"})
    d, e = leaf(arrays["D"], True), leaf(arrays["E"], True)
    backward(build(PACKAGE, {"D": d, "E": e, "C": constant(arrays["C"])}))
    assert not np.signbit(d.grad[d.grad == 0]).any() and not np.signbit(e.grad[e.grad == 0]).any()


def _read_by_transpose_and_matmul(ops, v):
    y = ops.matmul(v["p"], v["q"])
    return ops.matmul(y, ops.transpose(y, (1, 0)))


def _matmul_into_both_add_operands(ops, v):
    y = ops.matmul(v["p"], v["q"])
    return ops.add(y, y)


ALIASING_GRAPHS = {
    "add(x, x)": lambda ops, v: ops.add(v["a"], v["a"]),
    "mul(a, a)": lambda ops, v: ops.mul(v["a"], v["a"]),
    "matmul node into both operands of an add": _matmul_into_both_add_operands,
    "node read by a transpose and a matmul": _read_by_transpose_and_matmul,
    "node read by an add and by a mul into that add":
        lambda ops, v: ops.add(v["a"], ops.mul(v["a"], v["k"])),
}


@pytest.mark.parametrize("name", ALIASING_GRAPHS)
def test_adopted_gradients_are_not_aliased(name):
    """A gradient array a node keeps as its own must not be one that another
    node also holds or goes on reading."""
    rng = np.random.default_rng(len(name))
    arrays = {"a": rng.standard_normal((3, 3)), "k": rng.standard_normal((3, 3)),
              "p": rng.standard_normal((3, 4)), "q": rng.standard_normal((4, 3)),
              "C": rng.standard_normal((3, 3))}
    graph = ALIASING_GRAPHS[name]
    assert_same_leaf_gradients(lambda ops, v: ops.total(ops.mul(graph(ops, v), v["C"])),
                               arrays, {"a", "k", "p", "q"})


# ---------------------------------------------------------------------------
# leaf-only products on backward's helper thread


def _weighted(node):
    """A scalar that reads every element of `node` with its own weight."""
    weights = np.cos(np.arange(node.value.size)).reshape(node.shape)
    return ad.reduce_sum(ad.mul(node, constant(weights.astype(node.dtype))))


def _one_weight_terms():
    """Builders of five scalar terms, each taking `use`, which gives the
    (3, 12) weight a term reads: two scans that read it as the forward w_in
    and w_rec (deferred), matmuls that read it as either operand (deferred)
    and a slice (immediate)."""
    rng = np.random.default_rng(25)
    f32 = lambda *shape: (rng.standard_normal(shape) * 0.5).astype(np.float32)
    fixed = {"w_in": constant(f32(3, 12)), "bias": constant(f32(12)),
             "w_rec": constant(f32(3, 12))}
    seqs = [constant(f32(2, 3, 5)), constant(f32(3, 3, 4))]
    x, y = constant(f32(2, 4, 3)), constant(f32(12, 5))

    def scan(seq):
        mask = np.ones((seq.shape[0], seq.shape[2]), np.float32)
        return lambda use: _weighted(ad.bilstm_scan(
            [(seq, mask)], (use(), fixed["w_in"]), (fixed["bias"],) * 2,
            (use(), fixed["w_rec"]))[0])

    return [scan(seqs[0]),
            lambda use: _weighted(ad.matmul(x, use())),
            lambda use: _weighted(ad.slice_axis(use(), 1, 2, 7)),
            scan(seqs[1]),
            lambda use: _weighted(ad.matmul(use(), y))]


def test_a_leaf_adds_deferred_and_immediate_contributions_in_backward_order():
    """One leaf read by two scans, two matmuls and a slice: its gradient has
    the bytes of each read's own contribution summed in backward order (the
    last term first, a scan's w_in before its w_rec) with plain numpy."""
    w0 = (np.random.default_rng(3).standard_normal((3, 12)) * 0.5).astype(np.float32)
    terms = _one_weight_terms()
    shared = leaf(w0, True)
    loss = None
    for term in terms:
        value = term(lambda: shared)
        loss = value if loss is None else ad.add(loss, value)
    backward(loss)

    contributions = []
    for term in reversed(terms):
        reads = []

        def use():
            reads.append(leaf(w0.copy(), True))
            return reads[-1]

        backward(term(use))
        contributions += [read.grad for read in reads]
    assert len(contributions) == 7
    expected = np.zeros_like(w0)
    for part in contributions:
        expected += part
    in_build_order = np.zeros_like(w0)
    for part in contributions[::-1]:
        in_build_order += part
    assert in_build_order.tobytes() != expected.tobytes()   # the order shows in the bytes
    assert shared.grad.tobytes() == expected.tobytes()


def test_a_deferred_product_keeps_the_callers_errstate():
    """A leaf's matmul gradient overflows float32 on the helper thread.  The
    caller's np.errstate holds there, so no RuntimeWarning (an error in this
    suite) is raised."""
    w = leaf(np.full((2, 3), 1e30, np.float32), True)
    x = constant(np.full((3, 4), 1e38, np.float32))
    with np.errstate(over="ignore"):
        backward(ad.reduce_sum(ad.matmul(w, x)))
    assert np.isposinf(w.grad).all()


def test_a_failing_deferred_product_is_raised_after_every_product_finished(monkeypatch):
    """v @ (w @ x) with leaves v and w: their two products run on the helper
    thread, the inner node's on the main thread.  The first deferred product
    raises and the second runs on: backward raises the error only after the
    second has finished, and the next backward gives the serial gradients."""
    matmul_grad, main_calls, helper_calls, finished = ad._matmul_grad, [], [], []

    def product(*args):
        if threading.current_thread() is threading.main_thread():
            main_calls.append(args)
            return matmul_grad(*args)
        helper_calls.append(args)
        if len(helper_calls) == 1:
            raise RuntimeError("deferred product failed")
        time.sleep(0.2)
        finished.append(True)
        return matmul_grad(*args)

    rng = np.random.default_rng(4)
    v0, w0, x0 = (rng.standard_normal(shape) for shape in ((4, 2), (2, 3), (3, 4)))

    def loss(v, w):
        return ad.reduce_sum(ad.matmul(v, ad.matmul(w, constant(x0))))

    monkeypatch.setattr(ad, "_matmul_grad", product)
    with pytest.raises(RuntimeError, match="deferred product failed"):
        backward(loss(leaf(v0, True), leaf(w0, True)))
    assert (len(main_calls), len(helper_calls), finished) == (1, 2, [True])
    assert ad._held is None
    monkeypatch.undo()
    v, w = leaf(v0, True), leaf(w0, True)
    backward(loss(v, w))
    ones = np.ones((4, 4))
    assert v.grad.tobytes() == (ones @ (w0 @ x0).T).tobytes()
    assert w.grad.tobytes() == (v0.T @ ones @ x0.T).tobytes()


# ---------------------------------------------------------------------------
# graph mechanics and errors


def test_no_grad_builds_detached_nodes():
    x = leaf(np.ones(3), True)
    with no_grad():
        y = ad.mul(x, ad.constant(np.full(3, 2.0)))
    assert y.parents == ()
    assert not y.needs_grad
    assert backward(ad.reduce_sum(y)) == {}
    np.testing.assert_array_equal(x.gradient(), np.zeros(3))


def test_backward_rejects_vector_loss():
    x = leaf(np.ones(3), True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.mul(x, x))


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeMismatchError, match="add"):
        ad.add(constant(np.ones((2, 3))), constant(np.ones((4,))))
    with pytest.raises(ShapeMismatchError, match="hadamard"):
        ad.mul(constant(np.ones((2, 3))), constant(np.ones((5, 2))))
    with pytest.raises(ShapeMismatchError, match="matmul"):
        ad.matmul(constant(np.ones(3)), constant(np.ones((3, 2))))
    with pytest.raises(ShapeMismatchError, match="matmul"):
        ad.matmul(constant(np.ones((2, 3))), constant(np.ones((4, 2))))
    with pytest.raises(ShapeMismatchError, match="concat"):
        ad.concat([constant(np.ones((2, 3))), constant(np.ones((3, 3)))], axis=1)
    seq, w_in, bias = constant(np.ones((2, 8, 3))), constant(np.eye(8)), constant(np.zeros(8))
    w_rec = constant(np.ones((2, 8)))
    with pytest.raises(ShapeMismatchError, match="bilstm_scan"):
        ad.bilstm_scan([(seq, np.ones((2, 4)))], (w_in, w_in), (bias, bias), (w_rec, w_rec))
    with pytest.raises(ShapeMismatchError, match="bilstm_scan"):
        ad.bilstm_scan([(seq, np.ones((2, 3)))], (w_in, constant(np.ones((4, 8)))), (bias, bias),
                       (w_rec, w_rec))
    with pytest.raises(ShapeMismatchError, match="bilstm_scan"):
        ad.bilstm_scan([(constant(np.ones((2, 4, 3))), np.ones((2, 3)))], (w_in, w_in),
                       (bias, bias), (w_rec, w_rec))
    narrow = [(constant(a.value.astype(np.float32)),) * 2 for a in (w_in, bias, w_rec)]
    with pytest.raises(ValueError, match="bilstm_scan: every projection must have one dtype"):
        ad.bilstm_scan([(seq, np.ones((2, 3))),
                        (constant(np.ones((2, 8, 3), np.float32)), np.ones((2, 3)))], *narrow)
    with pytest.raises(ShapeMismatchError, match="broadcast"):
        ad.broadcast_to(constant(np.ones(3)), (2, 4))
    with pytest.raises(ShapeMismatchError, match="masked_softmax"):
        ad.masked_softmax(constant(np.ones((2, 3))), np.ones((2, 5)))


def test_gradient_check_rejects_non_contiguous():
    arr = np.ones((4, 4)).T[:2]  # a view with strides out of order
    arr = np.asfortranarray(np.ones((3, 3)))
    def build():
        node = leaf(arr, True)
        return ad.reduce_sum(node), {"w": node}
    with pytest.raises(ValueError, match="contiguous"):
        gradient_check(build, {"w": arr})
