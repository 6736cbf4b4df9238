"""Reverse-mode automatic differentiation over numpy arrays.

Every operation builds a `Node` holding the computed value, references to its
parent nodes, and a closure that routes the output gradient back to those
parents.  Values are computed eagerly at construction time; `backward` walks
the graph once in reverse topological order and accumulates gradients into
the leaves.

Training code runs in float32 by default.  Gradient checks should build the
graph from float64 arrays; the ops never change the dtype they are given.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

# Additive mask offset: large enough that exp() underflows to exactly 0.0
# after the max shift, small enough to stay finite in float32.
MASK_OFFSET = 1e30


class ShapeMismatchError(ValueError):
    """Raised when an op receives arrays whose shapes cannot combine."""

    def __init__(self, op: str, *shapes: tuple):
        self.op = op
        self.shapes = shapes
        pretty = " vs ".join(str(s) for s in shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (values still computed)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Node:
    """One vertex of the computation graph.

    value:   the computed ndarray (row-major, any rank)
    grad:    accumulated output gradient, same shape as value; None until
             backward touches this node
    op:      short op name, for error messages and debugging
    parents: nodes this one was computed from (empty for leaves)
    """

    __slots__ = ("value", "grad", "op", "parents", "needs_grad", "_backward")

    def __init__(
        self,
        value: np.ndarray,
        op: str = "leaf",
        parents: tuple["Node", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        needs_grad: bool = False,
    ):
        self.value = value
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self.needs_grad = needs_grad
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def gradient(self) -> np.ndarray:
        """Accumulated gradient; zeros if backward never reached this node."""
        if self.grad is None:
            return np.zeros_like(self.value)
        return self.grad

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def leaf(value: np.ndarray, requires_grad: bool = False) -> Node:
    """Wrap an array as a graph leaf. The array is referenced, not copied."""
    return Node(np.asarray(value), "leaf", needs_grad=requires_grad and _grad_enabled)


def constant(value) -> Node:
    """A leaf that never receives gradient (masks, targets, embeddings)."""
    return Node(np.asarray(value), "const")


def as_node(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _make(op: str, value: np.ndarray, parents: tuple[Node, ...],
          backward: Callable[[np.ndarray], None]) -> Node:
    if _grad_enabled and any(p.needs_grad for p in parents):
        return Node(value, op, parents, backward, needs_grad=True)
    # Dead branch for backprop: drop parent references so intermediates
    # can be collected during finite-difference sweeps.
    return Node(value, op)


def _accumulate(node: Node, grad: np.ndarray, fresh: bool = False) -> None:
    """Add `grad` into `node.grad`.  The first gradient is stored as
    zeros_like(value) + grad would be: in value's layout, and 0.0 where grad
    holds -0.0.  A `fresh` grad is a new array that nothing else holds, and
    the node keeps it after `+= 0` when it has that layout and dtype, or is
    C-ordered and the node a transpose, whose backward only hands a view on
    to an elementwise add, which gives the same bits in any layout."""
    if not node.needs_grad:
        return
    if node.grad is not None:
        node.grad += grad
    elif (fresh and isinstance(grad, np.ndarray) and grad.shape == node.value.shape
          and grad.dtype == node.value.dtype and grad.flags.c_contiguous
          and (node.value.flags.c_contiguous or node.op == "transpose")):
        grad += 0
        node.grad = grad
    else:
        node.grad = np.add(grad, 0, out=np.empty_like(node.value), casting="same_kind")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _matmul_grad(x: np.ndarray, y: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """x @ y summed down to `shape`.  Into a 2-D `shape` from (B, ., .) stacks,
    the slice products are added up one by one in stack order, as the sum of
    the whole product stack over B runs, without forming that stack."""
    if len(shape) == 2 and x.ndim == y.ndim == 3:
        total = x[0] @ y[0]
        part = np.empty_like(total)
        for k in range(1, len(x)):
            total += np.matmul(x[k], y[k], out=part)
        return total
    return _unbroadcast(x @ y, shape)


def _toposort(root: Node) -> list[Node]:
    """Iterative post-order over the grad-requiring subgraph."""
    order: list[Node] = []
    seen = {root}
    stack: list[tuple[Node, Iterable[Node]]] = [(root, iter(root.parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.needs_grad and p not in seen:
                seen.add(p)
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Node) -> dict[Node, np.ndarray]:
    """Backpropagate from a scalar loss.

    Populates `.grad` on every grad-requiring node reachable from `loss` and
    returns a map from leaf parameter nodes to their gradients.  Leaves the
    loss never touched keep a zero gradient (see `Node.gradient`).
    """
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if not loss.needs_grad:
        return {}
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
    return {n: n.gradient() for n in order if not n.parents and n._backward is None}


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def shift(a, offset: float) -> Node:
    """Add a python scalar without disturbing the array dtype."""
    a = as_node(a)

    def back(g):
        _accumulate(a, g)

    return _make("shift", a.value + offset, (a,), back)


def scale(a, factor: float) -> Node:
    """Multiply by a python scalar without disturbing the array dtype."""
    a = as_node(a)

    def back(g):
        _accumulate(a, g * factor, fresh=True)

    return _make("scale", a.value * factor, (a,), back)


def add(a, b) -> Node:
    if isinstance(b, (int, float)):
        return shift(a, b)
    if isinstance(a, (int, float)):
        return shift(b, a)
    a, b = as_node(a), as_node(b)
    try:
        value = a.value + b.value
    except ValueError:
        raise ShapeMismatchError("add", a.shape, b.shape) from None

    def back(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make("add", value, (a, b), back)


def sub(a, b) -> Node:
    if isinstance(b, (int, float)):
        return shift(a, -b)
    if isinstance(a, (int, float)):
        return shift(neg(b), a)
    a, b = as_node(a), as_node(b)
    try:
        value = a.value - b.value
    except ValueError:
        raise ShapeMismatchError("sub", a.shape, b.shape) from None

    def back(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(-g, b.shape), fresh=True)

    return _make("sub", value, (a, b), back)


def neg(a) -> Node:
    a = as_node(a)

    def back(g):
        _accumulate(a, -g, fresh=True)

    return _make("neg", -a.value, (a,), back)


def mul(a, b) -> Node:
    """Hadamard product with numpy broadcasting."""
    if isinstance(b, (int, float)):
        return scale(a, b)
    if isinstance(a, (int, float)):
        return scale(b, a)
    a, b = as_node(a), as_node(b)
    try:
        value = a.value * b.value
    except ValueError:
        raise ShapeMismatchError("hadamard", a.shape, b.shape) from None

    def back(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g * b.value, a.shape), fresh=True)
        if b.needs_grad:
            _accumulate(b, _unbroadcast(g * a.value, b.shape), fresh=True)

    return _make("hadamard", value, (a, b), back)


def matmul(a, b) -> Node:
    """Matrix product; both operands rank >= 2, leading dims broadcast."""
    a, b = as_node(a), as_node(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    try:
        value = a.value @ b.value
    except ValueError:
        raise ShapeMismatchError("matmul", a.shape, b.shape) from None

    def back(g):
        if a.needs_grad:
            _accumulate(a, _matmul_grad(g, b.value.swapaxes(-1, -2), a.shape), fresh=True)
        if b.needs_grad:
            _accumulate(b, _matmul_grad(a.value.swapaxes(-1, -2), g, b.shape), fresh=True)

    return _make("matmul", value, (a, b), back)


# ---------------------------------------------------------------------------
# shape ops


def concat(nodes: Sequence[Node], axis: int) -> Node:
    nodes = [as_node(n) for n in nodes]
    if not nodes:
        raise ValueError("concat of zero nodes")
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", *[n.shape for n in nodes]) from None
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            _accumulate(node, g[tuple(slicer)])

    return _make("concat", value, tuple(nodes), back)


def slice_axis(a: Node, axis: int, start: int, stop: int) -> Node:
    a = as_node(a)
    slicer = [slice(None)] * a.value.ndim
    slicer[axis] = slice(start, stop)
    slicer = tuple(slicer)
    value = a.value[slicer]

    def back(g):
        if not a.needs_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[slicer] += g

    return _make("slice", value, (a,), back)


def transpose(a: Node, axes: tuple[int, ...]) -> Node:
    a = as_node(a)
    value = a.value.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        _accumulate(a, g.transpose(inverse))

    return _make("transpose", value, (a,), back)


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    a = as_node(a)
    value = a.value.reshape(shape)

    def back(g):
        _accumulate(a, g.reshape(a.value.shape))

    return _make("reshape", value, (a,), back)


def broadcast_to(a: Node, shape: tuple[int, ...]) -> Node:
    a = as_node(a)
    try:
        value = np.broadcast_to(a.value, shape).copy()
    except ValueError:
        raise ShapeMismatchError("broadcast", a.shape, shape) from None

    def back(g):
        _accumulate(a, _unbroadcast(g, a.shape))

    return _make("broadcast", value, (a,), back)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; the negative branch ex/(1+ex) stays exact
    # as ex * (1/(1+ex)) without any cancellation.  No np.where: a select on
    # a sign-random mask mispredicts about every other element.  ex <= 1, so
    # the factor is exactly 1.0 where x >= 0 and ex elsewhere (NaN stays NaN);
    # asarray keeps np.where's 0-d array where the product gives a scalar.
    ex = np.exp(-np.abs(x))
    base = 1.0 / (1.0 + ex)
    return np.asarray(base * np.maximum(ex, x >= 0))


def sigmoid(a) -> Node:
    a = as_node(a)
    value = _sigmoid_values(a.value)

    def back(g):
        _accumulate(a, g * value * (1.0 - value), fresh=True)

    return _make("sigmoid", value, (a,), back)


def log_sigmoid(a) -> Node:
    """log(sigmoid(x)) computed without ever forming sigmoid(x).

    Stays finite for large negative logits where sigmoid underflows to 0.
    """
    a = as_node(a)
    x = a.value
    value = np.where(x >= 0, 0.0, x) - np.log1p(np.exp(-np.abs(x)))

    def back(g):
        _accumulate(a, g * _sigmoid_values(-x), fresh=True)

    return _make("log_sigmoid", value, (a,), back)


def relu(a) -> Node:
    a = as_node(a)
    value = np.maximum(a.value, 0)

    def back(g):
        _accumulate(a, g * (a.value > 0), fresh=True)

    return _make("relu", value, (a,), back)


def exp(a) -> Node:
    a = as_node(a)
    value = np.exp(a.value)

    def back(g):
        _accumulate(a, g * value, fresh=True)

    return _make("exp", value, (a,), back)


def log(a) -> Node:
    a = as_node(a)
    value = np.log(a.value)

    def back(g):
        _accumulate(a, g / a.value, fresh=True)

    return _make("log", value, (a,), back)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = as_node(a)
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.value.shape).copy(), fresh=True)

    return _make("sum", value, (a,), back)


def reduce_max(a, axis: int, keepdims: bool = False) -> Node:
    """Max over one axis; ties share the gradient equally."""
    a = as_node(a)
    value = a.value.max(axis=axis, keepdims=keepdims)

    def back(g):
        expanded = value if keepdims else np.expand_dims(value, axis)
        hit = (a.value == expanded).astype(a.value.dtype)
        hit /= hit.sum(axis=axis, keepdims=True)
        gg = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, hit * gg, fresh=True)

    return _make("max", value, (a,), back)


# ---------------------------------------------------------------------------
# softmax with masking


def masked_softmax(logits, mask: np.ndarray | None = None) -> Node:
    """Softmax over the last axis, restricted to positions where mask is 1.

    Masked positions get probability exactly 0.0 and receive no gradient.
    A row whose mask is all zero comes out as all zeros (such rows are
    padding and must be ignored downstream).  `mask` is a plain array
    broadcastable to the logits shape; it is never differentiated.
    """
    a = as_node(logits)
    x = a.value
    if mask is None:
        keep = np.ones(x.shape, dtype=bool)
    else:
        try:
            keep = np.broadcast_to(np.asarray(mask) != 0, x.shape)
        except ValueError:
            raise ShapeMismatchError("masked_softmax", x.shape, np.asarray(mask).shape) from None
    low = np.where(keep, x, -np.inf)
    rowmax = low.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    shifted = np.where(keep, x - rowmax, 0.0)
    weights = np.exp(shifted) * keep
    denom = weights.sum(axis=-1, keepdims=True)
    safe = np.where(denom > 0, denom, 1.0)
    value = (weights / safe).astype(x.dtype)

    def back(g):
        inner = (g * value).sum(axis=-1, keepdims=True)
        _accumulate(a, value * (g - inner), fresh=True)

    return _make("masked_softmax", value, (a,), back)


def masked_logsumexp(logits: Node, mask: np.ndarray | None = None) -> Node:
    """log(sum(exp(logits))) over the last axis, masked positions excluded.

    Built from graph ops so the gradient is the masked softmax exactly.
    """
    a = as_node(logits)
    if mask is not None:
        offset = (np.broadcast_to(np.asarray(mask, a.dtype), a.shape) - 1.0) * MASK_OFFSET
        a = add(a, constant(offset))
    peak = reduce_max(a, axis=-1, keepdims=True)
    total = reduce_sum(exp(sub(a, peak)), axis=-1, keepdims=True)
    return reshape(add(peak, log(total)), a.shape[:-1])


# ---------------------------------------------------------------------------
# recurrence


def _scan_stack(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """(T, ...) pair -> (T, 2, ...), `bwd` time-reversed: step s holds time s
    forward and time T-1-s backward."""
    return np.stack([fwd, bwd[::-1]], axis=1)


def _scan_unstack(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `_scan_stack`: both halves in time order (views)."""
    return stacked[:, 0], stacked[::-1, 1]


def bilstm_scan(proj, w_rec, mask: np.ndarray) -> Node:
    """Both directions of a bi-LSTM in one time loop: 2 x (B, T, 4h) -> (B, 2h, T).

    `proj` is the (forward, backward) pair of input projections x_t @ w_in +
    bias, gate columns in [input, forget, cell, output] blocks, and `w_rec`
    the matching pair of (h, 4h) weights.  Each step computes gates =
    proj[:, t] + h @ w_rec, one sigmoid over all four blocks with tanh on the
    cell block, c = f*c + i*g and h = o*tanh(c), from zero initial states;
    the forward direction runs from t = 0 into output rows :h, the backward
    one from t = T-1 into rows h:.  `mask` (B, T) is right-padded: 1.0 at the
    real tokens, which come first in each row, and 0.0 at the padding after
    them; anything else raises ValueError.  With k its column, a step keeps
    k*c and k*h, so the state is zero at padding, which no real position of
    either direction reads, and so are the outputs there.

    Each step is one (2, B, h) @ (2, h, 4h) matmul over both directions.
    Backward runs backprop through time and returns the gradients of both
    projections and both `w_rec`; `mask` is never differentiated.
    """
    proj_f, proj_b = (as_node(p) for p in proj)
    w_f, w_b = (as_node(w) for w in w_rec)
    x, w, mask = proj_f.value, w_f.value, np.asarray(mask)
    hidden = w.shape[0]
    if (x.ndim != 3 or w.shape != (hidden, 4 * hidden) or x.shape[2] != 4 * hidden
            or mask.shape != x.shape[:2] or (proj_b.shape, w_b.shape) != (x.shape, w.shape)):
        raise ShapeMismatchError("bilstm_scan", *(n.shape for n in (proj_f, proj_b, w_f, w_b)),
                                 mask.shape)
    batch, steps, _ = x.shape
    if not np.array_equal(mask, np.arange(steps) < mask.sum(axis=1, keepdims=True)):
        raise ValueError("bilstm_scan: mask must be 1 at the real tokens and 0 at the "
                         "padding after them")
    dtype = x.dtype
    # Time-major so every per-step slice below is contiguous.
    xs = _scan_stack(x.transpose(1, 0, 2), proj_b.value.transpose(1, 0, 2))
    w = np.stack([w, w_b.value])
    keep = _scan_stack(mask.T, mask.T).astype(dtype)[..., None]
    acts = np.empty((steps, 2, batch, 4 * hidden), dtype)
    tanh_c = np.empty((steps, 2, batch, hidden), dtype)
    # Step t reads row t and writes row t + 1; row 0 is the zero initial state.
    states, cells = (np.zeros((steps + 1, 2, batch, hidden), dtype) for _ in range(2))
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]  # i, f, g, o
    for t in range(steps):
        gates = xs[t] + states[t] @ w
        acts[t] = _sigmoid_values(gates)
        acts[t, ..., blocks[2]] = np.tanh(gates[..., blocks[2]])
        i, f, cand, o = (acts[t, ..., b] for b in blocks)
        np.multiply(keep[t], f * cells[t] + i * cand, out=cells[t + 1])
        np.multiply(keep[t], o * np.tanh(cells[t + 1], out=tanh_c[t]), out=states[t + 1])
    # C order, not concatenate's time-major one: downstream matmuls round by layout.
    value = np.empty((batch, 2 * hidden, steps), dtype)
    value[:, :hidden], value[:, hidden:] = (s.transpose(1, 2, 0)
                                            for s in _scan_unstack(states[1:]))

    def back(g):
        gs = _scan_stack(g[:, :hidden].transpose(2, 0, 1), g[:, hidden:].transpose(2, 0, 1))
        d_gates = np.empty_like(acts)
        dh = np.zeros((2, batch, hidden), dtype)
        dc = np.zeros((2, batch, hidden), dtype)
        for t in range(steps - 1, -1, -1):
            i, f, cand, o = (acts[t, ..., b] for b in blocks)
            dh_new, dc_new = keep[t] * (dh + gs[t]), keep[t] * dc
            dc_new += dh_new * o * (1.0 - tanh_c[t] * tanh_c[t])
            d_gates[t] = np.concatenate([dc_new * cand * i * (1.0 - i),
                                         dc_new * cells[t] * f * (1.0 - f),
                                         dc_new * i * (1.0 - cand * cand),
                                         dh_new * tanh_c[t] * o * (1.0 - o)], axis=-1)
            dh = d_gates[t] @ w.swapaxes(1, 2)
            dc = dc_new * f
        # In actual time order again, each w_rec sum runs as for one direction.
        for node, w_node, d_k, h_k in zip((proj_f, proj_b), (w_f, w_b),
                                          _scan_unstack(d_gates), _scan_unstack(states[:-1])):
            _accumulate(node, d_k.transpose(1, 0, 2))
            _accumulate(w_node, h_k.reshape(-1, hidden).T @ d_k.reshape(-1, 4 * hidden),
                        fresh=True)

    return _make("bilstm_scan", value, (proj_f, proj_b, w_f, w_b), back)


# ---------------------------------------------------------------------------
# regularization


def dropout(a: Node, rate: float, rng: np.random.Generator | None,
            train: bool) -> Node:
    """Inverted dropout. Identity when train is False or rate is 0."""
    if not train or rate == 0.0:
        return as_node(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    a = as_node(a)
    keep = (rng.random(a.value.shape) >= rate).astype(a.value.dtype)
    keep /= 1.0 - rate
    value = a.value * keep

    def back(g):
        _accumulate(a, g * keep, fresh=True)

    return _make("dropout", value, (a,), back)


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(build: Callable[[], tuple[Node, dict[str, Node]]],
                   params: dict[str, np.ndarray],
                   step: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    `build` must construct the graph from the arrays in `params` (referencing
    them, not copying) and return the scalar loss node plus a name -> leaf map
    for those same arrays.  It must be deterministic: two calls with the same
    parameter values must produce the same loss.  Use float64 arrays.

    Returns max over all parameter entries of
        |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    loss, leaves = build()
    backward(loss)
    analytic = {name: node.gradient().copy() for name, node in leaves.items()}

    worst = 0.0
    for name, array in params.items():
        if not array.flags.c_contiguous:
            raise ValueError(f"gradient_check needs contiguous arrays ({name})")
        grads = analytic[name]
        flat = array.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            with no_grad():
                plus = float(build()[0].value)
            flat[i] = saved - step
            with no_grad():
                minus = float(build()[0].value)
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * step)
            a = float(gflat[i])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst
