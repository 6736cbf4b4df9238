"""Reverse-mode automatic differentiation over numpy arrays.

Every operation builds a `Node` holding the computed value, references to its
parent nodes, and a closure that routes the output gradient back to those
parents.  Values are computed eagerly at construction time; `backward` walks
the graph once in reverse topological order and accumulates gradients into
the leaves.

Training code runs in float32 by default.  Gradient checks should build the
graph from float64 arrays; the ops never change the dtype they are given.

The one recurrent op, `bilstm_scan`, takes a bi-LSTM from its input
sequences to its states as one node: the input projections, both
directions' time loop, and a backward pass that forms the input and input
weight gradients from the real tokens only.

One helper thread takes long native calls, which release the interpreter
lock, off the main thread, in forward as in backward; it only computes new
arrays, from inputs nothing writes meanwhile, so every result has the bits
of the same call in line.  Forward, it draws a `KeepFactors` stream's
dropout factors ahead of the `dropout` calls that take them, and forms
`bilstm_scan`'s backward-direction input products while the main thread
forms the forward ones.  Backward, it forms the products whose only use is
a leaf's gradient: `matmul`'s product for a leaf operand, and
`bilstm_scan`'s `w_in` and `w_rec` ones.  No node reads a leaf's gradient,
so `backward` holds each leaf's contributions, deferred and immediate, in
the order they come, and the main thread adds them in that order once the
loop has ended and every product has finished: every gradient has the bits
of a serial backward.
Each task runs in a copy of its caller's `contextvars` context, so an
`np.errstate` around the caller (numpy keeps it in a context variable) holds
on the helper too.  Each BLAS call runs on the thread count OpenBLAS is set
to: one under `cli.main`, so the helper and the main thread take a core each.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
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


# The helper thread; it starts with its first task.
_helper = ThreadPoolExecutor(1, thread_name_prefix="autodiff")
# While `backward` runs: each leaf -> its contributions, in backward order, as
# (array or helper Future, fresh, at) for `_add`.
_held: dict[Node, list[tuple]] | None = None


def _submit(fn: Callable, *args) -> Future:
    """Run fn(*args) on the helper thread, in a copy of the caller's context."""
    return _helper.submit(contextvars.copy_context().run, fn, *args)


def _accumulate(node: Node, grad: np.ndarray, fresh: bool = False, at=None) -> None:
    """Add `grad` into `node.grad` (see `_add`); for a leaf, hold it, and
    `backward` adds it after the loop, in the order it came."""
    if not node.needs_grad:
        return
    if node._backward is None:
        _held.setdefault(node, []).append((grad, fresh, at))
    else:
        _add(node, grad, fresh, at)


def _defer(node: Node, product: Callable[..., np.ndarray], *args) -> None:
    """Accumulate product(*args), a new array, into `node`.  For a leaf the
    product runs on the helper thread, in a copy of the caller's context, and
    its Future is held in the leaf's place in backward order."""
    if node._backward is None:
        _held.setdefault(node, []).append((_submit(product, *args), True, None))
    else:
        _add(node, product(*args), fresh=True)


def _add(node: Node, grad: np.ndarray, fresh: bool = False, at=None) -> None:
    """Add `grad` into `node.grad`, or into `node.grad[at]` with the rest of
    a first gradient zero.  The first gradient is stored as
    zeros_like(value) + grad would be: in value's layout, and 0.0 where grad
    holds -0.0.  A `fresh` grad is a new array that nothing else holds, and
    the node keeps it after `+= 0` when it has that layout and dtype, or is
    C-ordered and the node a transpose, whose backward only hands a view on
    to an elementwise add, which gives the same bits in any layout."""
    if at is not None:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        node.grad[at] += grad
    elif node.grad is not None:
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
    """x @ y summed down to `shape`.  Into a 2-D `shape` from (B, ., .) stacks
    this forms the product stack in one call and sums it over B in stack
    order: the bits of adding the slice products one by one, in two numpy
    calls, so a product on the helper thread takes the interpreter lock twice,
    not twice per slice."""
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


def backward(loss: Node) -> None:
    """Backpropagate from a scalar loss.

    Populates `.grad` on every grad-requiring node reachable from `loss`.
    Leaves the loss never touched keep a zero gradient (see `Node.gradient`).

    The leaf-only products (`matmul`'s for a leaf operand, `bilstm_scan`'s
    `w_in` and `w_rec` ones) run on the helper thread, each in a copy of its
    caller's context, so an enclosing `np.errstate` holds there too.  A
    leaf's contributions, deferred and immediate, are held in the order a
    serial backward adds them, and added in that order after the loop, once
    every product has finished, so every gradient has that backward's bits.
    Every product has finished when this returns or raises; an exception
    raised in one is raised here.
    """
    global _held
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if not loss.needs_grad:
        return
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.value)
    _held = held = {}
    try:
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
    finally:
        _held = None
        wait([grad for entries in held.values() for grad, _, _ in entries
              if isinstance(grad, Future)])
    for node, entries in held.items():
        for grad, fresh, at in entries:
            _add(node, grad.result() if isinstance(grad, Future) else grad, fresh, at)


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
            _defer(a, _matmul_grad, g, b.value.swapaxes(-1, -2), a.shape)
        if b.needs_grad:
            _defer(b, _matmul_grad, a.value.swapaxes(-1, -2), g, b.shape)

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
        _accumulate(a, g, at=slicer)

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
    """sigmoid(x) for the graph ops `sigmoid` and `log_sigmoid`.  The scorer
    ranks and votes on relevances from here, so this keeps float32's relative
    precision in the low tail.  bilstm_scan's gates use the cheaper
    0.5*tanh(x/2) + 0.5, whose float32 relative error reaches 2.4e-5 and
    which is exactly 0 below about 3e-8, where low relevances would tie."""
    # exp(-|x|) never overflows; the negative branch ex/(1+ex) stays exact
    # as ex * (1/(1+ex)) without any cancellation.  No np.where: a select on
    # a sign-random mask mispredicts about every other element.  ex <= 1, so
    # the factor is exactly 1.0 where x >= 0 and ex elsewhere (NaN stays NaN);
    # asarray keeps np.where's 0-d array where the product gives a scalar.
    ex = np.exp(-np.abs(x))
    return np.asarray(1.0 / (1.0 + ex) * np.maximum(ex, x >= 0))


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


def masked_softmax(logits, mask: np.ndarray) -> Node:
    """Softmax over the last axis, restricted to positions where mask is 1.

    Masked positions get probability exactly 0.0 and receive no gradient.
    A row whose mask is all zero comes out as all zeros (such rows are
    padding and must be ignored downstream).  `mask` is a plain array
    broadcastable to the logits shape; it is never differentiated.
    """
    a = as_node(logits)
    x = a.value
    try:
        keep = np.broadcast_to(np.asarray(mask) != 0, x.shape)
    except ValueError:
        raise ShapeMismatchError("masked_softmax", x.shape, np.asarray(mask).shape) from None
    low = np.where(keep, x, -np.inf)
    rowmax = low.max(axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    weights = np.exp(low - rowmax)      # exp(-inf) = 0 at masked positions
    denom = weights.sum(axis=-1, keepdims=True)
    safe = np.where(denom > 0, denom, 1.0)
    value = (weights / safe).astype(x.dtype, copy=False)

    def back(g):
        inner = (g * value).sum(axis=-1, keepdims=True)
        _accumulate(a, value * (g - inner), fresh=True)

    return _make("masked_softmax", value, (a,), back)


def masked_logsumexp(logits: Node, mask: np.ndarray) -> Node:
    """log(sum(exp(logits))) over the last axis, masked positions excluded.

    Built from graph ops so the gradient is the masked softmax exactly.
    """
    a = as_node(logits)
    offset = (np.broadcast_to(np.asarray(mask, a.dtype), a.shape) - 1.0) * MASK_OFFSET
    a = add(a, constant(offset))
    peak = reduce_max(a, axis=-1, keepdims=True)
    total = reduce_sum(exp(sub(a, peak)), axis=-1, keepdims=True)
    return reshape(add(peak, log(total)), a.shape[:-1])


# ---------------------------------------------------------------------------
# recurrence


def _scan_unstack(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, 2, ...) scan steps -> both directions in time order (views): step s
    holds time s forward and time T-1-s backward."""
    return stacked[:, 0], stacked[::-1, 1]


def _row_products_sum(seq: np.ndarray, grads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum over rows k, in stack order, of seq[k, :, :L_k] @ (row k's L_k rows
    of `grads`): the weight gradient of a (B, in, T) input over real tokens."""
    ends = np.cumsum(lengths)
    total = seq[0, :, :lengths[0]] @ grads[:ends[0]]
    part = np.empty_like(total)
    for k in range(1, len(lengths)):
        total += np.matmul(seq[k, :, :lengths[k]], grads[ends[k - 1]:ends[k]], out=part)
    return total


def _products(xs: list[np.ndarray], w: np.ndarray) -> list[np.ndarray]:
    """x @ w for each x in `xs`: a scan's backward-direction input products."""
    return [x @ w for x in xs]


def _flat_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.T @ y over both flattened to 2-D along their last axis: the `w_rec`
    gradient from time-major states and gate gradients."""
    return x.reshape(-1, x.shape[-1]).T @ y.reshape(-1, y.shape[-1])


def bilstm_scan(groups, w_in, bias, w_rec) -> list[Node]:
    """Both directions of a bi-LSTM over groups of rows, from each group's
    input sequence to its states in one op and one time loop.

    `groups` holds one (seq, mask) pair per group: `seq` is a (B_g, in, T_g)
    node and `mask` (B_g, T_g) is right-padded: 1.0 at the real tokens,
    which come first in each row, and 0.0 at the padding after them;
    anything else raises ValueError.  `w_in` (in, 4h), `bias` (4h,) and
    `w_rec` (h, 4h) are each the (forward, backward) pair all groups share,
    gate columns in [input, forget, cell, output] blocks.  Returns one
    C-ordered (B_g, 2h, T_g) node per group, forward states in rows :h and
    backward ones in rows h:.

    A direction's input projections x_t @ w_in + bias are one product per
    group over its (B_g, T_g, in) view, padding included.  The forward one is
    written by `out=` straight into its slot of the scan's time-major buffer,
    a strided layout BLAS takes, with the contiguous product's bits; the
    backward one is formed contiguous and copied in time-reversed.  The
    helper thread forms every group's backward product, in one task, while
    the main thread writes the forward ones; the scan waits for that task
    even when it raises, and an error raised in the task is raised here.
    The main thread makes the backward bias adds, time-reversed copies and
    mask fills.  Each bias is added over long contiguous runs: the forward
    slot viewed as (T_g, B_g*4h) plus the bias tiled B_g times, the backward
    product viewed as (B_g, T_g*4h) plus it tiled T_g times.  Each step computes
    gates = proj_t + h @ w_rec, one sigmoid over all four blocks with tanh on
    the cell block, c = f*c + i*g and h = o*tanh(c), from zero initial
    states; a group's forward direction runs from t = 0 and its backward one
    from its own t = T_g-1.  With k its mask column, a step keeps k*c and
    k*h, so the state is zero at padding, which no real position of either
    direction reads, and so are the outputs there.

    The sigmoid is 0.5*tanh(x/2) + 0.5, so one tanh covers all four blocks:
    once per scan, the sigmoid blocks' columns of w_in, bias and w_rec are
    halved, each weight in its own dtype, so that every product keeps the
    dtype it has unhalved.  Halving is exact away from the subnormal range,
    so x @ (w_in*s) + bias*s has the bits of (x @ w_in + bias)*s and the tanh
    reads x/2 there, bit for bit.

    A step allocates nothing: it writes into buffers made once per scan, or
    once per segment of steps that run the same rows, and keeps each
    element's operand order, so its bits are those of the formulas above.
    Forward it makes 12 numpy calls: the recurrent product, the projection
    add, one tanh over the whole slot, a multiply and an add (0.5 and 0.5 on
    the sigmoid blocks, 1 and 0 on the cell block), four for c and three for
    h.  Every operand of a step has the step's full shape, so numpy runs it
    as long contiguous runs: an operand broadcast from a (4h,) vector would
    cost one short inner loop per row.  Backward reads the unhalved w_rec
    and makes 19: eight update dh and dc in place, three write the input,
    forget and output blocks (dc*g, dc*c_prev, dh*tanh(c)) into the step's
    slot of a zeroed buffer, one multiplies the whole slot by the gates, one
    rewrites the cell block as dc*i, four multiply the whole slot by
    1 - gate (1 - g*g on the cell block), one more updates dc, and the last
    is the BPTT product dh = d_gates @ w_rec.T, which t = 0 skips, as
    nothing reads it.

    The groups share one time-major buffer in decreasing T_g order, so the
    groups still running at step s are a row prefix, and each step is one
    (2, rows, h) @ (2, h, 4h) matmul over that prefix.  Every group gets the
    bits of a call of its own.  The bit rule: a row's result from that
    product does not depend on the number of rows, except that OpenBLAS
    takes its gemv path for a single row, so a one-row group that shares
    steps with another group may move by an ulp.

    Gradients flow through one group only: with more than one, an input that
    needs a gradient raises ValueError.  Backward gathers each direction's
    gate gradients at the real tokens once, (N, 4h) in (row, time) order,
    and forms from them alone the bias gradient (their row sum), the `w_in`
    one (seq[k, :, :L_k] @ row k's rows, summed over k in stack order) and
    the input one (rows @ w_in.T, both directions added, in a zeroed
    C-ordered (B, in, T) array).  The bias and `w_in` ones have the bits of
    the same sums over the padded rows, where the gradients are zero (for
    in > 1: one input feature makes the product a gemv).  So does the input
    one at the model's paper widths, but OpenBLAS picks its kernel by a
    product's shape, so at small widths N rows in one product may round
    otherwise than T rows per batch row, by an ulp.  The `w_in` and `w_rec`
    products run on the helper thread.  Under `no_grad` no
    activations are kept.  `mask` is never differentiated.
    """
    w_in, bias, w_rec = ([as_node(w) for w in pair] for pair in (w_in, bias, w_rec))
    weights = (*w_in, *bias, *w_rec)
    in_dim, hidden = w_in[0].shape[0], w_rec[0].shape[0]
    shapes = [(in_dim, 4 * hidden)] * 2 + [(4 * hidden,)] * 2 + [(hidden, 4 * hidden)] * 2
    if not groups:
        raise ValueError("bilstm_scan: no groups")
    seqs, masks = [], []
    for seq, mask in groups:
        seq, mask = as_node(seq), np.asarray(mask)
        if (seq.value.ndim != 3 or seq.shape[1] != in_dim
                or mask.shape != (seq.shape[0], seq.shape[2])
                or [w.shape for w in weights] != shapes):
            raise ShapeMismatchError("bilstm_scan", seq.shape, mask.shape,
                                     *(w.shape for w in weights))
        if not np.array_equal(mask, np.arange(mask.shape[1]) < mask.sum(axis=1, keepdims=True)):
            raise ValueError("bilstm_scan: mask must be 1 at the real tokens and 0 at the "
                             "padding after them")
        seqs.append(seq)
        masks.append(mask)
    dtypes = {np.result_type(seq.value, w.value, b.value) for seq in seqs
              for w, b in zip(w_in, bias)}
    if len(dtypes) > 1:
        raise ValueError("bilstm_scan: every projection must have one dtype")
    [dtype] = dtypes
    parents = (*seqs, *weights)
    record = _grad_enabled and any(p.needs_grad for p in parents)
    if record and len(groups) > 1:
        raise ValueError(f"bilstm_scan: gradients flow through one group, got {len(groups)}")
    # Rows of the groups in decreasing length order.  Steps lo..hi-1 of a
    # segment (lo, hi, n) run the first n rows; the last steps come first.
    rows, segments, start = [None] * len(groups), [], 0
    order = sorted(range(len(groups)), key=lambda g: -masks[g].shape[1])
    for g, after in zip(order, order[1:] + [None]):
        rows[g] = slice(start, start + len(masks[g]))
        start += len(masks[g])
        lo = 0 if after is None else masks[after].shape[1]
        if lo < masks[g].shape[1]:
            segments.append((lo, masks[g].shape[1], start))
    batch, steps = start, max(m.shape[1] for m in masks)
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]  # i, f, g, o
    # sigmoid(x) = 0.5*tanh(x/2) + 0.5 on the i, f and o blocks, tanh on g.
    scale = np.full(4 * hidden, 0.5, dtype)
    scale[blocks[2]] = 1.0
    # Each weight halved in its own dtype, so each product keeps its dtype.
    (w_fwd, b_fwd), (w_bwd, b_bwd) = ((w.value * scale.astype(w.dtype),
                                       b.value * scale.astype(b.dtype))
                                      for w, b in zip(w_in, bias))
    xs = np.empty((steps, 2, batch, 4 * hidden), dtype)
    keep = np.empty((steps, 2, batch, hidden), dtype)   # full width: no broadcast per step
    inputs = [seq.value.transpose(0, 2, 1) for seq in seqs]
    # Every group's backward-direction product on the helper thread, in one
    # task, while this thread writes the forward ones.
    bwd_products = _submit(_products, inputs, w_bwd)
    try:
        for x, mask, r in zip(inputs, masks, rows):
            n, length = mask.shape
            # Time-major, the backward half time-reversed, so every step slice
            # is contiguous.  The forward product goes straight into its slot,
            # whose rows r are one contiguous run per step.
            fwd = xs[:length, 0, r]
            np.matmul(x, w_fwd, out=fwd.transpose(1, 0, 2))
            fwd_runs = fwd.reshape(length, n * 4 * hidden)
            fwd_runs += np.tile(b_fwd, n)
    finally:
        wait((bwd_products,))
    for bwd, mask, r in zip(bwd_products.result(), masks, rows):
        n, length = mask.shape
        bwd = bwd.astype(dtype, copy=False)
        bwd_runs = bwd.reshape(n, length * 4 * hidden)
        bwd_runs += np.tile(b_bwd, length)
        xs[:length, 1, r][::-1] = bwd.transpose(1, 0, 2)
        # One repeat for both directions: a broadcast mask.T[..., None] would
        # run one h-element loop per (time, row).
        keep_g = np.repeat(mask.T, hidden, axis=1).reshape(length, n, hidden)
        for keep_k in _scan_unstack(keep[:length, :, r]):
            keep_k[...] = keep_g
    w = np.stack([w.value for w in w_rec])
    w_half = w * scale
    # The gate affine's operands at full width, so a step's runs are long.
    scale = np.broadcast_to(scale, (2, batch, 4 * hidden)).copy()
    shift = 1.0 - scale
    # Step t reads state row t and writes row t + 1; row 0 is the zero initial
    # state.  Without backward one slot of acts and two of cells are reused.
    kept = steps if record else 1
    acts = np.empty((kept, 2, batch, 4 * hidden), dtype)
    tanh_c = np.empty((kept, 2, batch, hidden), dtype)
    cells = np.empty((kept + 1, 2, batch, hidden), dtype)
    states = np.empty((steps + 1, 2, batch, hidden), dtype)
    cells[0] = states[0] = 0
    for lo, hi, n in reversed(segments):
        xs_n, keep_n, acts_n, tanh_n, cells_n, states_n = (
            buf[:, :, :n] for buf in (xs, keep, acts, tanh_c, cells, states))
        scale_n, shift_n = scale[:, :n], shift[:, :n]
        # The step's buffers: every product and sum below is written in place.
        gates = np.empty((2, n, 4 * hidden), dtype)
        ig = np.empty((2, n, hidden), dtype)
        for t in range(lo, hi):
            np.matmul(states_n[t], w_half, out=gates)
            gates += xs_n[t]
            a = acts_n[t % kept]
            np.tanh(gates, out=a)
            a *= scale_n
            a += shift_n
            i, f, cand, o = (a[..., b] for b in blocks)
            c_prev, c = cells_n[t % (kept + 1)], cells_n[(t + 1) % (kept + 1)]
            k, tc, h = keep_n[t], tanh_n[t % kept], states_n[t + 1]
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, cand, out=ig)
            c *= k
            np.multiply(o, np.tanh(c, out=tc), out=h)
            h *= k
    xs = xs_n = None            # free the inputs before the outputs are copied out

    def back(g):
        gs = np.empty((steps, 2, batch, hidden), dtype)
        gs[:, 0] = g[:, :hidden].transpose(2, 0, 1)
        gs[:, 1] = g[:, hidden:, ::-1].transpose(2, 0, 1)
        # Zeroed: a step multiplies its cell block by the gates before writing it.
        d_gates = np.zeros_like(acts)
        w_t = w.swapaxes(1, 2)
        dh, dc, tc_slope, dh_o = np.zeros((4, 2, batch, hidden), dtype)
        factor = np.empty((2, batch, 4 * hidden), dtype)
        factor_cell = factor[..., blocks[2]]
        for t in range(steps - 1, -1, -1):
            a, dg = acts[t], d_gates[t]
            i, f, cand, o = (a[..., b] for b in blocks)
            dg_i, dg_f, dg_cell, dg_o = (dg[..., b] for b in blocks)
            tc = tanh_c[t]
            dh += gs[t]
            dh *= keep[t]
            dc *= keep[t]
            np.subtract(1.0, np.multiply(tc, tc, out=tc_slope), out=tc_slope)
            dc += np.multiply(np.multiply(dh, o, out=dh_o), tc_slope, out=dh_o)
            np.multiply(dc, cand, out=dg_i)
            np.multiply(dc, cells[t], out=dg_f)
            np.multiply(dh, tc, out=dg_o)
            dg *= a
            np.multiply(dc, i, out=dg_cell)
            np.subtract(1.0, a, out=factor)
            np.subtract(1.0, np.multiply(cand, cand, out=factor_cell), out=factor_cell)
            dg *= factor
            if t:               # at t = 0 no earlier step reads dh or dc
                dc *= f
                np.matmul(dg, w_t, out=dh)
        [seq], real = seqs, masks[0] != 0
        d_dirs = _scan_unstack(d_gates)
        # Each direction's gate gradients at the real tokens, (N, 4h) in (row, time) order.
        real_rows = [d_k.transpose(1, 0, 2)[real] for d_k in d_dirs]
        lengths = real.sum(axis=1)
        # The weight products first, so the helper thread starts on them while
        # this thread forms the input gradient.
        for w_node, b_node, r_node, rows_k, d_k, h_k in zip(
                w_in, bias, w_rec, real_rows, d_dirs, _scan_unstack(states[:steps])):
            if b_node.needs_grad:
                _accumulate(b_node, rows_k.sum(axis=0), fresh=True)
            if w_node.needs_grad:
                _defer(w_node, _row_products_sum, seq.value, rows_k, lengths)
            if r_node.needs_grad:
                _defer(r_node, _flat_product, h_k, d_k)
        if seq.needs_grad:
            rows_grad = real_rows[1] @ w_in[1].value.T
            rows_grad += real_rows[0] @ w_in[0].value.T
            grad = np.zeros(seq.shape, seq.dtype)
            grad.transpose(0, 2, 1)[real] = rows_grad
            _accumulate(seq, grad, fresh=True)

    outs = []
    for mask, r in zip(masks, rows):
        length = mask.shape[1]
        value = np.empty((r.stop - r.start, 2 * hidden, length), dtype)
        # C order, not the time-major one: downstream matmuls round by layout.
        value[:, :hidden], value[:, hidden:] = (s.transpose(1, 2, 0) for s in
                                                _scan_unstack(states[1:length + 1, :, r]))
        outs.append(_make("bilstm_scan", value, parents, back))
    return outs


# ---------------------------------------------------------------------------
# regularization


def _keep_factors(rng: np.random.Generator, shape: tuple[int, ...], rate: float,
                  dtype) -> np.ndarray:
    """Inverted dropout's keep factors: 1/(1 - rate) in `dtype` where a
    uniform draw from `rng` is at least `rate`, else 0.  The one formula of
    a `KeepFactors` stream's blocks."""
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= 1.0 - rate
    return keep


class KeepFactors:
    """The keep factors of `dropout` calls at one rate and dtype, drawn from
    `rng` ahead of the calls that take them, on the helper thread.

    Each `take` returns the next factors of the stream.  Uniform draws
    compose: drawing n1 + n2 values at once gives the values of drawing n1
    and then n2.  So the factors of a call are `_keep_factors` of one draw
    of the call's size from `rng`, in the order of the calls, however the
    stream is cut into blocks.  The rate must be in [0, 1).  The lookahead
    follows demand: a call takes what is drawn, waits for a block of the
    shortfall when it asks for more, and hands the helper a block of its own
    size, so at least the largest request seen so far is drawn ahead.  Once
    the stream exists only the helper reads `rng`.  `close` waits for every
    block and drops the factors not taken; the stream is its own context
    manager.  An error raised in a draw is raised by the `take` that waits
    for it.
    """

    def __init__(self, rng: np.random.Generator, rate: float, dtype):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rng, self.rate, self.dtype = rng, rate, np.dtype(dtype)
        self._blocks: deque[Future] = deque()   # drawn or being drawn, in order
        self._taken = 0             # values of the first block already taken
        self._ahead = 0             # values in the blocks not yet taken

    def _draw(self, size: int) -> None:
        if size:
            self._blocks.append(_submit(_keep_factors, self.rng, (size,), self.rate,
                                        self.dtype))
            self._ahead += size

    def take(self, shape: tuple[int, ...], rate: float, dtype) -> np.ndarray:
        """The next factors, in `shape`, for a call at `rate` in `dtype`,
        which must be the stream's."""
        if rate != self.rate or np.dtype(dtype) != self.dtype:
            raise ValueError(f"keep factors are drawn at rate {self.rate} in "
                             f"{self.dtype}, not at rate {rate} in {np.dtype(dtype)}")
        size = math.prod(shape)
        if not size:
            return np.empty(shape, self.dtype)
        self._draw(max(size - self._ahead, 0))  # the shortfall
        self._draw(size)                        # the refill of what this call takes
        parts, need = [], size
        while need:
            block = self._blocks[0].result()
            parts.append(block[self._taken:self._taken + need])
            need -= len(parts[-1])
            self._taken += len(parts[-1])
            if self._taken == len(block):
                self._blocks.popleft()
                self._taken = 0
        self._ahead -= size
        keep = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return keep.reshape(shape)

    def close(self) -> None:
        wait(self._blocks)
        self._blocks.clear()
        self._taken = self._ahead = 0

    def __enter__(self) -> KeepFactors:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def dropout(a: Node, rate: float, keep_factors: KeepFactors | None) -> Node:
    """Inverted dropout by the next factors of `keep_factors`, a stream that
    has drawn them ahead.  Identity when it is None or rate is 0."""
    a = as_node(a)
    if keep_factors is None or rate == 0.0:
        return a
    keep = keep_factors.take(a.value.shape, rate, a.value.dtype)
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
