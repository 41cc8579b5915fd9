"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic computation graph of `Value` nodes, rebuilt on every evaluation.
Arrays are numpy float64 throughout; backward adds each leaf's gradient
into its .grad in place, so calling backward twice without resetting
doubles them. Backward closures build no gradient for operands that do
not require one (data, shifts, targets), and `dense` fuses a layer's
matmul, bias and SELU into one node.
Inside a `workspace()`, the forward ops and the backward closures write
results of `_POOL_MIN_SIZE` elements or more into pooled arrays, with grad
on or off, so row-block loops and training steps stop allocating after the
first. The pool belongs to the thread that opened the workspace, so threads
that evaluate at once each reuse only their own arrays. The grad flag is one
module global shared by all threads.
"""

import contextlib
import math
import sys
import threading

import numpy as np

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805
_SELU_SLOPE_AT_ZERO = SELU_LAMBDA * SELU_ALPHA     # d selu / dz as z -> 0-


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_grad_enabled = True
_pass_grads = None


class _PerThread(threading.local):
    pool = None                 # the innermost workspace's pool, per thread


_local = _PerThread()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path).

    The flag is one module global, not a per-thread one: threads started
    inside the block see grad off, and a nested block in one of them saves
    and restores False. Only the outermost block may turn grad back on, so
    it must outlive every thread that evaluates under it.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def workspace():
    """Pool the result arrays of the ops run inside the block.

    The elementwise ops, `neg`, `exp`, `tanh`, `square`, `sum(axis,
    keepdims=True)`, `concat`, `repeat_rows` and `dense`, and with grad on
    the gradient sums and the temporaries of the `dense`, `sum`, `slice`,
    `mul` and `exp` backward closures, write into arrays kept per shape. An
    array is handed out again only when nothing else refers to it: no
    Value, no closure, no view, no name. Live results are therefore never
    overwritten and need no copy, and a loop over row blocks or training
    batches of one shape allocates only in its first pass. Shapes of fewer
    than `_POOL_MIN_SIZE` elements allocate as they do outside. Yields the
    pool, a dict shape -> arrays, which is dropped on exit. The pool is the
    calling thread's: ops that other threads run meanwhile use their own
    workspace, or none.
    """
    prev = _local.pool
    _local.pool = pool = {}
    try:
        yield pool
    finally:
        _local.pool = prev


def _first_free(arrays, refs):
    """The first of `arrays` holding exactly `refs` references here, or None."""
    for arr in arrays:
        if sys.getrefcount(arr) == refs:
            return arr
    return None


# References an array that only its pool list holds has inside `_first_free`
# (the list, the loop name, getrefcount's argument, as this interpreter counts)
_FREE_REFS = next(r for r in range(1, 16) if _first_free([np.empty(0)], r) is not None)


# Arrays of fewer elements (32 KiB) allocate outside the pool: malloc serves
# them from its free lists with no page fault to spare, so pooling them saved
# no time, and keeping them all alive raised the regularized flow training's
# peak RSS by 0.7 MB. Arrays over glibc's 128 KiB mmap threshold are mapped
# and faulted in afresh on every malloc; the pool spares them that.
_POOL_MIN_SIZE = 4096


def _buffer(shape):
    """A pooled float64 array of `shape` for an op's result, or None.

    None (the op allocates) outside this thread's `workspace()` and for
    shapes of fewer than `_POOL_MIN_SIZE` elements.
    """
    pool = _local.pool
    if pool is None or math.prod(shape) < _POOL_MIN_SIZE:
        return None
    arrays = pool.get(shape)
    if arrays is None:
        arrays = pool[shape] = []
    arr = _first_free(arrays, _FREE_REFS)
    if arr is None:
        arr = np.empty(shape)
        arrays.append(arr)
    return arr


def _filled(shape, value):
    """An array of `shape` holding `value` broadcast, from the pool if it has one."""
    out = _buffer(shape)
    if out is None:
        out = np.empty(shape)
    out[...] = value
    return out


def _broadcast_shape(s, t):
    """np.broadcast_shapes(s, t), without its cost in the common cases."""
    if s == t or t == (1,):
        return s
    if s == (1,):
        return t
    if len(s) == len(t) and 0 not in s + t:
        return tuple(map(max, s, t))    # shapes that do not broadcast fail in the op
    return np.broadcast_shapes(s, t)


def _as_array(data):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Value:
    """A node in the backward graph: data, optional grad, parent record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value(shape={self.data.shape}, op={self._op!r})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _node(data, parents, op, backward):
        out = Value(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    def _accum(self, grad):
        g = _unbroadcast(grad, self.data.shape)
        key = id(self)
        prev = _pass_grads.get(key)
        _pass_grads[key] = g if prev is None else np.add(prev, g, out=_buffer(prev.shape))

    def backward(self):
        """Add d(self)/d(leaf) into .grad of every reachable leaf.

        Gradients of one pass are kept in pass-local storage, and a node's
        is dropped once its closure has run, so inside a `workspace()` its
        array returns to the pool during the sweep. When the one reverse
        sweep reaches a leaf, its pass total is added into its .grad in
        place (a leaf without one gets a copy). Running backward twice
        on the same graph accumulates exactly twice the gradient, and a
        .grad that is a view of AdamW's vector is written through.
        """
        global _pass_grads
        if self.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        _pass_grads = {}
        try:
            self._accum(np.ones_like(self.data))
            for node in reversed(topo):
                g = _pass_grads.pop(id(node), None)
                if g is None:
                    continue
                if node._backward is not None:
                    node._backward(g)
                elif node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
        finally:
            _pass_grads = None

    # -- elementwise arithmetic ---------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Value) else Value(other)

    @staticmethod
    def _elementwise(op, a, b, fn):
        x, y = a.data, b.data
        try:
            if _local.pool is None:
                return fn(x, y)
            return fn(x, y, out=_buffer(_broadcast_shape(x.shape, y.shape)))
        except ValueError as exc:
            raise ShapeError(f"{op}: incompatible shapes {a.data.shape} "
                             f"and {b.data.shape}") from exc

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = Value._elementwise("add", a, b, np.add)

        def backward(g):
            if a.requires_grad:
                a._accum(g)
            if b.requires_grad:
                b._accum(g)

        return Value._node(out, (a, b), "add", backward)

    __radd__ = __add__

    def __neg__(self):
        a = self
        out = np.negative(a.data, out=_buffer(a.data.shape))
        return Value._node(out, (a,), "neg", lambda g: a._accum(-g))

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = Value._elementwise("subtract", a, b, np.subtract)

        def backward(g):
            if a.requires_grad:
                a._accum(g)
            if b.requires_grad:
                b._accum(-g)

        return Value._node(out, (a, b), "sub", backward)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = Value._elementwise("multiply", a, b, np.multiply)

        def backward(g):
            if a.requires_grad:
                a._accum(np.multiply(g, b.data, out=_buffer(g.shape)))
            if b.requires_grad:
                b._accum(np.multiply(g, a.data, out=_buffer(g.shape)))

        return Value._node(out, (a, b), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out = Value._elementwise("divide", a, b, np.divide)

        def backward(g):
            if a.requires_grad:
                a._accum(g / b.data)
            if b.requires_grad:
                b._accum(-g * a.data / (b.data * b.data))

        return Value._node(out, (a, b), "div", backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")

        def backward(g):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return Value._node(a.data @ b.data, (a, b), "matmul", backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        buf = None
        if keepdims and axis is not None:
            shape = list(a.data.shape)
            shape[axis] = 1
            buf = _buffer(tuple(shape))
        out = a.data.sum(axis=axis, keepdims=keepdims, out=buf)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(_filled(a.data.shape, g))

        return Value._node(out, (a,), "sum", backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise functions ------------------------------------------------

    def exp(self):
        a = self
        out = np.exp(a.data, out=_buffer(a.data.shape))
        return Value._node(out, (a,), "exp",
                           lambda g: a._accum(np.multiply(g, out, out=_buffer(g.shape))))

    def log(self):
        a = self
        return Value._node(np.log(a.data), (a,), "log", lambda g: a._accum(g / a.data))

    def square(self):
        a = self
        out = np.multiply(a.data, a.data, out=_buffer(a.data.shape))
        return Value._node(out, (a,), "square",
                           lambda g: a._accum(2.0 * g * a.data))

    def abs(self):
        a = self
        return Value._node(np.abs(a.data), (a,), "abs",
                           lambda g: a._accum(g * np.sign(a.data)))

    def maximum_with(self, c):
        """Elementwise max(x, c) for a scalar constant c (rectifier for c=0)."""
        a = self
        c = float(c)
        mask = (a.data > c).astype(np.float64)
        return Value._node(np.maximum(a.data, c), (a,), "maximum_with",
                           lambda g: a._accum(g * mask))

    def relu(self):
        return self.maximum_with(0.0)

    def tanh(self):
        a = self
        out = np.tanh(a.data, out=_buffer(a.data.shape))
        return Value._node(out, (a,), "tanh", lambda g: a._accum(g * (1.0 - out * out)))

    def selu(self):
        a = self
        x = a.data
        neg = np.minimum(x, 0.0)
        out = SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(neg))

        def backward(g):
            local = SELU_LAMBDA * np.where(x > 0, 1.0, SELU_ALPHA * np.exp(neg))
            a._accum(g * local)

        return Value._node(out, (a,), "selu", backward)

    # -- structural ops --------------------------------------------------------

    def __getitem__(self, key):
        a = self
        out = a.data[key]

        def backward(g):
            full = _filled(a.data.shape, 0.0)
            full[key] += g
            a._accum(full)

        return Value._node(out, (a,), "slice", backward)

    def reshape(self, *shape):
        a = self
        shape = shape[0] if len(shape) == 1 and isinstance(shape[0], tuple) else shape
        return Value._node(a.data.reshape(shape), (a,), "reshape",
                           lambda g: a._accum(g.reshape(a.data.shape)))

    def transpose(self):
        a = self
        return Value._node(a.data.T, (a,), "transpose", lambda g: a._accum(g.T))


def concat(values, axis=1):
    """Concatenate values along an axis; gradient splits back per operand."""
    values = [v if isinstance(v, Value) else Value(v) for v in values]
    datas = [v.data for v in values]
    base = datas[0].shape
    for d in datas[1:]:
        if len(d.shape) != len(base) or any(
                d.shape[i] != base[i] for i in range(len(base)) if i != axis):
            raise ShapeError(f"concat axis={axis}: incompatible shapes "
                             f"{[d.shape for d in datas]}")
    shape = list(base)
    shape[axis] = sum(d.shape[axis] for d in datas)
    out = np.concatenate(datas, axis=axis, out=_buffer(tuple(shape)))

    def backward(g):
        splits = np.cumsum([v.data.shape[axis] for v in values])[:-1]
        for v, piece in zip(values, np.split(g, splits, axis=axis)):
            if v.requires_grad:
                v._accum(piece)

    return Value._node(out, tuple(values), "concat", backward)


def repeat_rows(v, k):
    """Repeat each row of a 2D value k times consecutively: (n, m) -> (n*k, m)."""
    if v.data.ndim != 2:
        raise ShapeError(f"repeat_rows expects 2D input, got {v.data.shape}")
    n, m = v.data.shape
    out = _buffer((n * k, m))
    if out is None or m == 0:
        out = np.repeat(v.data, k, axis=0)
    else:
        # each row one void item, so the copy loops over k rather than m
        row = np.dtype((np.void, 8 * m))
        out.view(row).reshape(n, k)[...] = np.ascontiguousarray(v.data).view(row)
    return Value._node(out, (v,), "repeat_rows",
                       lambda g: v._accum(g.reshape(n, k, m).sum(axis=1)))


def gather_rows(v, index):
    """Select rows by integer index; gradient scatter-adds back."""
    index = np.asarray(index, dtype=np.intp)
    out = v.data[index]

    def backward(g):
        full = np.zeros_like(v.data)
        np.add.at(full, index, g)
        v._accum(full)

    return Value._node(out, (v,), "gather_rows", backward)


def dense(x, w, b, selu=False):
    """One network layer as one node: x @ w + b, then SELU when `selu`.

    The forward runs in place on the matmul output. The SELU derivative is
    rebuilt from the output alone (lambda where it is positive, out +
    lambda * alpha elsewhere), so the node keeps no pre-activation or mask.
    The output, the derivative, its step mask and the input gradient are
    pooled arrays inside a `workspace()`.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {x.data.shape} @ {w.data.shape}")
    out = np.matmul(x.data, w.data, out=_buffer((x.data.shape[0], w.data.shape[1])))
    try:
        out += b.data
    except ValueError as exc:
        raise ShapeError(f"dense: bias shape {b.data.shape} does not fit "
                         f"output shape {out.shape}") from exc
    if selu:
        neg = np.minimum(out, 0.0, out=_buffer(out.shape))
        np.expm1(neg, out=neg)
        neg *= SELU_ALPHA
        np.maximum(out, 0.0, out=out)
        out += neg
        out *= SELU_LAMBDA

    def backward(g):
        if selu:
            # min(out, 0) + lambda*alpha, lowered to lambda where out > 0; as
            # arithmetic, several times faster than np.where on a sign mask
            local = np.minimum(out, 0.0, out=_buffer(out.shape))
            local += _SELU_SLOPE_AT_ZERO
            local -= np.multiply(out > 0.0, _SELU_SLOPE_AT_ZERO - SELU_LAMBDA,
                                 out=_buffer(out.shape))
            local *= g
            g = local
        if x.requires_grad:
            # BLAS runs a contiguous copy of the small w.T faster than the view
            x._accum(np.matmul(g, np.ascontiguousarray(w.data.T),
                               out=_buffer((g.shape[0], w.data.shape[0]))))
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            # a row of ones times g: the column sums, faster than g.sum(axis=0)
            b._accum(np.ones((1, g.shape[0])) @ g)

    return Value._node(out, (x, w, b), "dense", backward)


def straight_through(hard_data, soft):
    """Forward `hard_data`, backward routed through `soft` with unit gain."""
    out = Value._node(_as_array(hard_data), (soft,), "straight_through",
                      lambda g: soft._accum(g))
    return out
