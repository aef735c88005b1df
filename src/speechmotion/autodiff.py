"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Var wraps an ndarray together with a vector-Jacobian callback; backward()
on a scalar Var walks the graph once in reverse topological order and
accumulates gradients into every reachable node. Only the operations the
networks in this package need are implemented, and everything stays in
float64 so gradient checks against central finite differences are tight.

backward() consumes the graph it walks: once a node's VJP has run, the node
drops its gradient, its VJP closure (and the activations that closure holds)
and its parent links, so memory frees as the walk moves toward the inputs.
Leaves (Vars made directly, such as parameters) keep `.grad`; the root and
every intermediate keep only `.data`. A second backward() through a
consumed node raises ValueError. Vars are otherwise never mutated in place.

A constant (`constant(array)`) is a leaf Var that never takes a gradient:
model inputs, targets and noise draws that nothing reads a gradient of.
backward() never accumulates into a constant's `.grad`, which stays None,
and `matmul` and `conv1d_same` skip the product that would feed it.
"""

from __future__ import annotations

import numpy as np


class Var:
    """One node of a computation graph: a value plus a gradient slot."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- graph walk ----------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into leaf.grad, consuming the graph."""
        if self.data.shape != ():
            raise ValueError("backward() starts from a scalar Var")
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ValueError("graph already consumed by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones(())
        # A gradient's first arrival is stored as it is, since it may be a view
        # of (or the very array of) another node's gradient. The second arrival
        # allocates the sum, which only this walk references, so later arrivals
        # add into it in place.
        owned: set[int] = set()
        # Pop in reverse topological order, so that `order` holds no node past
        # its turn: a consumed node frees once its last reader is consumed too.
        while order:
            node = order.pop()
            if node._vjp is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, node._vjp(node.grad)):
                    if g is None or type(parent) is _Constant:
                        continue
                    if parent.grad is None:
                        parent.grad = g
                    elif id(parent) in owned:
                        parent.grad += g
                    else:
                        parent.grad = parent.grad + g
                        owned.add(id(parent))
            node.grad = node._vjp = node._parents = None

    # -- operators -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -as_var(other))

    def __rsub__(self, other):
        return add(as_var(other), -self)

    def __neg__(self):
        return Var(-self.data, (self,), lambda g: (-g,))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


class _Constant(Var):
    __slots__ = ()


def constant(data) -> Var:
    """A leaf that backward() never gives a gradient."""
    return _Constant(data)


def as_var(value) -> Var:
    return value if isinstance(value, Var) else Var(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)

    def vjp(g):
        ga = gb = None
        if type(a) is not _Constant:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if type(b) is not _Constant:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return Var(a.data @ b.data, (a, b), vjp)


def tanh(x: Var) -> Var:
    y = np.tanh(x.data)
    return Var(y, (x,), lambda g: (g * (1.0 - y * y),))


def exp(x: Var) -> Var:
    y = np.exp(x.data)
    return Var(y, (x,), lambda g: (g * y,))


def sqrt(x: Var) -> Var:
    y = np.sqrt(x.data)
    return Var(y, (x,), lambda g: (g / (2.0 * y),))


def absolute(x: Var) -> Var:
    # Subgradient 0 at exactly 0, the usual convention for L1 objectives.
    return Var(np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


def softplus(x: Var) -> Var:
    """log(1 + exp(x)), computed stably; gradient is the logistic sigmoid."""
    return Var(
        np.logaddexp(0.0, x.data),
        (x,),
        lambda g: (g / (1.0 + np.exp(-x.data)),),
    )


def sum(x: Var, axis=None) -> Var:  # noqa: A001 - mirrors numpy naming on purpose
    x = as_var(x)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, x.data.shape).copy(),)

    return Var(np.sum(x.data, axis=axis), (x,), vjp)


def mean(x: Var) -> Var:
    x = as_var(x)
    size = x.data.size
    return Var(
        np.mean(x.data),
        (x,),
        lambda g: (np.broadcast_to(g / size, x.data.shape).copy(),),
    )


def concat(parts: list[Var], axis: int = -1) -> Var:
    parts = [as_var(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    return Var(
        np.concatenate([p.data for p in parts], axis=axis),
        tuple(parts),
        lambda g: tuple(np.split(g, splits, axis=axis)),
    )


def reshape(x: Var, shape: tuple[int, ...]) -> Var:
    x = as_var(x)
    return Var(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def take_rows(x: Var, index: np.ndarray) -> Var:
    """Gather rows by a unique index array (partitioning, not sampling)."""
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return Var(x.data[index], (x,), vjp)


def scatter_rows(x: Var, index: np.ndarray, n_rows: int) -> Var:
    """Place rows of x at `index` inside an otherwise-zero (n_rows, ...) array."""
    index = np.asarray(index, dtype=np.intp)
    out = np.zeros((n_rows,) + x.data.shape[1:])
    out[index] = x.data
    return Var(out, (x,), lambda g: (g[index],))


def conv1d_same(x: Var, w: Var, b: Var) -> Var:
    """Temporal convolution with same padding.

    x: (B, T, C_in), w: (K, C_in, C_out) with K odd, b: (C_out,).
    Returns (B, T, C_out).

    Per tap, the forward is one 2-D GEMM over the whole zero-padded batch
    and the weight gradient one GEMM over all B*T rows. The input gradient
    stays one GEMM per sample: collapsed over the batch, OpenBLAS rounds some
    short-clip shapes (T 16, C_out >= 64) unlike the per-sample form.
    """
    k = w.data.shape[0]
    pad = (k - 1) // 2
    n, t, c_in = x.data.shape
    c_out = w.data.shape[2]
    xp = np.zeros((n, t + 2 * pad, c_in))
    xp[:, pad : pad + t] = x.data
    rows = xp.reshape(-1, c_in)
    y = np.empty((n, t, c_out))
    y[...] = b.data
    for i in range(k):
        y += (rows @ w.data[i]).reshape(n, t + 2 * pad, c_out)[:, i : i + t]

    def vjp(g):
        gx = gw = gb = None
        if type(b) is not _Constant:
            gb = g.sum(axis=(0, 1))
        if type(w) is not _Constant:
            g_rows = g.reshape(-1, c_out)
            gw = np.empty_like(w.data)
            # one channel-major copy; each tap's (C_in, B*T) slice-reshape is then
            # the same contiguous array the per-tap transpose-reshape would copy
            xt = xp.transpose(2, 0, 1).copy()
            for i in range(k):
                gw[i] = np.dot(xt[:, :, i : i + t].reshape(c_in, -1), g_rows)
        if type(x) is not _Constant:
            gxp = np.zeros_like(xp)
            prod = np.empty_like(x.data)
            for i in range(k):
                gxp[:, i : i + t] += np.matmul(g, w.data[i].T, out=prod)
            gx = gxp[:, pad : pad + t]
        return gx, gw, gb

    return Var(y, (x, w, b), vjp)
