"""Dense float64 tensors with reverse-mode automatic differentiation.

The computation graph doubles as the tape: every operation returns a new
Tensor holding its cached forward value, its parent tensors, and a closure
that maps the incoming gradient to per-parent gradients. `backward` walks
that graph once in reverse topological order. Tapes are rebuilt on every
forward pass, so variable-length inputs need no special casing.

Tensors are immutable after construction (their buffers are marked
read-only); parameter updates replace the Tensor object. Broadcasting is
deliberately restricted: elementwise ops accept equal shapes or a trailing
row vector against a matrix, and `scale_rows` covers per-row scaling.
Anything else must be reshaped explicitly so shape bugs surface where they
are made.
"""

from __future__ import annotations

import numpy as np

from rdecomp import _kernels


class ShapeError(ValueError):
    """Raised when an operation receives shape-incompatible inputs."""


class Tensor:
    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False
        self.data = arr
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={self.vjp is None})"


def _result(arr, parents, vjp):
    out = Tensor.__new__(Tensor)
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    out.data = arr
    out.parents = tuple(parents)
    out.vjp = vjp
    return out


def constant(data):
    """Leaf tensor; gradients never flow into it."""
    return Tensor(data)


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{op} produced non-finite values")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary_shapes(a, b, op):
    """Equal shapes, or b a row vector broadcast over a's leading dim."""
    if a.shape == b.shape:
        return "same"
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return "row"
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b):
    mode = _binary_shapes(a, b, "add")

    def vjp(g):
        gb = g if mode == "same" else g.sum(axis=0)
        return g, gb

    return _result(a.data + b.data, (a, b), vjp)


def sub(a, b):
    mode = _binary_shapes(a, b, "sub")

    def vjp(g):
        gb = -g if mode == "same" else -g.sum(axis=0)
        return g, gb

    return _result(a.data - b.data, (a, b), vjp)


def mul(a, b):
    mode = _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data

    def vjp(g):
        ga = g * bd
        gb = g * ad if mode == "same" else (g * ad).sum(axis=0)
        return ga, gb

    return _result(ad * bd, (a, b), vjp)


def scale(a, c):
    """Multiply by a python float (no gradient for c)."""
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def shift(a, c):
    """Add a python float (no gradient for c)."""
    return _result(a.data + float(c), (a,), lambda g: (g,))


def neg(a):
    return scale(a, -1.0)


def square(a):
    ad = a.data
    return _result(ad * ad, (a,), lambda g: (2.0 * g * ad,))


def scale_rows(x, s):
    """Multiply row i of x by s[i]. s has shape (m,) or (m, 1) for x (m, n)."""
    sd = s.data.reshape(-1)
    if x.data.ndim != 2 or sd.shape[0] != x.shape[0]:
        raise ShapeError(f"scale_rows: got x {x.shape}, s {s.shape}")
    xd = x.data

    def vjp(g):
        gx = g * sd[:, None]
        gs = (g * xd).sum(axis=1).reshape(s.shape)
        return gx, gs

    return _result(xd * sd[:, None], (x, s), vjp)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    return _result(y, (a,), lambda g: (_kernels.tanh_vjp(y, g),))


def sigmoid(a):
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return _result(y, (a,), lambda g: (_kernels.sigmoid_vjp(y, g),))


def exp(a):
    y = np.exp(a.data)
    _check_finite(y, "exp")
    return _result(y, (a,), lambda g: (g * y,))


def log(a):
    if np.any(a.data <= 0.0):
        raise FloatingPointError("log of non-positive value")
    ad = a.data
    return _result(np.log(ad), (a,), lambda g: (g / ad,))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; gradient is zero on the clamped entries."""
    ad = a.data
    inside = ((ad >= lo) & (ad <= hi)).astype(np.float64)
    return _result(np.clip(ad, lo, hi), (a,), lambda g: (g * inside,))


def minimum(a, b):
    _binary_shapes(a, b, "minimum")
    take_a = (a.data <= b.data).astype(np.float64)

    def vjp(g):
        return g * take_a, g * (1.0 - take_a)

    return _result(np.minimum(a.data, b.data), (a, b), vjp)


def maximum(a, b):
    _binary_shapes(a, b, "maximum")
    take_a = (a.data >= b.data).astype(np.float64)

    def vjp(g):
        return g * take_a, g * (1.0 - take_a)

    return _result(np.maximum(a.data, b.data), (a, b), vjp)


# ---------------------------------------------------------------------------
# contractions and reductions


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return _kernels.matmul(g, bd.T), _kernels.matmul(ad.T, g)

    return _result(_kernels.matmul(ad, bd), (a, b), vjp)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need 2-D, got {a.shape}")
    return _result(np.ascontiguousarray(a.data.T), (a,), lambda g: (g.T,))


def sum_all(a):
    shape = a.shape
    return _result(
        np.array([[a.data.sum()]]), (a,), lambda g: (np.full(shape, g.reshape(-1)[0]),)
    )


def mean_all(a):
    n = a.data.size
    shape = a.shape
    return _result(
        np.array([[a.data.mean()]]),
        (a,),
        lambda g: (np.full(shape, g.reshape(-1)[0] / n),),
    )


def sum_axis(a, axis):
    if a.data.ndim != 2:
        raise ShapeError(f"sum_axis: need 2-D, got {a.shape}")
    m, n = a.shape

    def vjp(g):
        if axis == 0:
            return (np.broadcast_to(g.reshape(1, n), (m, n)).copy(),)
        return (np.broadcast_to(g.reshape(m, 1), (m, n)).copy(),)

    return _result(a.data.sum(axis=axis, keepdims=True), (a,), vjp)


# ---------------------------------------------------------------------------
# structure


def reshape(a, shape):
    old = a.shape
    out = a.data.reshape(shape)
    return _result(out.copy(), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input")
    ndim = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat: mixed ranks {[t.shape for t in tensors]}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(sizes))
        )

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def narrow(a, axis, start, stop):
    """Contiguous slice along one axis (the `slice` primitive)."""
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError(f"narrow: [{start}:{stop}] out of range for {a.shape} axis {axis}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[tuple(idx)] = g
        return (full,)

    return _result(a.data[tuple(idx)].copy(), (a,), vjp)


def take_per_row(a, indices):
    """Pick one column per row: out[i] = a[i, indices[i]], shape (m, 1)."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_per_row: need 2-D, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.shape[0] != a.shape[0]:
        raise ShapeError(f"take_per_row: {idx.shape[0]} indices for {a.shape[0]} rows")
    m, n = a.shape
    rows = np.arange(m)

    def vjp(g):
        full = np.zeros((m, n))
        full[rows, idx] = g.reshape(-1)
        return (full,)

    return _result(a.data[rows, idx].reshape(m, 1), (a,), vjp)


# ---------------------------------------------------------------------------
# row-wise normalized ops


def softmax(a, causal=False):
    """Row-wise softmax; with causal=True column j > i is masked out of row i."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax: need 2-D, got {a.shape}")
    p = _kernels.softmax_rows(a.data, causal)
    return _result(p, (a,), lambda g: (_kernels.softmax_rows_vjp(p, g),))


def log_softmax(a):
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax: need 2-D, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - logz
    p = np.exp(out)

    def vjp(g):
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _result(out, (a,), vjp)


def layer_norm(x, gain, bias, eps=1e-5):
    """Row-wise layer normalization with learned gain and bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: need 2-D, got {x.shape}")
    n = x.shape[1]
    if gain.data.reshape(-1).shape[0] != n or bias.data.reshape(-1).shape[0] != n:
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} vs width {n}"
        )
    y, xhat, inv_std = _kernels.layer_norm_rows(
        x.data, gain.data.reshape(-1), bias.data.reshape(-1), eps
    )

    def vjp(g):
        dx, dgain, dbias = _kernels.layer_norm_rows_vjp(
            xhat, inv_std, gain.data.reshape(-1), g
        )
        return dx, dgain.reshape(gain.shape), dbias.reshape(bias.shape)

    return _result(y, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# reverse pass


class Gradients:
    """Gradient map keyed by tensor identity; absent tensors read as zero."""

    def __init__(self, table):
        self._table = table

    def of(self, tensor):
        got = self._table.get(id(tensor))
        if got is None:
            return np.zeros(tensor.shape)
        return got

    def __contains__(self, tensor):
        return id(tensor) in self._table


def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root):
    """Reverse-mode sweep from a scalar root; returns a `Gradients` map."""
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    table = {id(root): np.ones(root.shape)}
    for node in reversed(_topo_order(root)):
        g = table.get(id(node))
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            acc = table.get(id(parent))
            if acc is None:
                table[id(parent)] = np.array(pg, dtype=np.float64)
            else:
                table[id(parent)] = acc + pg
    return Gradients(table)
