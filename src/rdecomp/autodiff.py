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


def tanh_mlp_layers(x, weights, biases):
    """Numpy forward of a tanh MLP: [x, h_1, ..., h_L], h_i = tanh(h_{i-1} W + b)."""
    hs = [x]
    for w, b in zip(weights, biases, strict=True):
        if x.ndim != 2 or w.shape[0] != hs[-1].shape[1] or b.shape != w.shape[1:]:
            raise ShapeError(f"tanh_mlp_layers: layer {w.shape} + {b.shape} on {hs[-1].shape}")
        hs.append(np.tanh(_kernels.matmul(hs[-1], w) + b))
    return hs


def tanh_mlp_deltas(hs, weights, g):
    """Gradients at each layer's pre-activation, given g at the output of the
    MLP whose activations `tanh_mlp_layers` returned."""
    deltas = [_kernels.tanh_vjp(hs[-1], g)]
    for i in range(len(weights) - 1, 0, -1):
        deltas.insert(0, _kernels.tanh_vjp(hs[i], _kernels.matmul(deltas[0], weights[i].T)))
    return deltas


def sigmoid(a):
    # exp(-|x|) never overflows; each entry's value depends on that entry
    # alone, not on how many other entries share its sign.
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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


def take_rows(a, rows):
    """Rows of a 2-D tensor in the given order: out[i] = a[rows[i]]."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: need 2-D, got {a.shape}")
    rows = np.asarray(rows, dtype=np.intp)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, rows, g)
        return (full,)

    return _result(a.data[rows], (a,), vjp)


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


def softmax(a, mask=None):
    """Row-wise softmax; entries where the boolean `mask` is False are excluded."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax: need 2-D, got {a.shape}")
    p = _kernels.softmax_rows(a.data, mask)
    return _result(p, (a,), lambda g: (_kernels.softmax_rows_vjp(p, g),))


def segment_positions(lengths):
    """Index of each stacked row within its own segment: 0..len-1 per segment."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def pad_segments(rows, lengths):
    """Stacked rows of segments of the given lengths, scattered into a
    zero-padded (B, T, ...) block; T is the longest length."""
    out = np.zeros((lengths.size, int(lengths.max())) + rows.shape[1:])
    out[np.repeat(np.arange(lengths.size), lengths), segment_positions(lengths)] = rows
    return out


def causal_attention(q, k, v, lengths, n_heads):
    """Multi-head causal self-attention inside each segment of stacked rows.

    q, k (N, n_heads * dk) and v (N, n_heads * dv) hold the rows of B
    segments of the given lengths, one after another. Row i of a segment
    attends to rows 0..i of the same segment only, with scores
    q k^T / sqrt(dk). Returns the head outputs (N, n_heads * dv), side by
    side, and the attention weights as an array (B, n_heads, T, T), T the
    longest length; row i of segment b holds weights on its first i + 1
    columns only.

    The segments are scattered into a zero-padded (B, n_heads, T, .) block
    so that every segment and head is one batched matmul under one causal
    mask: a real row never reaches a padded column, which lies after it.
    Padded rows get weights too, but their outputs are dropped and get no
    gradient.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    n = q.shape[0]
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n:
        raise ShapeError(f"causal_attention: lengths {lengths.tolist()} for {n} rows")
    if k.shape != q.shape or v.shape[0] != n or q.shape[1] % n_heads or v.shape[1] % n_heads:
        raise ShapeError(
            f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape}, {n_heads} heads"
        )
    dk, dv = q.shape[1] // n_heads, v.shape[1] // n_heads
    b, t = lengths.size, int(lengths.max())
    seg, pos = np.repeat(np.arange(b), lengths), segment_positions(lengths)

    def pad(rows, width):
        return pad_segments(rows.reshape(n, n_heads, width), lengths).transpose(0, 2, 1, 3)

    def unpad(block):
        return block.transpose(0, 2, 1, 3)[seg, pos].reshape(n, -1)

    mask = np.tril(np.ones((t, t), dtype=bool))
    inv_sqrt = 1.0 / np.sqrt(dk)
    qp, kp, vp = pad(q.data, dk), pad(k.data, dk), pad(v.data, dv)
    p = _kernels.softmax_rows(np.matmul(qp, kp.transpose(0, 1, 3, 2)) * inv_sqrt, mask)
    p.flags.writeable = False

    def vjp(g):
        gp = pad(g, dv)
        ds = _kernels.softmax_rows_vjp(p, np.matmul(gp, vp.transpose(0, 1, 3, 2))) * inv_sqrt
        return (
            unpad(np.matmul(ds, kp)),
            unpad(np.matmul(ds.transpose(0, 1, 3, 2), qp)),
            unpad(np.matmul(p.transpose(0, 1, 3, 2), gp)),
        )

    return _result(unpad(np.matmul(p, vp)), (q, k, v), vjp), p


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
