"""The numpy forward and backward helpers that the closed-form gradients
share, and a reverse-mode tape engine over dense float64 tensors.

No package code builds a tape: every model's gradient is a closed form in
numpy. The engine (`Tensor`, `backward`) stays as the base of the tape
references in tests/ (tests/tape_ops.py holds the primitives), against
which every closed form is checked bit for bit. A tape's nodes are Tensors
holding a read-only forward value, their parent tensors and a closure that
maps the incoming gradient to per-parent gradients; `backward` walks the
graph once in reverse topological order.
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


# ---------------------------------------------------------------------------
# numpy forward and backward helpers of the closed forms


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


def tanh_mlp_grads(hs, weights, g, names):
    """Gradients of each layer's weight and bias (keys f"{name}_w" and
    f"{name}_b"), given g at the MLP's output, and the first layer's delta."""
    deltas = tanh_mlp_deltas(hs, weights, g)
    out = {}
    for name, h, d in zip(names, hs[:-1], deltas, strict=True):
        out[f"{name}_w"] = _kernels.matmul(h.T, d)
        out[f"{name}_b"] = d.sum(axis=0)
    return out, deltas[0]


# ---------------------------------------------------------------------------
# segments of stacked rows


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

    q, k (N, n_heads * dk) and v (N, n_heads * dv) are arrays holding the
    rows of B segments of the given lengths, one after another. Row i of a
    segment attends to rows 0..i of the same segment only, with scores
    q k^T / sqrt(dk). Returns the head outputs (N, n_heads * dv), side by
    side; the attention weights (B, n_heads, T, T), T the longest length,
    where row i of segment b holds weights on its first i + 1 columns only;
    and the map from the outputs' gradient to those of q, k and v.

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
        out = np.zeros((b, t, n_heads, width))
        out[seg, pos] = rows.reshape(n, n_heads, width)
        return out.transpose(0, 2, 1, 3)

    def unpad(block):
        return block.transpose(0, 2, 1, 3)[seg, pos].reshape(n, -1)

    mask = np.tril(np.ones((t, t), dtype=bool))
    inv_sqrt = 1.0 / np.sqrt(dk)
    qp, kp, vp = pad(q, dk), pad(k, dk), pad(v, dv)
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

    return unpad(np.matmul(p, vp)), p, vjp


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


def backward(root, seed=None):
    """Reverse-mode sweep from root, with the gradient `seed` at the root
    (ones at a scalar root by default); returns a `Gradients` map."""
    if seed is None:
        if root.data.size != 1:
            raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
        seed = np.ones(root.shape)
    elif seed.shape != root.shape:
        raise ShapeError(f"backward: seed {seed.shape} for root {root.shape}")
    table = {id(root): seed}
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
