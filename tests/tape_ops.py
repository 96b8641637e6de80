"""The tape primitives: no code in the package builds a tape any more.

The closed-form gradients in `rdecomp` replaced the tapes that used them;
the primitives stay here as the reference those closed forms are checked
against (tests/reference_scores.py, tests/reference_predictors.py), each
with its finite-difference test in tests/test_autodiff.py. They build on
the package's tape engine (`Tensor`, `_result`, `backward`). Model
parameters are plain arrays; `leaves` makes them tape leaves and
`flatten_grads` reads their gradients back in the package's flat order.
"""

import numpy as np

from rdecomp import _kernels
from rdecomp import nn
from rdecomp._kernels import ShapeError
from rdecomp.autodiff import Tensor, _result
from rdecomp.decomposer import causal_attention as _causal_attention


def leaves(params):
    """Each parameter array as a tape leaf, keyed like params."""
    return {k: Tensor(p) for k, p in params.items()}


def flatten_grads(leaves, grads):
    """The gradients of `autodiff.backward` at the leaves in one flat
    vector, in `nn.layout` order."""
    by_name = {k: grads.of(t) for k, t in leaves.items()}
    return nn.layout(by_name).flatten(by_name)


def constant(data):
    """Leaf tensor; gradients never flow into it."""
    return Tensor(data)


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


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    return _result(y, (a,), lambda g: (_kernels.tanh_vjp(y, g),))


def sigmoid(a):
    y = _kernels.sigmoid(a.data)
    return _result(y, (a,), lambda g: (_kernels.sigmoid_vjp(y, g),))


# ---------------------------------------------------------------------------
# contractions and reductions


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return _kernels.matmul(g, bd.T), _kernels.matmul(ad.T, g)

    return _result(_kernels.matmul(ad, bd), (a, b), vjp)


# ---------------------------------------------------------------------------
# structure


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


def linear(x, w, b):
    return add(matmul(x, w), b)


def lstm_step(x_gates, h_prev, c_prev, w_h, hidden_dim):
    """Single LSTM step over a batch of n rows.

    x_gates (n, 4 hidden) is the input's share of the gate pre-activations,
    x_t W_x + b, computed for all steps before the loop; w_h is the
    recurrent block of the stacked weights; h_prev/c_prev (n, hidden).
    """
    stacked = add(x_gates, matmul(h_prev, w_h))
    i_gate = sigmoid(narrow(stacked, 1, 0, hidden_dim))
    f_gate = sigmoid(narrow(stacked, 1, hidden_dim, 2 * hidden_dim))
    g_cell = tanh(narrow(stacked, 1, 2 * hidden_dim, 3 * hidden_dim))
    o_gate = sigmoid(narrow(stacked, 1, 3 * hidden_dim, 4 * hidden_dim))
    c_t = add(mul(f_gate, c_prev), mul(i_gate, g_cell))
    h_t = mul(o_gate, tanh(c_t))
    return h_t, c_t



def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{op} produced non-finite values")



def sub(a, b):
    mode = _binary_shapes(a, b, "sub")

    def vjp(g):
        gb = -g if mode == "same" else -g.sum(axis=0)
        return g, gb

    return _result(a.data - b.data, (a, b), vjp)



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



def reshape(a, shape):
    old = a.shape
    out = a.data.reshape(shape)
    return _result(out.copy(), (a,), lambda g: (g.reshape(old),))



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



def softmax(a, mask=None):
    """Row-wise softmax; entries where the boolean `mask` is False are excluded."""
    if a.data.ndim != 2:
        raise ShapeError(f"softmax: need 2-D, got {a.shape}")
    p = _kernels.softmax_rows(a.data, mask)
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


def causal_attention(q, k, v, lengths, n_heads):
    """Tape form of `decomposer.causal_attention`: (head outputs Tensor, weights)."""
    out, p, vjp = _causal_attention(q.data, k.data, v.data, lengths, n_heads)
    return _result(out, (q, k, v), vjp), p
