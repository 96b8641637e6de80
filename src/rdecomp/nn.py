"""Small neural-net building blocks shared by the reward models and the
policy/value networks: fan-in-scaled initialization of read-only float64
parameter arrays; `TanhMlp`, the tanh MLP with linear heads that the
policies, the value net and the per-step reward predictor all are, with its
numpy forward and closed-form backward; and Adam, which updates a model as
one flat float64 vector in sorted-name order (`flatten_params`)."""

from __future__ import annotations

import functools

import numpy as np

from rdecomp import _kernels


def read_only(arr):
    """A float64 copy of arr that cannot be written: a parameter array."""
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def init_linear(rng, fan_in, fan_out, scale=1.0):
    """Uniform(-b, b) weights with b = scale / sqrt(fan_in); zero bias."""
    bound = scale / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return read_only(w), read_only(np.zeros(fan_out))


class TanhMlp:
    """tanh layers `{prefix}{i}`, then linear heads on the last layer's output,
    each named by its key in `heads` (parameters `{name}_w`, `{name}_b`) and
    as wide as its value. The layers are built first, then the heads in
    order; the heads' initial weights are scaled by `head_scale`."""

    def __init__(self, rng, input_dim, hidden, heads, prefix="t", head_scale=0.1):
        sizes = (input_dim,) + tuple(hidden)
        self.layers = [f"{prefix}{i}" for i in range(len(hidden))]
        self.heads = list(heads)
        params = {}
        for name, fan_in, fan_out in zip(self.layers, sizes, sizes[1:]):
            params[f"{name}_w"], params[f"{name}_b"] = init_linear(rng, fan_in, fan_out)
        for name, width in heads.items():
            w, b = init_linear(rng, sizes[-1], width, scale=head_scale)
            params[f"{name}_w"], params[f"{name}_b"] = w, b
        self.params = params

    def forward(self, x):
        """The activations "hs" [x, h_1, ..., h_L], h_i = tanh(h_{i-1} W_i + b_i),
        and each head's output (m, width) under its name."""
        p = self.params
        hs = [x]
        for name in self.layers:
            w, b = p[f"{name}_w"], p[f"{name}_b"]
            if x.ndim != 2 or w.shape[0] != hs[-1].shape[1] or b.shape != w.shape[1:]:
                raise _kernels.ShapeError(
                    f"TanhMlp: layer {name} {w.shape} + {b.shape} on {hs[-1].shape}"
                )
            hs.append(np.tanh(_kernels.matmul(hs[-1], w) + b))
        a = {"hs": hs}
        for name in self.heads:
            a[name] = _kernels.matmul(hs[-1], p[f"{name}_w"]) + p[f"{name}_b"]
        return a

    def backward(self, a, g_by_head, reduce=None):
        """The gradient per parameter name, given `forward`'s activations and
        the gradient at the output of each head in g_by_head. `reduce` maps a
        layer's input and the gradient at its pre-activation to the gradients
        of its weight and bias; by default the sums over rows."""
        if reduce is None:
            def reduce(h, d):
                return _kernels.matmul(h.T, d), d.sum(axis=0)
        hs, grads, g_h = a["hs"], {}, None
        for name, g in g_by_head.items():
            grads[f"{name}_w"], grads[f"{name}_b"] = reduce(hs[-1], g)
            g_in = _kernels.matmul(g, self.params[f"{name}_w"].T)
            g_h = g_in if g_h is None else g_h + g_in
        d = _kernels.tanh_vjp(hs[-1], g_h)
        for i in range(len(self.layers) - 1, -1, -1):
            name = self.layers[i]
            grads[f"{name}_w"], grads[f"{name}_b"] = reduce(hs[i], d)
            if i:
                d = _kernels.tanh_vjp(hs[i], _kernels.matmul(d, self.params[f"{name}_w"].T))
        return grads


def lstm_params(rng, input_dim, hidden_dim):
    """One LSTM cell; the gate order inside the stacked weights is i, f, g, o.

    Rows 0..input_dim of the weights act on the input, the rest on h.
    """
    w, b = init_linear(rng, input_dim + hidden_dim, 4 * hidden_dim)
    # Positive forget-gate bias keeps early memory from decaying at init.
    bias = b.copy()
    bias[hidden_dim : 2 * hidden_dim] = 1.0
    return {"w": w, "b": read_only(bias)}


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(t_len, dim):
    """Fixed position signal added to embeddings when enabled: a read-only
    (t_len, dim) table, built once per shape. Each entry depends on its
    position and column alone, so the table for t_len is the first t_len
    rows of any longer one."""
    pos = np.arange(t_len)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    return read_only(np.where(i % 2 == 0, np.sin(angles), np.cos(angles)))


def flatten_arrays(params, arrays):
    """Arrays keyed like params, concatenated (sorted by name) into one flat
    vector: the order of the flat parameter and gradient vectors."""
    return np.concatenate([arrays[k].reshape(-1) for k in sorted(params)])


def flatten_params(params):
    return flatten_arrays(params, params)


def assign_flat(params, flat):
    """Inverse of flatten_params: read-only views into `flat`."""
    flat.flags.writeable = False
    out = {}
    i = 0
    for k in sorted(params):
        n = params[k].size
        out[k] = flat[i : i + n].reshape(params[k].shape)
        i += n
    if i != flat.size:
        raise ValueError(f"flat vector length {flat.size}, parameters need {i}")
    return out


class AdamOptimizer:
    """Adam over the flat parameter vector. A step rebinds t, m and v and
    never writes an array in place, so (t, m, v) can be saved by reference."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = np.zeros(0)

    def step(self, params, g):
        """New parameters from the flat gradient g, in `flatten_params` order."""
        if self.t == 0:
            self.m = self.v = np.zeros(g.size)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        update = self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return assign_flat(params, flatten_params(params) - update)
