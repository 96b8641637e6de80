"""Small neural-net building blocks shared by the reward models and the
policy/value networks: fan-in-scaled initialization of read-only float64
parameter arrays; `TanhMlp`, the tanh MLP with linear heads that the
policies, the value net and the per-step reward predictor all are, with its
numpy forward and closed-form backward; the `Layout` of a parameter set in
one flat float64 vector, in sorted-name order; and Adam over such vectors
laid end to end, which writes its moments in place."""

from __future__ import annotations

import functools
import math

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
        layer's input, the gradient at its pre-activation and the layer's name
        to the gradients of its weight and bias; by default the sums over
        rows."""
        if reduce is None:
            def reduce(h, d, name):
                return _kernels.matmul(h.T, d), d.sum(axis=0)
        hs, grads, g_h = a["hs"], {}, None
        for name, g in g_by_head.items():
            grads[f"{name}_w"], grads[f"{name}_b"] = reduce(hs[-1], g, name)
            g_in = _kernels.matmul(g, self.params[f"{name}_w"].T)
            g_h = g_in if g_h is None else g_h + g_in
        d = _kernels.tanh_vjp(hs[-1], g_h)
        for i in range(len(self.layers) - 1, -1, -1):
            name = self.layers[i]
            grads[f"{name}_w"], grads[f"{name}_b"] = reduce(hs[i], d, name)
            if i:
                d = _kernels.tanh_vjp(hs[i], _kernels.matmul(d, self.params[f"{name}_w"].T))
        return grads

    def flat_grad(self, a, g_by_head, grads, out=None, blocks=None):
        """The flat gradient, written into out (a fresh vector if None): the
        arrays in grads as they are, the rest summed over rows by `backward`.
        `blocks`, if given, is `layout(self.params).blocks(out)`, built once
        by a caller that writes into the same out many times; it is written
        through and out returned as given."""
        if blocks is None:
            lay = layout(self.params)
            out = np.empty(lay.size) if out is None else out
            blocks = lay.blocks(out)
        for name, g in grads.items():
            blocks[name][...] = g

        def reduce(h, d, name):
            return (_kernels.matmul(h.T, d, out=blocks[f"{name}_w"]),
                    d.sum(axis=0, out=blocks[f"{name}_b"]))

        # TanhMlp's own backward: a subclass may override the name
        TanhMlp.backward(self, a, g_by_head, reduce)
        return out


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
    """Fixed position signal the attention predictor adds to its embeddings,
    always: a read-only (t_len, dim) table, built once per shape. Each entry
    depends on its position and column alone, so the table for t_len is the
    first t_len rows of any longer one."""
    pos = np.arange(t_len)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    return read_only(np.where(i % 2 == 0, np.sin(angles), np.cos(angles)))


class Layout:
    """Where each parameter of a set lives in its flat vector: `entries` is
    (name, slice, shape) in sorted-name order, `size` the vector's length.
    `layout` builds one per set of names and shapes."""

    def __init__(self, shapes):
        self.entries = []
        i = 0
        for name, shape in shapes:
            n = int(np.prod(shape, dtype=np.intp))
            self.entries.append((name, slice(i, i + n), shape))
            i += n
        self.entries = tuple(self.entries)
        self.size = i

    def flatten(self, arrays):
        """The arrays keyed by parameter name in one flat float64 vector."""
        out = np.empty(self.size)
        for name, where, _ in self.entries:
            out[where] = arrays[name].reshape(-1)
        return out

    def blocks(self, out):
        """Per parameter name the writable view of its entries of `out`, a
        (size,) or (rows, size) array, shaped `shape` or (rows, *shape).
        The views keep `out` alive, so nothing here caches them: a caller
        that writes into one `out` many times builds them once and drops
        them when it is done."""
        lead = out.shape[:-1]
        return {name: out[..., where].reshape(lead + shape) for name, where, shape in self.entries}

    def views(self, flat):
        """Parameters as read-only views into `flat`, which becomes read-only."""
        if flat.shape != (self.size,):
            raise ValueError(f"flat vector of shape {flat.shape}, parameters need {self.size}")
        flat.flags.writeable = False
        return {name: flat[where].reshape(shape) for name, where, shape in self.entries}


@functools.lru_cache(maxsize=None)
def _layout(shapes):
    return Layout(shapes)


def layout(params):
    """The `Layout` of a parameter set, built once per names and shapes: the
    order of the flat parameter and gradient vectors."""
    return _layout(tuple(sorted((k, p.shape) for k, p in params.items())))


class AdamOptimizer:
    """Adam over parameter dicts laid end to end, each in its `layout`. A step
    writes the moments m and v in place; the dicts it returns are read-only
    views into a fresh vector, so a dict it returned earlier never changes."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = np.zeros(0)
        # (dict, its values) per dict the last step returned, their layouts, vector
        self._returned, self._layouts, self._flat = (), None, None
        self._scratch = (np.zeros(0), np.zeros(0))

    def step(self, params, g):
        """New parameter dicts, one per dict in the sequence params, from their
        flat gradient g. ValueError, before any state changes, if g is not a
        vector of their total size."""
        # the last step's vector if params are the dicts it returned, unchanged
        lays, flat = self._layouts, self._flat
        if len(params) != len(self._returned) or not all(
            p is r and len(p) == len(values) and all(a is b for a, b in zip(p.values(), values))
            for p, (r, values) in zip(params, self._returned)
        ):
            lays = [layout(p) for p in params]
            flat = np.concatenate([lay.flatten(p) for lay, p in zip(lays, params)])
        size = flat.size
        if g.shape != (size,):
            raise ValueError(f"gradient of shape {g.shape} (size {g.size}) for {size} parameters")
        if self.t == 0:
            self.m, self.v = np.zeros(size), np.zeros(size)
        if self._scratch[0].size != size:
            self._scratch = (np.empty(size), np.empty(size))
        s, r = self._scratch
        m, v, b1, b2, t = self.m, self.v, self.beta1, self.beta2, self.t + 1
        # Kingma & Ba's efficient form (arXiv 1412.6980, end of section 2):
        # both bias corrections fold into the Python scalars alpha_t and
        # eps_hat, so the update is one division. The float ops of
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        # (m alpha_t) / (sqrt(v) + eps_hat), in that order.
        root = math.sqrt(1 - b2**t)
        alpha, eps_hat = self.lr * root / (1 - b1**t), self.eps * root
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(g, 1 - b1, out=s), out=m)
        np.multiply(np.multiply(g, 1 - b2, out=s), g, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        np.multiply(m, alpha, out=s)
        np.add(np.sqrt(v, out=r), eps_hat, out=r)
        new = np.subtract(flat, np.divide(s, r, out=s))
        new.flags.writeable = False
        out, i = [], 0
        for lay in lays:
            out.append(lay.views(new[i : i + lay.size]))
            i += lay.size
        self.t, self._layouts, self._flat = t, lays, new
        self._returned = [(p, tuple(p.values())) for p in out]
        return out
