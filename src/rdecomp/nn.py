"""Small neural-net building blocks shared by the reward models and the
policy/value networks: fan-in-scaled initialization, linear application,
and an LSTM step built from tape primitives."""

from __future__ import annotations

import numpy as np

from rdecomp import autodiff as ad


def init_linear(rng, fan_in, fan_out, scale=1.0):
    """Uniform(-b, b) weights with b = scale / sqrt(fan_in); zero bias."""
    bound = scale / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = np.zeros(fan_out)
    return ad.Tensor(w), ad.Tensor(b)


def linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def lstm_params(rng, input_dim, hidden_dim):
    """One LSTM cell; the gate order inside the stacked weights is i, f, g, o."""
    w, b = init_linear(rng, input_dim + hidden_dim, 4 * hidden_dim)
    # Positive forget-gate bias keeps early memory from decaying at init.
    bias = b.data.copy()
    bias[hidden_dim : 2 * hidden_dim] = 1.0
    return {"w": w, "b": ad.Tensor(bias)}


def lstm_step(params, x_t, h_prev, c_prev, hidden_dim):
    """Single LSTM step; x_t (1, d), h_prev/c_prev (1, hidden)."""
    stacked = linear(ad.concat([x_t, h_prev], axis=1), params["w"], params["b"])
    i_gate = ad.sigmoid(ad.narrow(stacked, 1, 0, hidden_dim))
    f_gate = ad.sigmoid(ad.narrow(stacked, 1, hidden_dim, 2 * hidden_dim))
    g_cell = ad.tanh(ad.narrow(stacked, 1, 2 * hidden_dim, 3 * hidden_dim))
    o_gate = ad.sigmoid(ad.narrow(stacked, 1, 3 * hidden_dim, 4 * hidden_dim))
    c_t = ad.add(ad.mul(f_gate, c_prev), ad.mul(i_gate, g_cell))
    h_t = ad.mul(o_gate, ad.tanh(c_t))
    return h_t, c_t


def sinusoidal_positions(t_len, dim):
    """Fixed position signal added to embeddings when enabled."""
    pos = np.arange(t_len)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return enc


def flatten_params(params):
    """Concatenate parameter values (sorted by name) into one flat vector."""
    return np.concatenate([params[k].data.reshape(-1) for k in sorted(params)])


def flatten_grads(params, grads):
    return np.concatenate([grads.of(params[k]).reshape(-1) for k in sorted(params)])


def assign_flat(params, flat):
    """Inverse of flatten_params: write a flat vector back into new Tensors."""
    out = {}
    i = 0
    for k in sorted(params):
        n = params[k].size
        out[k] = ad.Tensor(flat[i : i + n].reshape(params[k].shape))
        i += n
    if i != flat.size:
        raise ValueError(f"flat vector length {flat.size}, parameters need {i}")
    return out


class SgdOptimizer:
    """Plain gradient descent: p <- p - lr * g."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        return {
            k: ad.Tensor(p.data - self.lr * grads.of(p)) for k, p in params.items()
        }


class AdamOptimizer:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        out = {}
        for k, p in params.items():
            g = grads.of(p)
            m = self.m.get(k)
            if m is None:
                m = np.zeros(p.shape)
                self.v[k] = np.zeros(p.shape)
            v = self.v[k]
            m = self.beta1 * m + (1 - self.beta1) * g
            v = self.beta2 * v + (1 - self.beta2) * g * g
            self.m[k], self.v[k] = m, v
            mhat = m / (1 - self.beta1**self.t)
            vhat = v / (1 - self.beta2**self.t)
            out[k] = ad.Tensor(p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return out
