"""Small neural-net building blocks shared by the reward models and the
policy/value networks: fan-in-scaled initialization of read-only float64
parameter arrays, and optimizers that update a model as one flat float64
vector in sorted-name order (`flatten_params`)."""

from __future__ import annotations

import numpy as np


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


def lstm_params(rng, input_dim, hidden_dim):
    """One LSTM cell; the gate order inside the stacked weights is i, f, g, o.

    Rows 0..input_dim of the weights act on the input, the rest on h.
    """
    w, b = init_linear(rng, input_dim + hidden_dim, 4 * hidden_dim)
    # Positive forget-gate bias keeps early memory from decaying at init.
    bias = b.copy()
    bias[hidden_dim : 2 * hidden_dim] = 1.0
    return {"w": w, "b": read_only(bias)}


def sinusoidal_positions(t_len, dim):
    """Fixed position signal added to embeddings when enabled."""
    pos = np.arange(t_len)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return enc


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


class SgdOptimizer:
    """Plain gradient descent on the flat vector: p <- p - lr * g."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, g):
        """New parameters from the flat gradient g, in `flatten_params` order."""
        return assign_flat(params, flatten_params(params) - self.lr * g)


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
