"""Numeric hot kernels of the tape engine and GAE, in numpy.

`autodiff` and `trainer` call these through the module attribute
(`_kernels.<name>`) at call time, so a wrapper set on this module reroutes
every call. All operate on C-contiguous float64 arrays.
"""

import numpy as np

# Recorded in the benchmark's environment block (perfbench/run.py).
BACKEND = "python"


def matmul(a, b):
    return np.dot(a, b)


def tanh_vjp(y, g):
    # y is tanh(x); d tanh = 1 - y^2
    return g * (1.0 - y * y)


def sigmoid_vjp(y, g):
    # y is sigmoid(x); d sigmoid = y (1 - y)
    return g * y * (1.0 - y)


def softmax_rows(x, causal=False):
    """Row-wise softmax of a 2-D array.

    With causal=True, entry (i, j) for j > i is excluded: row i is a
    distribution over columns 0..i only and the excluded entries are 0.
    """
    n, m = x.shape
    if causal:
        mask = np.tril(np.ones((n, m), dtype=bool))
        shifted = np.where(mask, x, -np.inf)
    else:
        shifted = x
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    if causal:
        e = np.where(mask, e, 0.0)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_vjp(p, g):
    # dx = p * (g - sum_j g_j p_j); rows with masked zeros stay zero.
    dot = (g * p).sum(axis=1, keepdims=True)
    return p * (g - dot)


def layer_norm_rows(x, gain, bias, eps):
    """Row-wise layer normalization. Returns (y, xhat, inv_std)."""
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=1)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std[:, None]
    return xhat * gain + bias, xhat, inv_std


def layer_norm_rows_vjp(xhat, inv_std, gain, g):
    """Backward pass of layer_norm_rows. Returns (dx, dgain, dbias)."""
    dgain = (g * xhat).sum(axis=0)
    dbias = g.sum(axis=0)
    gg = g * gain
    dx = (gg - gg.mean(axis=1, keepdims=True)
          - xhat * (gg * xhat).mean(axis=1, keepdims=True)) * inv_std[:, None]
    return dx, dgain, dbias


def gae(rewards, values, gamma, lam):
    """Generalized advantage estimation over one episode.

    rewards has length T, values length T+1 (the trailing entry is the
    bootstrap value after the final step; pass 0 for terminal episodes).
    """
    t_len = rewards.shape[0]
    adv = np.empty(t_len, dtype=np.float64)
    acc = 0.0
    for t in range(t_len - 1, -1, -1):
        delta = rewards[t] + gamma * values[t + 1] - values[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv
