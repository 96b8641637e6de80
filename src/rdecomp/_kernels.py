"""Numeric hot kernels of the closed-form gradients and GAE, in numpy, and
the segment layout of stacked rows that the batched models share.

Callers look the kernels up through the module attribute (`_kernels.<name>`)
at call time, so a wrapper set on this module reroutes every call. All
operate on float64 arrays.
"""

import numpy as np

# Recorded in the benchmark's environment block (perfbench/run.py).
BACKEND = "python"


class ShapeError(ValueError):
    """Raised when an operation receives shape-incompatible inputs."""


def matmul(a, b, out=None):
    return np.dot(a, b, out=out)


def tanh_vjp(y, g):
    # y is tanh(x); d tanh = 1 - y^2
    return g * (1.0 - y * y)


def sigmoid(x):
    # exp(-|x|) never overflows; each entry's value depends on that entry
    # alone, not on how many other entries share its sign.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_vjp(y, g):
    # y is sigmoid(x); d sigmoid = y (1 - y)
    return g * y * (1.0 - y)


def softmax_rows(x, mask=None):
    """Softmax over the last axis of an array.

    With a boolean mask (broadcastable to x), entries where it is False are
    excluded and come out exactly 0; every row must keep at least one entry.
    """
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    # The row max as a running maximum over the columns: a max is exact in
    # any order, so this equals x.max(axis=-1), and on short rows it is
    # faster than numpy's reduction along the last axis.
    row_max = x[..., 0]
    for j in range(1, x.shape[-1]):
        row_max = np.maximum(row_max, x[..., j])
    e = np.exp(x - row_max[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_vjp(p, g):
    # dx = p * (g - sum_j g_j p_j); masked entries (p = 0) stay zero.
    dot = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - dot)


def layer_norm_rows(x, gain, bias, eps):
    """Row-wise layer normalization. Returns (y, xhat, inv_std)."""
    # sum / n: the float ops of mean(), without its Python overhead
    n = x.shape[1]
    mean = x.sum(axis=1, keepdims=True) / n
    centered = x - mean
    var = (centered * centered).sum(axis=1) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std[:, None]
    return xhat * gain + bias, xhat, inv_std


def layer_norm_rows_vjp(xhat, inv_std, gain, g):
    """Backward pass of layer_norm_rows. Returns (dx, dgain, dbias)."""
    dgain = (g * xhat).sum(axis=0)
    dbias = g.sum(axis=0)
    gg = g * gain
    n = g.shape[1]
    dx = (gg - gg.sum(axis=1, keepdims=True) / n
          - xhat * ((gg * xhat).sum(axis=1, keepdims=True) / n)) * inv_std[:, None]
    return dx, dgain, dbias


def gae(rewards, values, gamma, lam):
    """Generalized advantage estimation, scanned backward over the last axis.

    rewards is (T,) for one episode or (B, T) for B of them, values (T+1,)
    or (B, T+1): the trailing entry is the bootstrap value after the final
    step (pass 0 for terminal episodes). Terminal episodes shorter than T
    share a block zero-padded after their last step, in rewards and values
    alike: the padding's deltas are 0, so it adds exactly 0 to the scan, and
    each row gets the float ops of its own one-row scan.
    """
    adv = np.empty(rewards.shape, dtype=np.float64)
    acc = 0.0
    for t in range(rewards.shape[-1] - 1, -1, -1):
        delta = rewards[..., t] + gamma * values[..., t + 1] - values[..., t]
        acc = delta + gamma * lam * acc
        adv[..., t] = acc
    return adv


def segment_positions(lengths):
    """Index of each stacked row within its own segment: 0..len-1 per segment."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def segment_index(lengths):
    """(segment, position) of each stacked row: its index into a zero-padded
    (B, T, ...) block of the segments."""
    return np.repeat(np.arange(lengths.size), lengths), segment_positions(lengths)


def pad_segments(rows, lengths, at=None):
    """Stacked rows of segments of the given lengths, scattered into a
    zero-padded (B, T, ...) block; T is the longest length. `at` is
    `segment_index(lengths)`, for a caller that pads many row sets."""
    out = np.zeros((lengths.size, int(lengths.max())) + rows.shape[1:])
    out[segment_index(lengths) if at is None else at] = rows
    return out
