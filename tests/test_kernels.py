import numpy as np
import pytest

from rdecomp import _kernels


def test_matmul_agrees_with_numpy():
    rng = np.random.default_rng(0)
    for shape in [(3, 4, 5), (20, 30, 40)]:
        a = rng.normal(size=shape[:2])
        b = rng.normal(size=shape[1:])
        np.testing.assert_allclose(_kernels.matmul(a, b), a @ b, rtol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
def test_softmax_rows_properties(masked):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 5)) * 3
    mask = np.tril(np.ones((5, 5), dtype=bool)) if masked else None
    p = _kernels.softmax_rows(x, mask)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    if masked:
        assert np.array_equal(np.triu(p, k=1), np.zeros_like(p))


def blas_row_sums(x):
    # each row's sum as its product with a ones vector: one gemv over the
    # rows of x, laid out as they are in x
    n = x.shape[-1]
    return np.dot(x.reshape(-1, n), np.ones(n)).reshape(x.shape[:-1] + (1,))


def reference_softmax_rows(x, mask=None):
    # the row max as numpy's reduction over the last axis
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / blas_row_sums(e)


@pytest.mark.parametrize("t_len", [1, 2, 7, 16])
def test_softmax_rows_is_bitwise_the_reduction_max(t_len):
    # a padded causal attention block: each row keeps its prefix, and rows
    # past a trajectory's length keep only column 0
    rng = np.random.default_rng(t_len)
    x = rng.normal(size=(5, 4, t_len, t_len)) * 4
    lengths = rng.integers(1, t_len + 1, size=5)
    causal = np.tril(np.ones((t_len, t_len), dtype=bool))
    live = np.arange(t_len)[None, None, None, :] < lengths[:, None, None, None]
    mask = causal[None, None] & live
    mask[..., 0] = True
    for m in (None, np.tril(np.ones((t_len, t_len), dtype=bool)), mask):
        assert np.array_equal(_kernels.softmax_rows(x, m), reference_softmax_rows(x, m))
    # a large shift, where subtracting the max is what keeps exp finite
    assert np.array_equal(_kernels.softmax_rows(x + 800.0, mask),
                          reference_softmax_rows(x + 800.0, mask))


@pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan, 1e308, -1e308])
def test_softmax_rows_ignores_what_masked_entries_hold(fill):
    # a 0/1 mask multiplied in would turn a masked inf into nan; the
    # reference selects -inf there, so it never reads what x holds
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4, 6, 6)) * 4
    causal = np.tril(np.ones((6, 6), dtype=bool))
    with np.errstate(all="raise"):
        got = _kernels.softmax_rows(np.where(causal, x, fill), causal)
        flat = _kernels.softmax_rows(np.where(causal, x[1, 2], fill), causal)
    assert np.array_equal(got, reference_softmax_rows(x, causal))
    # a 2-D block, as the tape's softmax passes it
    assert np.array_equal(flat, reference_softmax_rows(x[1, 2], causal))


def test_gae_matches_textbook_recursion():
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=9)
    values = rng.normal(size=10)
    gamma, lam = 0.97, 0.9
    deltas = rewards + gamma * values[1:] - values[:-1]
    expected = np.zeros(9)
    acc = 0.0
    for t in reversed(range(9)):
        acc = deltas[t] + gamma * lam * acc
        expected[t] = acc
    np.testing.assert_allclose(_kernels.gae(rewards, values, gamma, lam), expected, rtol=1e-12)


def test_gae_monte_carlo_limit():
    # gamma = lam = 1 with zero values reduces to the undiscounted return-to-go
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.zeros(4)
    np.testing.assert_array_equal(_kernels.gae(rewards, values, 1.0, 1.0), [6.0, 5.0, 3.0])


def mean_form_layer_norm(x, gain, bias, eps):
    # layer_norm_rows and its vjp written with row means, each a row's
    # product with a ones vector over the width
    n = x.shape[1]
    mean = blas_row_sums(x) / n
    centered = x - mean
    var = blas_row_sums(centered * centered)[:, 0] / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std[:, None]
    return xhat * gain + bias, xhat, inv_std


def mean_form_layer_norm_vjp(xhat, inv_std, gain, g):
    gg = g * gain
    n = g.shape[1]
    dx = (gg - blas_row_sums(gg) / n
          - xhat * (blas_row_sums(gg * xhat) / n)) * inv_std[:, None]
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


@pytest.mark.parametrize("rows", [1, 3, 17, 130])
@pytest.mark.parametrize("width", [1, 5, 16, 33, 200])
def test_layer_norm_rows_is_bitwise_the_mean_form(rows, width):
    rng = np.random.default_rng(rows * 1000 + width)
    x = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1)) + 7.0
    gain, bias = rng.normal(size=width), rng.normal(size=width)
    g = rng.normal(size=(rows, width))
    got = _kernels.layer_norm_rows(x, gain, bias, 1e-5)
    want = mean_form_layer_norm(x, gain, bias, 1e-5)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    got = _kernels.layer_norm_rows_vjp(want[1], want[2], gain, g)
    want = mean_form_layer_norm_vjp(want[1], want[2], gain, g)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
