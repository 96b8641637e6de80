import numpy as np
import pytest

from rdecomp import _kernels


def test_matmul_agrees_with_numpy():
    rng = np.random.default_rng(0)
    for shape in [(3, 4, 5), (20, 30, 40)]:
        a = rng.normal(size=shape[:2])
        b = rng.normal(size=shape[1:])
        np.testing.assert_allclose(_kernels.matmul(a, b), a @ b, rtol=1e-12)


@pytest.mark.parametrize("causal", [False, True])
def test_softmax_rows_properties(causal):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 5)) * 3
    p = _kernels.softmax_rows(x, causal)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    if causal:
        assert np.array_equal(np.triu(p, k=1), np.zeros_like(p))


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
