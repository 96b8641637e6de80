import numpy as np
import pytest

import reference_scores
from fdcheck import numeric_gradient, relative_error
from rdecomp import autodiff as ad
from rdecomp.policies import CategoricalPolicy, GaussianPolicy
from rdecomp.trajectory import Trajectory

LENGTHS = (4, 1, 6, 2)


def make(kind, seed, hidden=(8, 8)):
    """A policy on 3-d states and a batch of trajectories of LENGTHS steps."""
    rng = np.random.default_rng(seed)
    if kind == "categorical":
        policy = CategoricalPolicy(rng, 3, 4, hidden)
        actions = [rng.integers(0, 4, size=n) for n in LENGTHS]
    else:
        policy = GaussianPolicy(rng, 3, 2, hidden)
        actions = [rng.normal(size=(n, 2)) for n in LENGTHS]
    # head weights well away from their small init, so every term matters
    policy.params["head_w"] = ad.Tensor(rng.normal(size=policy.params["head_w"].shape))
    trajs = [Trajectory(states=rng.normal(size=(n, 3)), actions=a, episodic_return=0.0)
             for n, a in zip(LENGTHS, actions)]
    coeffs = [rng.normal(size=n) for n in LENGTHS]
    return policy, trajs, coeffs


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("hidden", [(8,), (8, 8)])
def test_closed_form_weighted_scores_match_tape(kind, hidden):
    policy, trajs, coeffs = make(kind, 1, hidden)
    got = policy.weighted_score_gradient(trajs, coeffs)
    want = reference_scores.weighted_score_gradient(policy, trajs, coeffs)
    assert got.shape == want.shape == (len(LENGTHS), want.shape[1])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_closed_form_score_matrix_matches_tape(kind):
    policy, trajs, _ = make(kind, 2)
    for traj in trajs:
        want = reference_scores.score_matrix(policy, traj)
        np.testing.assert_allclose(policy.score_matrix(traj), want, rtol=0, atol=1e-12)


def test_weighted_scores_need_one_coefficient_per_step():
    policy, trajs, coeffs = make("categorical", 3)
    with pytest.raises(ValueError, match="coefficient"):
        policy.weighted_score_gradient(trajs, coeffs[:-1] + [np.ones(1)])


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_entropy_matches_closed_form_and_finite_differences(kind):
    policy, trajs, _ = make(kind, 4)
    traj = trajs[2]
    states = ad.constant(traj.states)
    names = sorted(policy.params)
    cot = ad.constant(np.random.default_rng(5).normal(size=(traj.length, 1)))

    def objective(tensors):
        policy.params = dict(zip(names, tensors))
        _, entropy = policy.log_prob_tensor(states, traj.actions)
        return ad.sum_all(ad.mul(entropy, cot))

    tensors = [policy.params[k] for k in names]
    _, entropy = policy.log_prob_tensor(states, traj.actions)
    if kind == "categorical":
        lp = policy.log_prob_matrix_np(traj.states)
        want = -(np.exp(lp) * lp).sum(axis=1)
    else:
        log_std = policy.params["log_std"].data
        want = np.full(traj.length, log_std.sum() + log_std.size * 0.5 * (1 + np.log(2 * np.pi)))
    np.testing.assert_allclose(entropy.data.reshape(-1), want, rtol=1e-13)

    grads = ad.backward(objective(tensors))
    fd = numeric_gradient(lambda ts: objective(ts).item(), [t.data for t in tensors])
    for t, want_g in zip(tensors, fd):
        assert relative_error(grads.of(t), want_g).max() < 1e-5


def test_categorical_act_draws_what_generator_choice_draws():
    rng = np.random.default_rng(6)
    policy = CategoricalPolicy(rng, 3, 5, hidden=(8,))
    # scaled-up heads give near-deterministic rows as well as flat ones
    policy.params["head_w"] = ad.Tensor(rng.normal(size=(8, 5)) * 4.0)
    states = rng.normal(size=(10_000, 3)) * rng.uniform(0.0, 3.0, size=(10_000, 1))
    ours, twin = np.random.default_rng(7), np.random.default_rng(7)
    for s in states:
        p = np.exp(policy.log_prob_matrix_np(s)[0])
        assert policy.act(s, ours) == twin.choice(5, p=p / p.sum())
    assert ours.bit_generator.state == twin.bit_generator.state


def test_categorical_act_rejects_non_finite_probabilities():
    policy = CategoricalPolicy(np.random.default_rng(8), 3, 2, hidden=(8,))
    policy.params["head_b"] = ad.Tensor([np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN"):
        policy.act(np.zeros(3), np.random.default_rng(0))
