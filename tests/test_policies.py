import numpy as np
import pytest

import reference_scores
from fdcheck import numeric_gradient, relative_error
from rdecomp.policies import CategoricalPolicy, GaussianPolicy, ValueNetwork
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
    policy.params["head_w"] = rng.normal(size=policy.params["head_w"].shape)
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


def make_minibatch(kind, seed, m=24):
    """A policy, a PPO minibatch of m steps, and old log-probs that put the
    ratios at about e^-0.5, 1 and e^0.5, so inside and on both sides of the
    clip range; advantages of both signs."""
    policy, _, _ = make(kind, seed)
    rng = np.random.default_rng(seed + 100)
    states = rng.normal(size=(m, 3))
    if kind == "categorical":
        actions = rng.integers(0, 4, size=m)
    else:
        actions = rng.normal(size=(m, 2))
    offsets = rng.choice([-0.5, 0.0, 0.5], size=m) + rng.uniform(-0.05, 0.05, size=m)
    old_logp = policy.log_prob_np(states, actions) - offsets
    return policy, states, actions, old_logp, rng.normal(size=m)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_first_ppo_ratio_is_exactly_one(kind):
    # old log-probs of the whole batch against each minibatch's own forward,
    # as in the first minibatch of a PPO update
    policy, _, _ = make(kind, 11, hidden=(64, 64))
    rng = np.random.default_rng(111)
    states = rng.normal(size=(512, 3))
    actions = rng.integers(0, 4, size=512) if kind == "categorical" else rng.normal(size=(512, 2))
    old_logp = policy.log_prob_np(states, actions)
    for _ in range(8):
        idx = rng.permutation(512)[:64]
        head = policy.forward(states[idx])["head"]
        logp = policy.log_prob_head(head, actions[idx])[0].reshape(-1)
        assert np.array_equal(logp, old_logp[idx])
        assert np.all(np.exp(logp - old_logp[idx]) == 1.0)


@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_ppo_loss_grad_is_bitwise_the_tape(kind, entropy_coef):
    # several seeds: one draw can hide a change in the order of a gradient sum
    for seed in range(8):
        policy, states, actions, old_logp, adv = make_minibatch(kind, seed)
        ratio = np.exp(policy.log_prob_np(states, actions) - old_logp)
        outside = (ratio < 0.8) | (ratio > 1.2)
        for clipped, sign in [(False, 1), (False, -1), (True, 1), (True, -1)]:
            assert np.any((outside == clipped) & (np.sign(adv) == sign))
        loss, grad = policy.ppo_loss_grad(states, actions, old_logp, adv, 0.2, entropy_coef)
        want_loss, want_grad = reference_scores.ppo_loss(
            policy, states, actions, old_logp, adv, 0.2, entropy_coef
        )
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)


def test_value_loss_grad_is_bitwise_the_tape():
    rng = np.random.default_rng(10)
    value_net = ValueNetwork(rng, 3, hidden=(8, 8))
    states = rng.normal(size=(24, 3))
    t_r, t_0 = rng.normal(size=24), rng.normal(size=24)
    loss, grad = value_net.loss_grad(states, t_r, t_0)
    want_loss, want_grad = reference_scores.value_loss(value_net, states, t_r, t_0)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_entropy_matches_closed_form_and_finite_differences(kind):
    # With zero advantages the PPO loss is minus the mean entropy.
    policy, trajs, _ = make(kind, 4)
    traj = trajs[2]
    old_logp, zeros = np.zeros(traj.length), np.zeros(traj.length)
    _, entropy, _ = policy.log_prob_head(policy.forward(traj.states)["head"], traj.actions)
    if kind == "categorical":
        lp = policy.log_prob_matrix_np(traj.states)
        want = -(np.exp(lp) * lp).sum(axis=1)
    else:
        log_std = policy.params["log_std"]
        want = np.full(traj.length, log_std.sum() + log_std.size * 0.5 * (1 + np.log(2 * np.pi)))
    np.testing.assert_allclose(entropy.reshape(-1), want, rtol=1e-13)

    names = sorted(policy.params)

    def loss(tensors):
        policy.params = {k: t.data for k, t in zip(names, tensors)}
        return policy.ppo_loss_grad(traj.states, traj.actions, old_logp, zeros, 0.2, 1.0)[0]

    arrays = [policy.params[k] for k in names]
    _, grad = policy.ppo_loss_grad(traj.states, traj.actions, old_logp, zeros, 0.2, 1.0)
    fd = numeric_gradient(loss, arrays)
    np.testing.assert_array_less(
        relative_error(grad, np.concatenate([g.reshape(-1) for g in fd])), 1e-5
    )


def test_categorical_act_draws_what_generator_choice_draws():
    rng = np.random.default_rng(6)
    policy = CategoricalPolicy(rng, 3, 5, hidden=(8,))
    # scaled-up heads give near-deterministic rows as well as flat ones
    policy.params["head_w"] = rng.normal(size=(8, 5)) * 4.0
    states = rng.normal(size=(10_000, 3)) * rng.uniform(0.0, 3.0, size=(10_000, 1))
    ours, twin = np.random.default_rng(7), np.random.default_rng(7)
    for s in states:
        p = np.exp(policy.log_prob_matrix_np(s)[0])
        assert policy.act(s, ours) == twin.choice(5, p=p / p.sum())
    assert ours.bit_generator.state == twin.bit_generator.state


def test_categorical_act_rejects_non_finite_probabilities():
    policy = CategoricalPolicy(np.random.default_rng(8), 3, 2, hidden=(8,))
    policy.params["head_b"] = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN"):
        policy.act(np.zeros(3), np.random.default_rng(0))
