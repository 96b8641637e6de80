import numpy as np
import pytest

import reference_scores
from fdcheck import numeric_gradient, relative_error
from rdecomp import nn
from rdecomp._kernels import pad_segments
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


def concatenated_scores(policy, trajs, coeffs):
    """The float ops of `weighted_score_gradient` into fresh per-parameter
    arrays, concatenated in sorted-name order afterwards."""
    lengths = np.array([t.length for t in trajs])
    a = policy.forward(np.concatenate([t.states for t in trajs]))
    head_grads = policy.log_prob_head(a["head"], np.concatenate([t.actions for t in trajs]))[2]
    g_head, sums = head_grads(np.concatenate(coeffs).reshape(-1, 1), None,
                              lambda rows: pad_segments(rows, lengths).sum(axis=1))

    def segment_sums(h, d, name):
        block = pad_segments(d, lengths)
        return np.matmul(pad_segments(h, lengths).transpose(0, 2, 1), block), block.sum(axis=1)

    sums.update(policy.backward(a, {"head": g_head}, segment_sums))
    return np.concatenate([sums[k].reshape(lengths.size, -1) for k in sorted(policy.params)],
                          axis=1)


@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_score_rows_written_in_place_are_bitwise_the_concatenation(kind):
    policy, trajs, coeffs = make(kind, 4, hidden=(16, 8))
    assert np.array_equal(policy.weighted_score_gradient(trajs, coeffs),
                          concatenated_scores(policy, trajs, coeffs))


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


@pytest.mark.parametrize("entropy_coef", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
def test_gradients_written_into_a_slice_are_the_fresh_vectors(kind, entropy_coef):
    # the PPO update's layout: the policy's gradient, then the value net's,
    # in one vector, each written by its own call, given the slice alone
    # (out=) or also its blocks built beforehand, as `ppo_update` does
    policy, states, actions, old_logp, adv = make_minibatch(kind, 3)
    value_net = ValueNetwork(np.random.default_rng(12), 3, hidden=(8, 8))
    t_r, t_0 = np.random.default_rng(13).normal(size=(2, len(states)))
    loss, grad = policy.ppo_loss_grad(states, actions, old_logp, adv, 0.2, entropy_coef)
    value_loss, value_grad = value_net.loss_grad(states, t_r, t_0)
    size = grad.size
    for call, net, part, want_loss, want in [
        (lambda *out: policy.ppo_loss_grad(states, actions, old_logp, adv, 0.2, entropy_coef,
                                           *out), policy, slice(0, size), loss, grad),
        (lambda *out: value_net.loss_grad(states, t_r, t_0, *out), value_net,
         slice(size, None), value_loss, value_grad),
    ]:
        fill = np.random.default_rng(14).normal(size=size + value_grad.size)
        rest = np.ones(fill.size, dtype=bool)
        rest[part] = False
        both = fill.copy()
        got_loss, got = call(both[part])
        assert got_loss == want_loss and got.base is both
        assert np.array_equal(both[part], want)
        assert np.array_equal(both[rest], fill[rest])
        # prebuilt blocks: the out= vector's bits, written twice through the
        # same views, with a different fill left between the calls
        out = fill.copy()
        blocks = nn.layout(net.params).blocks(out[part])
        for _ in range(2):
            got_loss, got = call(out[part], blocks)
            assert got_loss == want_loss and got.base is out
            assert np.array_equal(out[part], both[part])
            assert np.array_equal(out[rest], fill[rest])
            out[part] = -fill[part]


class FixedDraws:
    """Stands in for a Generator whose `random()` returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def searchsorted_draw(policy, state, u):
    """The reference draw: the float64 cdf's `searchsorted(u, side="right")`."""
    p = np.exp(policy.log_prob_matrix_np(state)[0])
    cdf = np.cumsum(p / p.sum())
    cdf = cdf / cdf[-1]
    return int(cdf.searchsorted(u, side="right")), cdf


def test_sampler_draws_the_searchsorted_index():
    rng = np.random.default_rng(20)
    ties = 0
    for trial in range(60):
        policy = CategoricalPolicy(rng, 3, 7, hidden=(4,))
        # head weights from small to huge: huge ones push some probabilities
        # to exactly 0, which repeats entries of the cdf
        scale = (1.0, 30.0, 3000.0)[trial % 3]
        policy.params["head_w"] = rng.normal(scale=scale, size=policy.params["head_w"].shape)
        for state in rng.normal(size=(4, 3)):
            cdf = searchsorted_draw(policy, state, 0.0)[1]
            # the list a rollout bisects, once per cell, and `act` per call
            assert policy.cdf(state) == cdf.tolist()
            ties += np.any(cdf[1:] == cdf[:-1])
            # every entry but the final 1.0 (random() < 1), and its neighbours
            us = [0.0] + [np.nextafter(c, d) for c in cdf[:-1] for d in (0.0, c, 1.0)]
            got = [policy.act(state, FixedDraws([u])) for u in us]
            assert got == [searchsorted_draw(policy, state, u)[0] for u in us]
            draws, want_draws = (np.random.default_rng(trial) for _ in range(2))
            got = [policy.act(state, draws) for _ in range(20)]
            assert got == [searchsorted_draw(policy, state, want_draws.random())[0]
                           for _ in range(20)]
            assert draws.bit_generator.state == want_draws.bit_generator.state
    assert ties > 20


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
