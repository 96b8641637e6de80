import contextlib
import copy
import csv
import ctypes
import gc
import importlib.util
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference_estimators
from reference_adam import ReferenceAdam
from test_buffers import assert_same_trajectories
from test_policies import FixedDraws

from rdecomp import autodiff as ad
from rdecomp import _kernels, checkpoint, cli, envs, nn, oracle
from rdecomp import trainer as trainer_mod
from rdecomp import worker as worker_mod
from rdecomp.buffers import ReplayBuffer
from rdecomp.decomposer import (
    RewardDecomposition,
    input_rows,
    make_predictor,
    predict,
    regression_step,
    regression_targets,
)
from rdecomp.policies import CategoricalPolicy, ValueNetwork, make_policy
from rdecomp.trainer import (
    MetricsWriter,
    TrainConfig,
    Trainer,
    compute_advantages,
    ppo_update,
    rollout,
    train,
)
from rdecomp.trajectory import Trajectory, read_jsonl, write_jsonl

ROOT = Path(__file__).resolve().parents[1]
TINY = dict(
    env="chain",
    env_params={"n_states": 4, "horizon": 5},
    iterations=2,
    ppo_batch=60,
    minibatch=20,
    buffer_capacity=10,
    regression_minibatch=5,
)


def zeroed_value_net(state_dim):
    net = ValueNetwork(np.random.default_rng(0), state_dim, hidden=(8,))
    net.params = {k: np.zeros(p.shape) for k, p in net.params.items()}
    return net


def uniform_policy(env):
    policy = make_policy(np.random.default_rng(0), env, hidden=(8,))
    policy.params["head_w"] = np.zeros(policy.params["head_w"].shape)
    policy.params["head_b"] = np.zeros(policy.params["head_b"].shape)
    return policy


# ---------------------------------------------------------------------------
# rollout


def test_rollout_single_step_horizon():
    env = envs.ChainMdp(2, 1)
    batch = rollout(uniform_policy(env), env, 30, np.random.default_rng(1))
    assert all(t.length == 1 for t in batch)
    for t in batch:
        # the chain pays 1 exactly when the action moved right into the goal
        assert t.episodic_return == float(t.actions[0] == 1)


def test_rollout_deterministic_given_seed():
    env = envs.ChainMdp(5, 6)
    policy = uniform_policy(env)
    a = rollout(policy, env, 100, np.random.default_rng(7))
    b = rollout(policy, env, 100, np.random.default_rng(7))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.states, y.states)
        np.testing.assert_array_equal(x.actions, y.actions)
        assert x.episodic_return == y.episodic_return


class StepOnly:
    """An env seen only through `reset`, `step` and its horizon: not a
    one-hot cell env, so `rollout` runs it through its generic loop."""

    def __init__(self, env):
        self.reset, self.step, self.horizon = env.reset, env.step, env.horizon


def assert_same_batches(got, want):
    """Bit for bit: states, actions and their dtypes, and the returns."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        for a, b in ((x.states, y.states), (x.actions, y.actions)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert repr(x.episodic_return) == repr(y.episodic_return)


@pytest.mark.parametrize("env_name,params", [("grid", {"size": 4, "horizon": 16}),
                                             ("point_mass", {"horizon": 12}),
                                             ("chain", {"n_states": 8, "horizon": 12})])
def test_cached_rollout_equals_per_step_act(monkeypatch, env_name, params):
    env = envs.make_env(env_name, params)
    policy = make_policy(np.random.default_rng(1), env, hidden=(8,))
    forwards = []
    for name in ("log_prob_matrix_np", "mean_np"):
        if hasattr(policy, name):
            original = getattr(policy, name)
            monkeypatch.setattr(policy, name, lambda s, f=original: forwards.append(1) or f(s))
    rng = np.random.default_rng(3)
    cached = rollout(policy, env, 300, rng)
    n_forwards = len(forwards)
    # per-step act: the generic loop, one `policy.act` and one forward per step
    per_step_rng = np.random.default_rng(3)
    per_step = rollout(policy, StepOnly(env), 300, per_step_rng)
    assert_same_batches(cached, per_step)
    assert rng.bit_generator.state == per_step_rng.bit_generator.state
    steps = sum(t.length for t in cached)
    assert len(forwards) - n_forwards == steps
    if env_name == "point_mass":
        assert n_forwards == steps
    else:
        distinct = {s.tobytes() for t in cached for s in t.states}
        assert n_forwards == len(distinct) <= env.n_cells < steps


@pytest.mark.parametrize("make", [lambda: envs.ChainMdp(2, 1), lambda: envs.ChainMdp(4, 5),
                                  lambda: envs.SparseGridworld(2, 3),
                                  lambda: envs.SparseGridworld(3, 8)],
                         ids=["chain2-h1", "chain4-h5", "grid2-h3", "grid3-h8"])
def test_cell_walk_is_bitwise_the_generic_loop(monkeypatch, make):
    env = make()
    policy = make_policy(np.random.default_rng(2), env, hidden=(8,))
    calls = []
    forward = policy.forward
    monkeypatch.setattr(policy, "forward", lambda x: calls.append(x) or forward(x))
    for seed in range(3):
        rng, generic_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        walked = rollout(policy, env, 200, rng)
        n_calls = len(calls)
        assert_same_batches(walked, rollout(policy, StepOnly(env), 200, generic_rng))
        assert rng.bit_generator.state == generic_rng.bit_generator.state
        # the forward runs once per visited cell, on that cell's vector
        visited = {env.state_index(s) for t in walked for s in t.states}
        assert sorted(env.state_index(x) for x in calls[:n_calls]) == sorted(visited)
        calls.clear()
        endings = {(t.episodic_return, t.length == env.horizon) for t in walked}
        # goal endings (a chain of 2 at horizon 1 reaches it at the cut) and
        # horizon cut-offs without the goal
        assert (1.0, env.horizon == 1) in endings and (0.0, True) in endings


def test_cell_walk_draws_the_searchsorted_index():
    # a chain of 2 at horizon 1: each episode is one draw from cell 0's cdf
    env = envs.ChainMdp(2, 1)
    policy = make_policy(np.random.default_rng(4), env, hidden=(8,))
    p_left = policy.cdf(env.state_vector(0))[0]
    draws = [0.0, np.nextafter(p_left, 0.0), p_left, np.nextafter(p_left, 1.0)]
    batch = rollout(policy, env, len(draws), FixedDraws(draws))
    assert [int(t.actions[0]) for t in batch] == [0, 0, 1, 1]


def test_cell_walk_rejects_non_finite_probabilities():
    env = envs.ChainMdp(4, 5)
    policy = make_policy(np.random.default_rng(8), env, hidden=(8,))
    policy.params["head_b"] = np.array([np.nan, 0.0])
    with pytest.raises(ValueError, match="NaN"):
        rollout(policy, env, 10, np.random.default_rng(0))


def test_rollout_mean_return_matches_enumeration():
    env = envs.ChainMdp(4, 6)
    policy = uniform_policy(env)

    def dfs(idx, t, prob):
        if t == env.horizon:
            return 0.0
        total = 0.0
        for a in range(2):
            nxt, reward, done = env.transition(idx, a)
            p = prob / 2
            total += p * reward
            if not done:
                total += dfs(nxt, t + 1, p)
        return total

    want = dfs(0, 0, 1.0)
    rng = np.random.default_rng(3)
    returns = []
    batch = rollout(policy, env, 10**4 * 3, rng)  # ~1e4 episodes at T<=6
    returns = np.array([t.episodic_return for t in batch])
    se = returns.std() / np.sqrt(len(returns))
    assert abs(returns.mean() - want) < 3 * se + 1e-9


# ---------------------------------------------------------------------------
# advantages


def random_batch(seed, n=3, t_len=5, d_s=4):
    rng = np.random.default_rng(seed)
    batch, decomps = [], []
    for _ in range(n):
        traj = Trajectory(
            states=rng.normal(size=(t_len, d_s)),
            actions=rng.integers(0, 2, size=t_len),
            episodic_return=float(rng.normal()),
        )
        batch.append(traj)
        decomps.append(
            RewardDecomposition.from_values(rng.normal(size=t_len), traj.episodic_return)
        )
    return batch, decomps


def per_episode(steps, batch):
    """A (N,) array over the batch's steps split into per-episode arrays."""
    return np.split(steps, np.cumsum([t.length for t in batch])[:-1])


def test_monte_carlo_limit_recovers_corrected_coefficients():
    batch, decomps = random_batch(0)
    value_net = zeroed_value_net(4)
    advantages, _, _ = compute_advantages(batch, decomps, value_net, 1.0, 1.0)
    for traj, dec, adv in zip(batch, decomps, per_episode(advantages, batch), strict=True):
        want = dec.residual + reference_estimators.generalized_q(dec, traj.length)
        np.testing.assert_array_equal(adv, want)
        # and ties back to the baseline-subtracted coefficient form
        alt = traj.episodic_return - reference_estimators.r_not_t(dec, traj.length)
        np.testing.assert_allclose(adv, alt, rtol=1e-12, atol=1e-12)


def test_exact_decomposition_zeroes_residual_stream():
    batch, _ = random_batch(1)
    decomps = [
        RewardDecomposition.from_values(np.full(t.length, t.episodic_return / t.length), 0.0)
        for t in batch
    ]
    decomps = [RewardDecomposition(d.per_interval, d.composite, 0.0) for d in decomps]
    value_net = zeroed_value_net(4)
    _, _, targets_0 = compute_advantages(batch, decomps, value_net, 0.99, 0.95)
    np.testing.assert_array_equal(targets_0, np.zeros(sum(t.length for t in batch)))


def test_gae_matches_direct_recursion_with_real_values():
    batch, decomps = random_batch(2, n=1, t_len=7)
    value_net = ValueNetwork(np.random.default_rng(5), 4, hidden=(8,))
    gamma, lam = 0.9, 0.8
    advantages, _, _ = compute_advantages(batch, decomps, value_net, gamma, lam)
    traj, dec = batch[0], decomps[0]
    vr, v0 = value_net.values_np(traj.states)
    r1 = dec.per_interval
    r2 = np.zeros(traj.length)
    r2[-1] = dec.residual

    def gae_ref(rewards, values):
        values = np.append(values, 0.0)
        adv = np.zeros(len(rewards))
        acc = 0.0
        for t in reversed(range(len(rewards))):
            delta = rewards[t] + gamma * values[t + 1] - values[t]
            acc = delta + gamma * lam * acc
            adv[t] = acc
        return adv

    want = gae_ref(r1, vr) + gae_ref(r2, v0)
    np.testing.assert_allclose(advantages, want, rtol=1e-12)


RAGGED = [1, 7, 3, 12, 1, 5]


def test_batched_gae_is_bitwise_the_per_row_scans():
    """Rows of a zero-padded (B, T) block, ragged and of length 1, get the
    bits of their own one-row scans; the padding stays 0."""
    rng = np.random.default_rng(7)
    t_len = max(RAGGED)
    rewards, values = np.zeros((len(RAGGED), t_len)), np.zeros((len(RAGGED), t_len + 1))
    rows = []
    for b, n in enumerate(RAGGED):
        r, v = rng.normal(size=n), rng.normal(size=n)
        rewards[b, :n], values[b, :n] = r, v
        rows.append(_kernels.gae(r, np.append(v, 0.0), 0.99, 0.95))
    adv = _kernels.gae(rewards, values, 0.99, 0.95)
    for b, (n, row) in enumerate(zip(RAGGED, rows)):
        assert np.array_equal(adv[b, :n], row) and not adv[b, n:].any()


def test_advantages_are_bitwise_the_per_episode_scans_of_one_stacked_value_pass():
    rng = np.random.default_rng(8)
    batch, decomps = [], []
    for n in RAGGED:
        traj = Trajectory(states=rng.normal(size=(n, 4)), actions=rng.integers(0, 2, size=n),
                          episodic_return=float(rng.normal()))
        batch.append(traj)
        decomps.append(RewardDecomposition.from_values(rng.normal(size=n), traj.episodic_return))
    value_net = ValueNetwork(np.random.default_rng(9), 4, hidden=(8,))
    states = np.concatenate([t.states for t in batch])
    got = compute_advantages(batch, decomps, value_net, 0.99, 0.95)
    assert all(np.array_equal(a, b) for a, b in zip(
        got, compute_advantages(batch, decomps, value_net, 0.99, 0.95, states), strict=True))
    # the value net's one pass over the stacked states, split per episode
    values = zip(*(per_episode(v, batch) for v in value_net.values_np(states)))
    want = [[], [], []]
    for traj, dec, (vr, v0) in zip(batch, decomps, values, strict=True):
        r2 = np.zeros(traj.length)
        r2[-1] = dec.residual
        adv1 = _kernels.gae(np.asarray(dec.per_interval), np.append(vr, 0.0), 0.99, 0.95)
        adv2 = _kernels.gae(r2, np.append(v0, 0.0), 0.99, 0.95)
        for rows, row in zip(want, (adv1 + adv2, adv1 + vr, adv2 + v0)):
            rows.append(row)
    # each output is the per-episode rows stacked in batch order
    for out, rows in zip(got, want, strict=True):
        assert out.shape == (sum(RAGGED),) and np.array_equal(out, np.concatenate(rows))


def test_length_mismatch_rejected():
    batch, decomps = random_batch(4)
    decomps[0] = RewardDecomposition.from_values(np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="length"):
        compute_advantages(batch, decomps, zeroed_value_net(4), 0.99, 0.95)


# ---------------------------------------------------------------------------
# PPO update


def stacked(batch):
    """The batch's states and actions, stacked as `ppo_update` takes them."""
    return (np.concatenate([t.states for t in batch]),
            np.concatenate([t.actions for t in batch]))


def run_ppo(policy, value_net, batch, advantages, t_r, t_0, old_logp=None, worker=None,
            **overrides):
    """`ppo_update` from fresh Adams; `old_logp` defaults to the policy's own."""
    config = TrainConfig(**{**TINY, **overrides})
    states, actions = stacked(batch)
    if old_logp is None:
        old_logp = policy.log_prob_np(states, actions)
    return ppo_update(
        policy, value_net, states, actions, advantages, t_r, t_0, config,
        np.random.default_rng(0), adams(config), old_logp, worker=worker,
    )


def adams(config):
    """Fresh (policy, value net) Adams, as a Trainer builds them."""
    return nn.AdamOptimizer(config.policy_lr), nn.AdamOptimizer(config.policy_lr)


def test_zero_advantages_leave_policy_unchanged():
    batch, _ = random_batch(5)
    policy = CategoricalPolicy(np.random.default_rng(1), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(2), 4, hidden=(8,))
    before = {k: p.copy() for k, p in policy.params.items()}
    n = sum(t.length for t in batch)
    run_ppo(policy, value_net, batch, np.zeros(n), np.ones(n), np.ones(n))
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p, before[k])


def test_clipped_ratios_have_zero_policy_gradient():
    # make every ratio exceed 1 + clip with positive advantages: the
    # surrogate takes the clipped (constant) branch everywhere
    batch, _ = random_batch(6, n=1, t_len=6)
    traj = batch[0]
    policy = CategoricalPolicy(np.random.default_rng(3), 4, 2, hidden=(8,))
    old = policy.log_prob_np(traj.states, traj.actions) - 1.0  # ratio = e > 1.2 everywhere
    adv = np.abs(np.random.default_rng(4).normal(size=6)) + 0.1
    _, grad = policy.ppo_loss_grad(traj.states, traj.actions, old, adv, 0.2, 0.0)
    assert np.array_equal(grad, np.zeros(grad.size))


@pytest.mark.parametrize("env_name", ["chain", "point_mass"])
def test_ppo_update_builds_no_tape(monkeypatch, env_name):
    # A tape node is a Tensor with parents.
    env = envs.make_env(env_name, {"horizon": 5})
    policy = make_policy(np.random.default_rng(1), env, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(2), env.state_dim, hidden=(8,))
    batch = rollout(policy, env, 30, np.random.default_rng(3))
    advantages = np.random.default_rng(4).normal(size=sum(t.length for t in batch))
    nodes, backward_calls = [], []
    result, backward = ad._result, ad.backward

    def counted_result(arr, parents, vjp):
        if parents:
            nodes.append(vjp)
        return result(arr, parents, vjp)

    monkeypatch.setattr(ad, "_result", counted_result)
    monkeypatch.setattr(ad, "backward", lambda root: backward_calls.append(root) or backward(root))
    metrics = run_ppo(policy, value_net, batch, advantages, advantages, advantages,
                      entropy_coef=0.01)
    assert metrics["updates"] > 0 and not metrics["aborted"]
    assert nodes == [] and backward_calls == []


def test_regression_minibatches_take_their_slice_of_the_epoch_index(monkeypatch):
    # inline, so that both groups' `loss_grad` calls are made in this process
    monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: 1)
    config = dict(TINY, env="grid", env_params={"size": 3, "horizon": 6}, ppo_batch=64,
                  regression_minibatch=4)
    trainer = Trainer(TrainConfig(**config), seed=0)
    trainer.buffer.insert(rollout(trainer.policy, trainer.env, 64, trainer.rollout_rng))
    steps, groups = [], []
    step, loss_grad = trainer_mod.decomposer.regression_step, trainer_mod.decomposer.loss_grad

    def recorded_step(model, x, lengths, *rest):
        steps.append(rest[-1] is not None)  # split: a second group's loss_grad comes
        return step(model, x, lengths, *rest)

    def recorded_loss_grad(model, x, lengths, *rest):
        groups.append((np.array(lengths), rest[-1]))
        return loss_grad(model, x, lengths, *rest)

    monkeypatch.setattr(trainer_mod.decomposer, "regression_step", recorded_step)
    monkeypatch.setattr(trainer_mod.decomposer, "loss_grad", recorded_loss_grad)
    trainer._regression_phase()
    # one regression_step per minibatch, more than one minibatch per epoch,
    # so most slices start past row 0; each split minibatch makes two calls
    per_epoch = -(-len(trainer.buffer) // trainer.config.regression_minibatch)
    assert len(steps) == per_epoch * trainer.config.regression_epochs >= 10
    assert len(groups) == len(steps) + sum(steps) and any(steps)
    for lengths, (segment, positions) in groups:
        want = _kernels.segment_index(lengths)
        assert segment.dtype == want[0].dtype and positions.dtype == want[1].dtype
        assert np.array_equal(segment, want[0]) and np.array_equal(positions, want[1])


def test_regression_and_predict_build_no_tape(monkeypatch):
    config = dict(TINY, env="grid", env_params={"size": 3, "horizon": 6}, ppo_batch=64,
                  regression_minibatch=4, architecture="attention", interval_kind="prefixes")
    trainer = Trainer(TrainConfig(**config), seed=0)
    batch = rollout(trainer.policy, trainer.env, 64, trainer.rollout_rng)
    trainer.buffer.insert(batch)
    trainer.normalizer.update([t.episodic_return for t in batch])
    ff = make_predictor("ff", trainer.model.input_dim, np.random.default_rng(1))
    nodes, backward_calls = [], []
    result, backward = ad._result, ad.backward

    def counted_result(arr, parents, vjp):
        if parents:
            nodes.append(vjp)
        return result(arr, parents, vjp)

    monkeypatch.setattr(ad, "_result", counted_result)
    monkeypatch.setattr(ad, "backward", lambda *a: backward_calls.append(a) or backward(*a))
    before = nn.layout(trainer.model.params).flatten(trainer.model.params)
    loss = trainer._regression_phase()
    predict(trainer.model, batch, trainer.normalizer)
    predict(ff, batch)
    after = nn.layout(trainer.model.params).flatten(trainer.model.params)
    assert np.isfinite(loss) and not np.array_equal(after, before)
    recurrent = make_predictor("recurrent", trainer.model.input_dim, np.random.default_rng(2))
    x = input_rows(recurrent, batch)
    lengths = [t.length for t in batch]
    regression_step(recurrent, x, lengths, regression_targets(batch), nn.AdamOptimizer(1e-3))
    predict(recurrent, batch)
    assert cli.run_verification([oracle.chain3_mdp()], n_inits=3)["pass"]
    assert nodes == [] and backward_calls == []


def test_non_finite_loss_restores_parameters():
    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    before_p = {k: p.copy() for k, p in policy.params.items()}
    before_v = {k: p.copy() for k, p in value_net.params.items()}
    n = sum(t.length for t in batch)
    bad_targets = np.full(n, np.inf)
    metrics = run_ppo(policy, value_net, batch, np.ones(n), bad_targets, bad_targets)
    assert metrics["aborted"]
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p, before_p[k])
    for k, p in value_net.params.items():
        np.testing.assert_array_equal(p, before_v[k])


def test_overflowing_ratio_with_positive_advantage_aborts():
    # exp(logp + 800) overflows; where the advantage is positive the minimum
    # takes the finite clipped branch, so the loss stays finite and only the
    # ratio shows the fault. One minibatch, one epoch: nothing runs after it.
    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    before_p = {k: p.copy() for k, p in policy.params.items()}
    before_v = {k: p.copy() for k, p in value_net.params.items()}
    advantages = np.concatenate([np.where(np.arange(t.length) % 2, 1.0, -1.0) for t in batch])
    positive = advantages > 0
    old_logp = policy.log_prob_np(*stacked(batch)) - 800.0 * positive
    targets = np.ones(len(advantages))
    with np.errstate(over="ignore"):
        metrics = run_ppo(policy, value_net, batch, advantages, targets, targets, old_logp,
                          epochs=1, minibatch=len(positive))
    assert metrics["aborted"] and metrics["updates"] == 0
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p, before_p[k])
    for k, p in value_net.params.items():
        np.testing.assert_array_equal(p, before_v[k])


def test_aborted_update_restores_optimizer_state():
    batch, _ = random_batch(8, n=8)
    config = TrainConfig(**{**TINY, "minibatch": 5})
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    opts = adams(config)
    advantages = targets = np.ones(sum(t.length for t in batch))
    rng = np.random.default_rng(0)
    states, actions = stacked(batch)
    ppo_update(policy, value_net, states, actions, advantages, targets, targets, config, rng,
               opts, policy.log_prob_np(states, actions))
    before = [(opt.t, opt.m.copy(), opt.v.copy()) for opt in opts]
    bad_targets = targets.copy()
    bad_targets[-1] = np.inf
    metrics = ppo_update(
        policy, value_net, states, actions, advantages, bad_targets, targets, config, rng,
        opts, policy.log_prob_np(states, actions),
    )
    assert metrics["aborted"] and metrics["updates"] > 0
    for opt, (steps, m, v) in zip(opts, before, strict=True):
        assert opt.t == steps
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def two_adam_ppo(policy, value_net, batch, advantages, t_r, t_0, config, rng, adams, old_logp):
    """`ppo_update` as one loop with one reference Adam per network, each
    gradient a fresh vector. Returns whether a gradient came back None, which
    leaves the models and Adams where that minibatch found them, and the
    metrics: the losses summed over the minibatches before it."""
    states, actions = stacked(batch)
    adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    metrics = {"policy_loss": 0.0, "value_loss": 0.0, "updates": 0}
    for _ in range(config.epochs):
        order = rng.permutation(len(adv))
        for start in range(0, len(adv), config.minibatch):
            idx = order[start : start + config.minibatch]
            policy_loss, g_policy = policy.ppo_loss_grad(
                states[idx], actions[idx], old_logp[idx], adv[idx], config.clip,
                config.entropy_coef)
            value_loss, g_value = value_net.loss_grad(states[idx], t_r[idx], t_0[idx])
            if g_policy is None or g_value is None:
                return True, metrics
            policy.params = adams[0].step(policy.params, g_policy)
            value_net.params = adams[1].step(value_net.params, g_value)
            metrics["policy_loss"] += policy_loss
            metrics["value_loss"] += value_loss
            metrics["updates"] += 1
    return False, metrics


def test_ppo_update_is_bitwise_a_loop_with_two_adams():
    # (episodes of 5 steps, minibatch): 40 steps in 8 full minibatches, 30
    # in 3, and 40 in 3 of 13 and a 1-step tail; the value stream inline
    # and in a worker
    for (n, minibatch), inline in itertools.product(((8, 5), (6, 10), (8, 13)), (True, False)):
        batch, _ = random_batch(9, n=n)
        config = TrainConfig(**{**TINY, "minibatch": minibatch, "entropy_coef": 0.01})
        models = [(CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,)),
                   ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))) for _ in range(2)]
        (policy, value_net), (ref_policy, ref_value) = models
        opts, refs = adams(config), [ReferenceAdam(config.policy_lr) for _ in range(2)]
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        draw = np.random.default_rng(1)
        advantages = draw.normal(size=n * 5)
        targets = draw.normal(size=n * 5)
        bad_targets = targets.copy()
        bad_targets[-1] = np.inf
        # the policy stream aborts where an old log-prob makes the ratio overflow
        bad_logp = np.zeros(n * 5)
        bad_logp[n * 5 // 2] = -800.0
        worker = None if inline else worker_mod.Worker(value_net)
        try:
            for t_r, logp_shift in ((targets, 0.0), (bad_targets, 0.0), (targets, bad_logp),
                                    (targets, 0.0)):
                states, actions = stacked(batch)
                with np.errstate(over="ignore"):
                    metrics = ppo_update(
                        policy, value_net, states, actions, advantages, t_r, targets, config,
                        rng, opts, policy.log_prob_np(states, actions) + logp_shift,
                        worker=worker)
                    saved = (dict(ref_policy.params), dict(ref_value.params),
                             [(a.t, a.m, a.v) for a in refs])
                    aborted, want = two_adam_ppo(
                        ref_policy, ref_value, batch, advantages, t_r, targets, config,
                        ref_rng, refs, ref_policy.log_prob_np(states, actions) + logp_shift)
                assert metrics == {**want, "aborted": aborted}
                assert metrics["updates"] > 0
                if aborted:
                    ref_policy.params, ref_value.params = saved[0], saved[1]
                    for a, (t, m, v) in zip(refs, saved[2]):
                        a.t, a.m, a.v = t, m, v
                else:
                    assert metrics["updates"] == config.epochs * -(-n * 5 // minibatch)
                for model, ref in ((policy, ref_policy), (value_net, ref_value)):
                    assert model.params.keys() == ref.params.keys()
                    assert all(np.array_equal(model.params[k], ref.params[k])
                               for k in ref.params)
                    assert all(not p.flags.writeable for p in model.params.values())
                for opt, ref in zip(opts, refs, strict=True):
                    assert opt.t == ref.t
                    assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        finally:
            if worker is not None:
                worker.close()


# ---------------------------------------------------------------------------
# the value-stream worker


@contextlib.contextmanager
def deadline(seconds):
    """TimeoutError in the block if it runs for more than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def benchmark_config(workload):
    """The TrainConfig of one of the benchmark's train workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return TrainConfig(**workloads.settings(workload)["config"])


def trainer_state(trainer):
    """Every model's parameters, every Adam's state and every RNG's state."""
    models = [m for m in (trainer.policy, trainer.value_net, trainer.model) if m is not None]
    opts = [o for o in (trainer.policy_opt, trainer.value_opt, trainer.reward_opt) if o is not None]
    rngs = [trainer.init_rng, trainer.rollout_rng, trainer.ppo_rng, trainer.regression_rng]
    if trainer.buffer is not None:
        rngs.append(trainer.buffer.rng)
    return ([nn.layout(m.params).flatten(m.params).tobytes() for m in models],
            [(o.t, o.m.tobytes(), o.v.tobytes()) for o in opts],
            [r.bit_generator.state for r in rngs])


@pytest.mark.parametrize("workload", ["train-full", "train-baseline"])
def test_worker_and_inline_steps_are_bitwise_equal(monkeypatch, workload):
    # inline on one CPU, and where the platform has no affinity call
    # (Windows, macOS), whatever its CPU count
    config = benchmark_config(workload)
    runs = []
    for where in ("two cpus", "one cpu", "no affinity call"):
        with monkeypatch.context() as patch:
            if where == "no affinity call":
                patch.delattr(os, "sched_getaffinity", raising=False)
            else:
                patch.setattr(trainer_mod, "usable_cpus", lambda: 2 if where == "two cpus" else 1)
            trainer = Trainer(config, seed=11)
            outputs = repr([trainer.step() for _ in range(20)])
        assert (trainer._worker is None) == (where != "two cpus")
        runs.append((outputs, trainer_state(trainer)))
    assert runs[0] == runs[1] == runs[2]


def test_worker_exits_when_its_trainer_is_dropped_or_its_pipe_closes(monkeypatch):
    monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: 2)
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    assert trainer._worker is None  # building a Trainer starts no process
    trainer.step()
    process = trainer._worker.process
    assert process.is_alive()
    del trainer
    gc.collect()
    process.join(5)
    assert not process.is_alive() and process.exitcode == 0
    worker = worker_mod.Worker(ValueNetwork(np.random.default_rng(0), 4, hidden=(8,)))
    worker._conn.close()
    worker.process.join(5)
    assert not worker.process.is_alive() and worker.process.exitcode == 0


def test_a_worker_that_raises_or_dies_gives_a_runtime_error():
    class Broken(ValueNetwork):
        def loss_grad(self, *args):
            raise ValueError("a broken value net")

    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = Broken(np.random.default_rng(6), 4, hidden=(8,))
    n = sum(t.length for t in batch)
    worker = worker_mod.Worker(value_net)
    try:
        with deadline(30):
            with pytest.raises(RuntimeError, match="a broken value net"):
                run_ppo(policy, value_net, batch, np.ones(n), np.ones(n), np.ones(n),
                        worker=worker)
            worker.process.kill()
            worker.process.join(5)
            with pytest.raises(RuntimeError, match="worker .* (is gone|died)"):
                run_ppo(policy, value_net, batch, np.ones(n), np.ones(n), np.ones(n),
                        worker=worker)
    finally:
        worker.close()
    assert not worker.process.is_alive()


def test_a_trainer_replaces_a_worker_that_died(monkeypatch):
    # the failed phase raises; the next one starts a fresh worker, so no
    # later phase reads a dead worker or a byte or reply left in its pipe.
    # With a decomposer the regression phase meets the dead worker first.
    monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: 2)
    for use_decomposer, first_met in ((False, "ppo_update"), (True, "_regression_phase")):
        trainer = Trainer(TrainConfig(**TINY, use_decomposer=use_decomposer), seed=0)
        trainer.step()
        dead = trainer._worker.process
        dead.kill()
        dead.join(5)
        with deadline(30):
            with pytest.raises(RuntimeError, match="worker .* (is gone|died)") as failed:
                trainer.step()
        assert any(entry.name == first_met for entry in failed.traceback)
        assert trainer._worker is None
        trainer.step()
        assert trainer._worker.process.pid != dead.pid and trainer._worker.process.is_alive()


def test_a_worker_that_raises_in_the_regression_phase_gives_a_runtime_error(monkeypatch):
    # loss_grad raises in the worker alone; the worker is forked with the patch
    parent, loss_grad = os.getpid(), trainer_mod.decomposer.loss_grad

    def broken_in_the_worker(*args):
        if os.getpid() != parent:
            raise ValueError("a broken second group")
        return loss_grad(*args)

    monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: 2)
    monkeypatch.setattr(trainer_mod.decomposer, "loss_grad", broken_in_the_worker)
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    with deadline(30):
        with pytest.raises(RuntimeError, match="a broken second group"):
            trainer.step()
    assert trainer._worker is None


# ---------------------------------------------------------------------------
# the regression phase's two groups


def test_the_split_gives_two_non_empty_groups_of_whole_trajectories():
    rng = np.random.default_rng(0)
    cases = [rng.integers(1, 17, size=rng.integers(2, 20)) for _ in range(300)]
    cases += [np.array([1, 1]), np.array([1, 30]), np.array([30, 1]), np.array([3, 1, 1, 1])]
    for lengths in cases:
        k = trainer_mod.split_at(lengths)
        assert 1 <= k <= len(lengths) - 1
        # the shortest prefix with at least half of the rows, or all but the
        # last trajectory where only the whole minibatch has that
        prefix, total = lengths[:k].sum(), lengths.sum()
        assert 2 * prefix >= total or k == len(lengths) - 1
        assert 2 * (prefix - lengths[k - 1]) < total
    lengths = rng.integers(1, 17, size=23)
    rows = rng.normal(size=(lengths.sum(), 3))
    targets = rng.normal(size=23)
    orders = [rng.permutation(23) for _ in range(2)]
    starts = np.cumsum(lengths) - lengths
    minibatches = list(trainer_mod.regression_minibatches(rows, lengths, targets, orders, 8))
    assert [len(groups) for groups in minibatches] == [2, 2, 2] * 2
    for i, groups in enumerate(minibatches):
        # the groups, end to end, are the minibatch's trajectories in order
        order = orders[i // 3][8 * (i % 3) : 8 * (i % 3) + 8]
        want = np.concatenate([rows[s : s + n] for s, n in zip(starts[order], lengths[order])])
        assert np.array_equal(np.concatenate([g[0] for g in groups]), want)
        assert np.array_equal(np.concatenate([g[1] for g in groups]), lengths[order])
        assert np.array_equal(np.concatenate([g[2] for g in groups]), targets[order])
        assert len(groups[0][1]) == trainer_mod.split_at(lengths[order])


def test_a_one_trajectory_tail_minibatch_is_not_split():
    lengths = np.arange(1, 18)
    rows = np.arange(float(lengths.sum())).reshape(-1, 1)
    orders = [np.arange(17), np.arange(17)[::-1]]
    minibatches = list(trainer_mod.regression_minibatches(rows, lengths, np.zeros(17), orders, 8))
    assert [len(groups) for groups in minibatches] == [2, 2, 1, 2, 2, 1]
    for groups, last in ((minibatches[2], 17), (minibatches[5], 1)):
        (x, tail, _, (segment, positions)), = groups
        assert tail.tolist() == [last] and len(x) == last
        assert not segment.any() and positions.tolist() == list(range(last))


def regression_state(trainer):
    """The predictor's parameters, the reward Adam and the regression RNG."""
    opt = trainer.reward_opt
    return (nn.layout(trainer.model.params).flatten(trainer.model.params).tobytes(),
            (opt.t, opt.m.tobytes(), opt.v.tobytes()), trainer.regression_rng.bit_generator.state)


def test_worker_and_inline_regression_phases_are_bitwise_equal(monkeypatch):
    # minibatches of 5 from samples of 10 or so, with one-trajectory tails
    # on some of them
    config = TrainConfig(**{**TINY, "iterations": 3, "regression_minibatch": 3})
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: cpus)
        trainer = Trainer(config, seed=4)
        rows = [trainer.step()[0]["regression_loss"] for _ in range(3)]
        rows.append(trainer._regression_phase())
        assert (trainer._worker is None) == (cpus == 1)
        runs.append((rows, regression_state(trainer)))
    assert runs[0] == runs[1]


def poison_targets(monkeypatch, trainer, group):
    """Make one target of the next regression phase infinite: a trajectory
    of the first minibatch's group 1 or 2. The minibatch must hold the
    whole sample."""
    targets_of = trainer_mod.decomposer.regression_targets

    def poisoned(sample, normalizer=None):
        targets = targets_of(sample, normalizer).copy()
        # the first epoch's order, as the phase will draw it
        order = copy.deepcopy(trainer.regression_rng).permutation(len(sample))
        k = trainer_mod.split_at(np.array([t.length for t in sample])[order])
        targets[order[0] if group == 1 else order[k]] = np.inf
        return targets

    monkeypatch.setattr(trainer_mod.decomposer, "regression_targets", poisoned)


@pytest.mark.parametrize("group", [1, 2])
@pytest.mark.parametrize("cpus", [2, 1])
def test_a_non_finite_loss_in_either_group_leaves_the_predictor_untouched(monkeypatch, group,
                                                                           cpus):
    monkeypatch.setattr(trainer_mod, "usable_cpus", lambda: cpus)
    trainer = Trainer(TrainConfig(**{**TINY, "regression_minibatch": 64}), seed=0)
    trainer.step()
    worker = trainer._worker
    before = regression_state(trainer)[:2]
    poison_targets(monkeypatch, trainer, group)
    with deadline(30):
        with pytest.raises(FloatingPointError, match="non-finite"):
            trainer.step()
    assert regression_state(trainer)[:2] == before
    assert trainer._worker is None
    if worker is not None:  # closed in the middle of its phase
        assert not worker.process.is_alive() and worker.process.exitcode == 0


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="no /proc")
def test_worker_reads_the_cpu_its_parent_is_on():
    assert worker_mod._cpu_of(os.getpid()) in os.sched_getaffinity(0)
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    assert worker_mod._cpu_of(child.pid) is None  # a process that is gone


def test_a_training_process_leaves_no_worker_behind():
    code = ("from rdecomp import trainer\n"
            "trainer.usable_cpus = lambda: 2\n"
            f"run = trainer.Trainer(trainer.TrainConfig(**{TINY!r}), seed=0)\n"
            "run.step()\n"
            "print(run._worker.process.pid, flush=True)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    # with capture_output, a worker that outlived the run would hold its
    # stdout open and this call would time out
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    pid = int(proc.stdout)
    for _ in range(50):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    pytest.fail(f"worker {pid} is still there after its run exited")


# ---------------------------------------------------------------------------
# full loop


def test_zero_iterations_returns_initialized_models():
    config = TrainConfig(**{**TINY, "iterations": 0})
    result = train(config, seed=0)
    assert result.metrics == []
    assert result.policy is not None and result.model is not None


def test_baseline_mode_runs_and_logs():
    config = TrainConfig(**{**TINY, "use_decomposer": False})
    result = train(config, seed=0)
    assert len(result.metrics) == 2
    for row in result.metrics:
        assert row["regression_loss"] == 0.0
        # with a zero decomposition the residual is the whole return
        assert row["residual_abs_mean"] >= 0.0
        assert np.isfinite(row["return_mean"])


def test_baseline_zero_decompositions_are_bitwise_from_values():
    trainer = Trainer(TrainConfig(**{**TINY, "use_decomposer": False}), seed=0)
    batch = rollout(trainer.policy, trainer.env, 60, np.random.default_rng(2))
    # a return of -0.0 keeps its sign through R - 0.0
    batch.append(Trajectory(batch[0].states, batch[0].actions, -0.0))
    decomps = trainer.decompose(batch)
    assert {1.0, 0.0} <= {t.episodic_return for t in batch}
    base = decomps[0].per_interval.base
    for traj, got in zip(batch, decomps, strict=True):
        want = RewardDecomposition.from_values(np.zeros(traj.length), traj.episodic_return)
        # views of one read-only zeros array
        assert got.per_interval.base is base is not None and not base.flags.writeable
        assert got.per_interval.dtype == want.per_interval.dtype
        assert np.array_equal(got.per_interval, want.per_interval)
        assert repr(got.composite) == repr(want.composite) == "0.0"
        assert repr(got.residual) == repr(want.residual) == repr(traj.episodic_return)


def test_unknown_buffer_scheme_rejected_with_or_without_a_decomposer():
    for use_decomposer in (True, False):
        with pytest.raises(ValueError, match="buffer_scheme must be one of"):
            TrainConfig(**TINY, buffer_scheme="X", use_decomposer=use_decomposer)


@pytest.mark.parametrize("overrides", [{}, {"use_decomposer": False},
                                       {"bias_correction": False},
                                       {"env": "point_mass", "env_params": {"horizon": 5}}])
def test_grad_variance_is_taken_at_the_policy_that_drew_the_batch(monkeypatch, overrides):
    # the reference: the (B, P) matrix form on a copy of the policy made
    # before the update, with the decompositions the step used
    seen = []
    real_update, real_variance = trainer_mod.ppo_update, Trainer._gradient_variance

    def spy_variance(self, batch, decomps, a, head_grads):
        seen.append({"batch": batch, "decomps": decomps})
        return real_variance(self, batch, decomps, a, head_grads)

    def spy_update(policy, value_net, states, actions, *args, **kwargs):
        seen[-1].update(policy=copy.deepcopy(policy), states=states, actions=actions,
                        old_logp=args[-1])
        return real_update(policy, value_net, states, actions, *args, **kwargs)

    monkeypatch.setattr(Trainer, "_gradient_variance", spy_variance)
    monkeypatch.setattr(trainer_mod, "ppo_update", spy_update)
    trainer = Trainer(TrainConfig(**{**TINY, **overrides}), seed=6)
    for _ in range(3):
        row, _ = trainer.step()
        got = seen[-1]
        want = reference_estimators.grad_bias_corrected(got["batch"], got["policy"], got["decomps"])
        np.testing.assert_allclose(row["grad_variance"], want.variance, rtol=1e-10, atol=0.0)
        # PPO gets the batch's steps, and its old log-probs come from the
        # same pass, bit for bit
        states, actions = stacked(got["batch"])
        assert np.array_equal(got["states"], states)
        assert np.array_equal(got["actions"], actions)
        assert np.array_equal(got["old_logp"], got["policy"].log_prob_np(states, actions))


def test_malloc_pinning_runs_once_per_process(monkeypatch):
    calls = []
    real_cdll = ctypes.CDLL

    def counting_cdll(name):
        calls.append(name)
        return real_cdll(name)

    libc = real_cdll(None)
    glibc = hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version")
    trainer_mod.pin_malloc_thresholds.cache_clear()
    monkeypatch.setattr(trainer_mod.ctypes, "CDLL", counting_cdll)
    try:
        first = trainer_mod.pin_malloc_thresholds()
        Trainer(TrainConfig(**TINY), seed=0)
        assert trainer_mod.pin_malloc_thresholds() is first
        assert calls == [None]
        assert first == glibc
    finally:
        trainer_mod.pin_malloc_thresholds.cache_clear()


def _openblas_threads():
    """The thread count of the OpenBLAS numpy links, or None."""
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules["numpy.core._multiarray_umath"])
    lib = ctypes.cdll.LoadLibrary(core.__file__)
    for name in trainer_mod.OPENBLAS_SETTERS:
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if getter is not None:
            return getter()
    return None


def test_a_trainer_runs_openblas_on_one_thread(monkeypatch):
    if _openblas_threads() is None:
        pytest.skip("numpy links no OpenBLAS")
    trainer_mod.pin_blas_threads.cache_clear()
    try:
        Trainer(TrainConfig(**TINY), seed=0)
        assert trainer_mod.pin_blas_threads() is True and _openblas_threads() == 1
        # a quiet no-op where no setter is found
        trainer_mod.pin_blas_threads.cache_clear()
        monkeypatch.setattr(trainer_mod, "OPENBLAS_SETTERS", ())
        assert trainer_mod.pin_blas_threads() is False
    finally:
        trainer_mod.pin_blas_threads.cache_clear()


class _Libc:
    """A C library: glibc if it names its version, with a `mallopt` that
    accepts the parameters in `accepts` (None: no `mallopt` at all)."""

    def __init__(self, glibc=True, accepts=()):
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.0"
        if accepts is not None:
            self.calls = []
            self.mallopt = lambda param, value: self.calls.append(param) or int(param in accepts)


def _no_libc(name):
    raise TypeError("LoadLibrary() argument 1 must be str, not None")


@pytest.mark.parametrize("cdll", [
    lambda name: _Libc(accepts=None),  # glibc with mallopt monkeypatched away
    lambda name: _Libc(glibc=False, accepts=()),  # musl: a mallopt that returns 0
    _no_libc,  # Windows: CDLL(None) cannot load the C library
], ids=["no-mallopt", "not-glibc", "no-libc"])
def test_malloc_pinning_is_a_quiet_no_op_without_glibc(monkeypatch, cdll):
    trainer_mod.pin_malloc_thresholds.cache_clear()
    monkeypatch.setattr(trainer_mod.ctypes, "CDLL", cdll)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trainer_mod.pin_malloc_thresholds() is False
            row, _ = Trainer(TrainConfig(**TINY), seed=0).step()
        assert np.isfinite(row["grad_variance"])
    finally:
        trainer_mod.pin_malloc_thresholds.cache_clear()


@pytest.mark.parametrize("accepts", [(), (trainer_mod.M_MMAP_THRESHOLD,)])
def test_malloc_pinning_warns_when_mallopt_refuses(monkeypatch, accepts):
    # a refused value still leaves the other one pinned
    libc = _Libc(accepts=accepts)
    trainer_mod.pin_malloc_thresholds.cache_clear()
    monkeypatch.setattr(trainer_mod.ctypes, "CDLL", lambda name: libc)
    try:
        with pytest.warns(RuntimeWarning, match="mallopt") as caught:
            assert trainer_mod.pin_malloc_thresholds() is False
        assert len(caught) == 2 - len(accepts)
        assert libc.calls == [param for param, _ in trainer_mod.MALLOC_THRESHOLDS]
    finally:
        trainer_mod.pin_malloc_thresholds.cache_clear()


def test_training_metrics_deterministic():
    config = TrainConfig(**TINY)
    a = train(config, seed=3).metrics
    b = train(config, seed=3).metrics
    assert a == b


def test_seed_changes_trajectories():
    config = TrainConfig(**TINY)
    a = train(config, seed=3).metrics
    b = train(config, seed=4).metrics
    assert a != b


def test_bias_correction_flag_zeroes_residual():
    config = TrainConfig(**{**TINY, "bias_correction": False})
    result = train(config, seed=1)
    for row in result.metrics:
        assert row["residual_abs_mean"] == 0.0


def test_save_restore_resumes(tmp_path):
    config = TrainConfig(**{**TINY, "iterations": 3})
    first = Trainer(config, seed=5)
    first.step()
    first.step()
    first.save(str(tmp_path))
    resumed = Trainer(config, seed=5)
    resumed.restore(str(tmp_path))
    assert resumed.iteration == 2
    assert resumed.env_steps == first.env_steps
    row_resumed, _ = resumed.step()
    row_direct, _ = first.step()
    assert row_resumed["iteration"] == row_direct["iteration"] == 2
    assert row_resumed == row_direct


def test_state_file_without_normalizer_and_with_it_both_resume(tmp_path):
    # restore reads the normalizer from the reward checkpoint's meta; state
    # files of earlier versions also hold a copy, which is ignored
    config = TrainConfig(**{**TINY, "iterations": 3})
    first = Trainer(config, seed=5)
    first.step()
    first.save(str(tmp_path))
    state_path = tmp_path / "state.json"
    state = json.loads(state_path.read_text())
    assert "normalizer" not in state
    old_state = {**state, "normalizer": first.normalizer.state()}
    want, _ = first.step()
    for old in (False, True):
        if old:
            state_path.write_text(json.dumps(old_state))
        resumed = Trainer(config, seed=5)
        resumed.restore(str(tmp_path))
        assert resumed.step()[0] == want


@pytest.mark.parametrize("overrides", [
    {"architecture": "ff", "interval_kind": "singletons"},
    {"architecture": "recurrent", "interval_kind": "prefixes"},
    {"architecture": "attention", "interval_kind": "prefixes"},
    {"use_decomposer": False},
], ids=["ff-singletons", "recurrent-prefixes", "attention-prefixes", "baseline"])
def test_resume_matches_uninterrupted_run(tmp_path, overrides):
    config = TrainConfig(**{**TINY, "iterations": 6, **overrides})
    straight = train(config, seed=2).metrics
    first = Trainer(config, seed=2)
    for _ in range(3):
        first.step()
    first.save(str(tmp_path))
    resumed = Trainer(config, seed=2)
    resumed.restore(str(tmp_path))
    resumed.metrics = list(first.metrics)
    resumed.run()
    assert len(resumed.metrics) == 6
    for got, want in zip(resumed.metrics, straight, strict=True):
        assert got == want


BASELINE = dict(TINY, use_decomposer=False)


def saved_baseline(tmp_path):
    """A baseline trainer saved to tmp_path after 2 steps."""
    trainer = Trainer(TrainConfig(**BASELINE), seed=2)
    trainer.step()
    trainer.step()
    trainer.save(str(tmp_path))
    return trainer


def test_baseline_keeps_and_saves_no_reward_learning_state(tmp_path):
    first = saved_baseline(tmp_path)
    assert first.model is first.buffer is first.reward_opt is None
    assert list(tmp_path.glob("buffer*.jsonl")) == []
    state = json.loads((tmp_path / "state.json").read_text())
    assert not {"buffer_rng", "buffer_meta"} & state.keys()
    arrays, meta = checkpoint.load(str(tmp_path / "optimizer.json"))
    assert sorted(arrays) == ["policy/m", "policy/v", "value/m", "value/v"]
    assert sorted(meta["steps"]) == ["policy", "value"]


def test_baseline_directory_with_reward_learning_state_resumes_bit_identically(
        tmp_path, monkeypatch):
    # Baseline saves used to write an HO buffer file, its keys in state.json
    # and an empty reward Adam. Restore neither reads nor deletes them.
    first = saved_baseline(tmp_path)
    buf = ReplayBuffer("HO", BASELINE["buffer_capacity"],
                       seed=np.random.SeedSequence(2).spawn(5)[4])
    buf.insert(rollout(first.policy, first.env, 60, np.random.default_rng(0)))
    trajs, buffer_meta = buf.snapshot()
    write_jsonl(str(tmp_path / "buffer.jsonl"), trajs)
    state = json.loads((tmp_path / "state.json").read_text())
    state.update(buffer_rng=buf.rng.bit_generator.state, buffer_meta=buffer_meta)
    (tmp_path / "state.json").write_text(json.dumps(state, indent=1))
    arrays, meta = checkpoint.load(str(tmp_path / "optimizer.json"))
    arrays.update({"reward/m": np.zeros(0), "reward/v": np.zeros(0)})
    meta["steps"]["reward"] = 0
    checkpoint.save(str(tmp_path / "optimizer.json"), arrays, meta)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(trainer_mod, "read_jsonl", lambda path: pytest.fail(f"read {path}"))
    resumed = Trainer(TrainConfig(**BASELINE), seed=2)
    resumed.restore(str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
    assert resumed.step() == first.step()


def overlapping_ho_trainer(tmp_path):
    """A trainer whose HO queues share trajectories, saved after 2 steps."""
    config = TrainConfig(**{**TINY, "iterations": 4})
    trainer = Trainer(config, seed=0)
    for _ in range(2):
        trainer.step()
    buf = trainer.buffer
    assert len(buf) < len(buf.online) + len(buf.historical)  # the queues overlap
    trainer.save(str(tmp_path))
    return config, trainer


def test_resume_with_overlapping_ho_queues_is_bit_identical(tmp_path):
    config, first = overlapping_ho_trainer(tmp_path)
    resumed = Trainer(config, seed=0)
    resumed.restore(str(tmp_path))
    k = config.buffer_capacity
    assert_same_trajectories(resumed.buffer.sample(k), first.buffer.sample(k))
    assert resumed.step() == first.step()


def test_old_layout_buffer_file_resumes_bit_identically(tmp_path):
    # Before the HO union was deduplicated, buffer.jsonl held the online queue
    # and then every historical entry, so a trajectory in both had two lines,
    # and buffer_meta had no "layout"
    config, first = overlapping_ho_trainer(tmp_path)
    buf = first.buffer
    lines = list(buf.online) + [t for _, _, t in buf.historical]
    assert len(lines) > len(read_jsonl(str(tmp_path / "buffer.jsonl")))
    write_jsonl(str(tmp_path / "buffer.jsonl"), lines)
    state = json.loads((tmp_path / "state.json").read_text())
    del state["buffer_meta"]["layout"]
    (tmp_path / "state.json").write_text(json.dumps(state, indent=1))
    resumed = Trainer(config, seed=0)
    resumed.restore(str(tmp_path))
    k = config.buffer_capacity
    assert_same_trajectories(resumed.buffer.sample(k), buf.sample(k))
    assert resumed.step() == first.step()


def test_run_directory_of_one_shared_adam_resumes_bit_identically(tmp_path):
    # tests/data/shared_adam_baseline_run was saved after 2 steps by the code
    # in which one Adam stepped the policy and the value net over their
    # parameters laid end to end; optimizer.json held its slices
    config = TrainConfig(env="chain", env_params={"n_states": 4, "horizon": 5}, iterations=4,
                         ppo_batch=60, minibatch=20, hidden=(8,), use_decomposer=False)
    saved = ROOT / "tests" / "data" / "shared_adam_baseline_run"
    straight = Trainer(config, seed=3)
    straight.step()
    straight.step()
    straight.save(str(tmp_path / "again"))
    for path in saved.iterdir():
        assert (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()
    shutil.copytree(saved, tmp_path / "run")
    resumed = Trainer(config, seed=3)
    resumed.restore(str(tmp_path / "run"))
    assert [resumed.step() for _ in range(2)] == [straight.step() for _ in range(2)]
    assert trainer_state(resumed) == trainer_state(straight)


def test_restore_rejects_per_tensor_optimizer_state(tmp_path):
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    trainer.step()
    trainer.save(str(tmp_path))
    path = str(tmp_path / "optimizer.json")
    _, meta = checkpoint.load(path)
    # the layout before flat optimizer state: one entry per parameter tensor
    checkpoint.save(
        path, {f"policy/m/{k}": p for k, p in trainer.policy.params.items()}, meta
    )
    with pytest.raises(checkpoint.CheckpointError, match="policy/m"):
        Trainer(TrainConfig(**TINY), seed=0).restore(str(tmp_path))


def test_failed_restore_leaves_trainer_unchanged(tmp_path):
    saved = Trainer(TrainConfig(**TINY), seed=0)
    saved.step()
    saved.save(str(tmp_path))
    path = str(tmp_path / "optimizer.json")
    arrays, meta = checkpoint.load(path)
    del arrays["policy/m"]
    checkpoint.save(path, arrays, meta)
    fresh = Trainer(TrainConfig(**TINY), seed=0)
    params = {k: p.copy() for k, p in fresh.policy.params.items()}
    value = {k: p.copy() for k, p in fresh.value_net.params.items()}
    rng_state = fresh.rollout_rng.bit_generator.state
    with pytest.raises(checkpoint.CheckpointError, match="policy/m"):
        fresh.restore(str(tmp_path))
    for k, p in fresh.policy.params.items():
        np.testing.assert_array_equal(p, params[k])
    for k, p in fresh.value_net.params.items():
        np.testing.assert_array_equal(p, value[k])
    assert fresh.rollout_rng.bit_generator.state == rng_state
    assert (fresh.iteration, len(fresh.buffer), fresh.policy_opt.t, fresh.value_opt.t) == (
        0, 0, 0, 0)


def test_optimizer_file_keeps_one_adam_state_per_model(tmp_path):
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    models = {"policy": (trainer.policy, trainer.policy_opt),
              "value": (trainer.value_net, trainer.value_opt),
              "reward": (trainer.model, trainer.reward_opt)}
    sizes = {label: nn.layout(model.params).size for label, (model, _) in models.items()}
    for steps in (0, 1):
        if steps:
            trainer.step()
        trainer.save(str(tmp_path))
        arrays, meta = checkpoint.load(str(tmp_path / "optimizer.json"))
        assert sorted(arrays) == sorted(f"{label}/{k}" for label in sizes for k in "mv")
        for label, size in sizes.items():
            assert arrays[f"{label}/m"].shape == arrays[f"{label}/v"].shape == (
                size if steps else 0,)
        assert meta["steps"]["policy"] == meta["steps"]["value"] == trainer.policy_opt.t
        for label, (_, opt) in models.items():
            assert meta["steps"][label] == opt.t
            for k in "mv":
                assert np.array_equal(arrays[f"{label}/{k}"], getattr(opt, k))


def test_restore_rejects_policy_and_value_adams_at_different_steps(tmp_path):
    saved = Trainer(TrainConfig(**TINY), seed=0)
    saved.step()
    saved.save(str(tmp_path))
    path = str(tmp_path / "optimizer.json")
    arrays, meta = checkpoint.load(path)
    t = meta["steps"]["value"]
    meta["steps"]["value"] += 1
    checkpoint.save(path, arrays, meta)
    fresh = Trainer(TrainConfig(**TINY), seed=0)
    models = (fresh.policy, fresh.value_net, fresh.model)
    before = [m.params for m in models]
    with pytest.raises(checkpoint.CheckpointError, match=f"policy Adam step {t}, value {t + 1}"):
        fresh.restore(str(tmp_path))
    assert all(m.params is p for m, p in zip(models, before))
    assert (fresh.iteration, len(fresh.buffer), fresh.policy_opt.t, fresh.value_opt.t,
            fresh.policy_opt.m.size, fresh.value_opt.m.size) == (0, 0, 0, 0, 0, 0)


def _shrink_policy_moments(run_dir):
    path = str(run_dir / "optimizer.json")
    arrays, meta = checkpoint.load(path)
    arrays["policy/m"] = arrays["policy/m"][:-1]
    checkpoint.save(path, arrays, meta)


@pytest.mark.parametrize("change,tamper,match", [
    # before the check, this run rolled out with a mix of both networks and
    # then died in ppo_loss_grad with KeyError 't1_b'
    ({"hidden": (8,)}, None, "policy.json does not fit the model"),
    ({"architecture": "ff"}, None, "reward_model.json does not fit the model"),
    ({}, _shrink_policy_moments, "Adam moments"),
], ids=["hidden", "architecture", "adam"])
def test_restore_rejects_a_model_it_would_not_fit(tmp_path, change, tamper, match):
    saved = Trainer(TrainConfig(**TINY), seed=0)
    saved.step()
    saved.save(str(tmp_path))
    if tamper is not None:
        tamper(tmp_path)
    fresh = Trainer(TrainConfig(**{**TINY, **change}), seed=0)
    models = (fresh.policy, fresh.value_net, fresh.model)
    before = [m.params for m in models]
    with pytest.raises(checkpoint.CheckpointError, match=match):
        fresh.restore(str(tmp_path))
    assert all(m.params is p for m, p in zip(models, before))
    assert (fresh.iteration, len(fresh.buffer), fresh.policy_opt.t, fresh.value_opt.t,
            fresh.reward_opt.t) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("arch,kind", [("ff", "singletons"), ("recurrent", "prefixes"),
                                       ("attention", "prefixes")])
def test_batched_decompose_matches_per_trajectory_predict(arch, kind):
    trainer = Trainer(TrainConfig(**TINY, architecture=arch, interval_kind=kind), seed=3)
    trainer.step()
    batch = rollout(trainer.policy, trainer.env, 60, np.random.default_rng(4))
    assert len({t.length for t in batch}) > 1
    for traj, dec in zip(batch, trainer.decompose(batch), strict=True):
        want = predict(trainer.model, [traj], trainer.normalizer)[0]
        scale = np.abs(want.per_interval).max()
        assert np.abs(dec.per_interval - want.per_interval).max() <= 1e-12 * scale
        assert abs(dec.residual - want.residual) <= 1e-12 * max(abs(want.residual), scale)


def test_continuous_environment_path():
    config = TrainConfig(
        env="point_mass",
        env_params={"horizon": 6},
        iterations=1,
        ppo_batch=24,
        minibatch=12,
        buffer_capacity=6,
        regression_minibatch=3,
    )
    result = train(config, seed=2)
    assert np.isfinite(result.metrics[0]["return_mean"])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_aborted_ppo_update_is_recorded(tmp_path):
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    row, ppo_metrics = trainer.step()
    assert row["ppo_aborted"] == 0 and not ppo_metrics["aborted"]
    # an infinite value-head bias makes the value loss non-finite
    trainer.value_net.params["vr_b"] = np.full(1, np.inf)
    aborted_row, ppo_metrics = trainer.step()
    assert ppo_metrics["aborted"]
    assert aborted_row["ppo_aborted"] == 1
    path = tmp_path / "metrics.csv"
    writer = MetricsWriter(str(path))
    for r in trainer.metrics:
        writer.write(r)
    writer.close()
    rows = list(csv.DictReader(path.open()))
    assert [r["ppo_aborted"] for r in rows] == ["0", "1"]
