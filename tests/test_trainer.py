import copy
import csv
import ctypes
import json
import warnings

import numpy as np
import pytest
from reference_adam import ReferenceAdam
from test_buffers import assert_same_trajectories

from rdecomp import autodiff as ad
from rdecomp import _kernels, checkpoint, cli, envs, estimators, nn, oracle
from rdecomp import trainer as trainer_mod
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


@pytest.mark.parametrize("env_name,params", [("grid", {"size": 4, "horizon": 16}),
                                             ("point_mass", {"horizon": 12})])
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
    # per-step act: a fresh sampler, so a fresh cache, for every step
    sampler = type(policy).sampler
    monkeypatch.setattr(policy, "sampler", lambda: lambda s, r: sampler(policy)(s, r))
    per_step_rng = np.random.default_rng(3)
    per_step = rollout(policy, env, 300, per_step_rng)
    assert len(cached) == len(per_step)
    for x, y in zip(cached, per_step):
        assert np.array_equal(x.states, y.states) and np.array_equal(x.actions, y.actions)
        assert x.episodic_return == y.episodic_return
    assert rng.bit_generator.state == per_step_rng.bit_generator.state
    steps = sum(t.length for t in cached)
    if env_name == "grid":
        distinct = {s.tobytes() for t in cached for s in t.states}
        assert n_forwards == len(distinct) <= 16 < steps
    else:
        assert n_forwards == steps


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
        want = dec.residual + estimators.generalized_q(dec, traj.length)
        np.testing.assert_array_equal(adv, want)
        # and ties back to the baseline-subtracted coefficient form
        alt = traj.episodic_return - estimators.r_not_t(dec, traj.length)
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


def test_advantages_are_bitwise_the_per_episode_scans():
    rng = np.random.default_rng(8)
    batch, decomps = [], []
    for n in RAGGED:
        traj = Trajectory(states=rng.normal(size=(n, 4)), actions=rng.integers(0, 2, size=n),
                          episodic_return=float(rng.normal()))
        batch.append(traj)
        decomps.append(RewardDecomposition.from_values(rng.normal(size=n), traj.episodic_return))
    value_net = ValueNetwork(np.random.default_rng(9), 4, hidden=(8,))
    got = compute_advantages(batch, decomps, value_net, 0.99, 0.95)
    want = [[], [], []]
    for traj, dec in zip(batch, decomps):
        r2 = np.zeros(traj.length)
        r2[-1] = dec.residual
        vr, v0 = value_net.values_np(traj.states)
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


def run_ppo(policy, value_net, batch, advantages, t_r, t_0, old_logp=None, **overrides):
    """`ppo_update` from a fresh Adam; `old_logp` defaults to the policy's own."""
    config = TrainConfig(**{**TINY, **overrides})
    states, actions = stacked(batch)
    if old_logp is None:
        old_logp = policy.log_prob_np(states, actions)
    return ppo_update(
        policy, value_net, states, actions, advantages, t_r, t_0, config,
        np.random.default_rng(0), nn.AdamOptimizer(config.policy_lr), old_logp,
    )


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
    opt = nn.AdamOptimizer(config.policy_lr)
    advantages = targets = np.ones(sum(t.length for t in batch))
    rng = np.random.default_rng(0)
    states, actions = stacked(batch)
    ppo_update(policy, value_net, states, actions, advantages, targets, targets, config, rng,
               opt, policy.log_prob_np(states, actions))
    steps, m, v = opt.t, opt.m.copy(), opt.v.copy()
    bad_targets = targets.copy()
    bad_targets[-1] = np.inf
    metrics = ppo_update(
        policy, value_net, states, actions, advantages, bad_targets, targets, config, rng,
        opt, policy.log_prob_np(states, actions),
    )
    assert metrics["aborted"] and metrics["updates"] > 0
    assert opt.t == steps
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def two_adam_ppo(policy, value_net, batch, advantages, t_r, t_0, config, rng, adams):
    """`ppo_update` as a loop with one reference Adam per network, each
    gradient a fresh vector. Returns whether a gradient came back None, which
    leaves the models and Adams where that minibatch found them."""
    states = np.concatenate([t.states for t in batch])
    actions = np.concatenate([t.actions for t in batch])
    old_logp = policy.log_prob_np(states, actions)
    adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    for _ in range(config.epochs):
        order = rng.permutation(len(adv))
        for start in range(0, len(adv), config.minibatch):
            idx = order[start : start + config.minibatch]
            _, g_policy = policy.ppo_loss_grad(states[idx], actions[idx], old_logp[idx],
                                               adv[idx], config.clip, config.entropy_coef)
            _, g_value = value_net.loss_grad(states[idx], t_r[idx], t_0[idx])
            if g_policy is None or g_value is None:
                return True
            policy.params = adams[0].step(policy.params, g_policy)
            value_net.params = adams[1].step(value_net.params, g_value)
    return False


def test_ppo_update_is_bitwise_a_loop_with_two_adams():
    # (episodes of 5 steps, minibatch): 40 steps in 8 full minibatches, 30
    # in 3, and 40 in 3 of 13 and a 1-step tail
    for n, minibatch in ((8, 5), (6, 10), (8, 13)):
        batch, _ = random_batch(9, n=n)
        config = TrainConfig(**{**TINY, "minibatch": minibatch, "entropy_coef": 0.01})
        models = [(CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,)),
                   ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))) for _ in range(2)]
        (policy, value_net), (ref_policy, ref_value) = models
        opt, adams = nn.AdamOptimizer(config.policy_lr), [ReferenceAdam(config.policy_lr)
                                                          for _ in range(2)]
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        draw = np.random.default_rng(1)
        advantages = draw.normal(size=n * 5)
        targets = draw.normal(size=n * 5)
        bad_targets = targets.copy()
        bad_targets[-1] = np.inf
        for t_r in (targets, bad_targets, targets):
            states, actions = stacked(batch)
            metrics = ppo_update(policy, value_net, states, actions, advantages, t_r, targets,
                                 config, rng, opt, policy.log_prob_np(states, actions))
            saved = (dict(ref_policy.params), dict(ref_value.params),
                     [(a.t, a.m, a.v) for a in adams])
            aborted = two_adam_ppo(ref_policy, ref_value, batch, advantages, t_r, targets,
                                   config, ref_rng, adams)
            assert metrics["aborted"] == aborted and metrics["updates"] > 0
            if aborted:
                ref_policy.params, ref_value.params = saved[0], saved[1]
                for a, (t, m, v) in zip(adams, saved[2]):
                    a.t, a.m, a.v = t, m, v
            else:
                assert metrics["updates"] == config.epochs * -(-n * 5 // minibatch)
            for model, ref in ((policy, ref_policy), (value_net, ref_value)):
                assert model.params.keys() == ref.params.keys()
                assert all(np.array_equal(model.params[k], ref.params[k]) for k in ref.params)
            assert opt.t == adams[0].t == adams[1].t
            assert np.array_equal(opt.m, np.concatenate([a.m for a in adams]))
            assert np.array_equal(opt.v, np.concatenate([a.v for a in adams]))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


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

    def spy_update(policy, value_net, states, actions, *args):
        seen[-1].update(policy=copy.deepcopy(policy), states=states, actions=actions,
                        old_logp=args[-1])
        return real_update(policy, value_net, states, actions, *args)

    monkeypatch.setattr(Trainer, "_gradient_variance", spy_variance)
    monkeypatch.setattr(trainer_mod, "ppo_update", spy_update)
    trainer = Trainer(TrainConfig(**{**TINY, **overrides}), seed=6)
    for _ in range(3):
        row, _ = trainer.step()
        got = seen[-1]
        want = estimators.grad_bias_corrected(got["batch"], got["policy"], got["decomps"])
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
    assert (fresh.iteration, len(fresh.buffer), fresh.ppo_opt.t) == (0, 0, 0)


def test_optimizer_file_keeps_one_adam_state_per_model(tmp_path):
    # the PPO Adam spans the policy and the value net; the file still holds
    # each model's slice of its moments under the model's label
    trainer = Trainer(TrainConfig(**TINY), seed=0)
    sizes = {label: nn.layout(model.params).size for label, model in
             (("policy", trainer.policy), ("value", trainer.value_net),
              ("reward", trainer.model))}
    for steps in (0, 1):
        if steps:
            trainer.step()
        trainer.save(str(tmp_path))
        arrays, meta = checkpoint.load(str(tmp_path / "optimizer.json"))
        assert sorted(arrays) == sorted(f"{label}/{k}" for label in sizes for k in "mv")
        for label, size in sizes.items():
            assert arrays[f"{label}/m"].shape == arrays[f"{label}/v"].shape == (
                size if steps else 0,)
        assert meta["steps"]["policy"] == meta["steps"]["value"] == trainer.ppo_opt.t
        for k in "mv":
            pair = np.concatenate([arrays[f"policy/{k}"], arrays[f"value/{k}"]])
            assert np.array_equal(pair, getattr(trainer.ppo_opt, k))


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
    assert (fresh.iteration, len(fresh.buffer), fresh.ppo_opt.t, fresh.ppo_opt.m.size) == (
        0, 0, 0, 0)


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
    assert (fresh.iteration, len(fresh.buffer), fresh.ppo_opt.t, fresh.reward_opt.t) == (
        0, 0, 0, 0)


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
