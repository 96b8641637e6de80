import csv
import json

import numpy as np
import pytest

from rdecomp import autodiff as ad
from rdecomp import checkpoint, cli, envs, estimators, nn, oracle
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
from rdecomp.trajectory import Trajectory

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
    env = envs.chain_mdp(2, 1)
    batch = rollout(uniform_policy(env), env, 30, np.random.default_rng(1))
    assert all(t.length == 1 for t in batch)
    for t in batch:
        # the chain pays 1 exactly when the action moved right into the goal
        assert t.episodic_return == float(t.actions[0] == 1)


def test_rollout_deterministic_given_seed():
    env = envs.chain_mdp(5, 6)
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
    env = envs.chain_mdp(4, 6)
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


def test_monte_carlo_limit_recovers_corrected_coefficients():
    batch, decomps = random_batch(0)
    value_net = zeroed_value_net(4)
    advantages, _, _ = compute_advantages(batch, decomps, value_net, 1.0, 1.0)
    for traj, dec, adv in zip(batch, decomps, advantages):
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
    for t0 in targets_0:
        np.testing.assert_array_equal(t0, np.zeros_like(t0))


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
    np.testing.assert_allclose(advantages[0], want, rtol=1e-12)


def test_length_mismatch_rejected():
    batch, decomps = random_batch(4)
    decomps[0] = RewardDecomposition.from_values(np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="length"):
        compute_advantages(batch, decomps, zeroed_value_net(4), 0.99, 0.95)


# ---------------------------------------------------------------------------
# PPO update


def run_ppo(policy, value_net, batch, advantages, t_r, t_0, **overrides):
    config = TrainConfig(**{**TINY, **overrides})
    return ppo_update(
        policy, value_net, batch, advantages, t_r, t_0, config,
        np.random.default_rng(0), nn.AdamOptimizer(config.policy_lr),
        nn.AdamOptimizer(config.policy_lr),
    )


def test_zero_advantages_leave_policy_unchanged():
    batch, _ = random_batch(5)
    policy = CategoricalPolicy(np.random.default_rng(1), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(2), 4, hidden=(8,))
    before = {k: p.copy() for k, p in policy.params.items()}
    zeros = [np.zeros(t.length) for t in batch]
    targets = [np.ones(t.length) for t in batch]
    run_ppo(policy, value_net, batch, zeros, targets, targets)
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
    advantages = [np.random.default_rng(4).normal(size=t.length) for t in batch]
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
    before = nn.flatten_params(trainer.model.params)
    loss = trainer._regression_phase()
    predict(trainer.model, batch, "prefixes", trainer.normalizer)
    predict(ff, batch, "singletons")
    assert np.isfinite(loss) and not np.array_equal(nn.flatten_params(trainer.model.params), before)
    for kind in ("prefixes", "singletons"):
        recurrent = make_predictor("recurrent", trainer.model.input_dim, np.random.default_rng(2))
        x = np.concatenate(input_rows(recurrent, batch))
        lengths = [t.length for t in batch]
        regression_step(recurrent, x, lengths, regression_targets(batch), kind,
                        nn.AdamOptimizer(1e-3))
        predict(recurrent, batch, kind)
    assert cli.run_verification([oracle.chain3_mdp()], n_inits=3)["pass"]
    assert nodes == [] and backward_calls == []


def test_non_finite_loss_restores_parameters():
    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    before_p = {k: p.copy() for k, p in policy.params.items()}
    before_v = {k: p.copy() for k, p in value_net.params.items()}
    advantages = [np.ones(t.length) for t in batch]
    bad_targets = [np.full(t.length, np.inf) for t in batch]
    metrics = run_ppo(policy, value_net, batch, advantages, bad_targets, bad_targets)
    assert metrics["aborted"]
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p, before_p[k])
    for k, p in value_net.params.items():
        np.testing.assert_array_equal(p, before_v[k])


def test_overflowing_ratio_with_positive_advantage_aborts(monkeypatch):
    # exp(logp + 800) overflows; where the advantage is positive the minimum
    # takes the finite clipped branch, so the loss stays finite and only the
    # ratio shows the fault. One minibatch, one epoch: nothing runs after it.
    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    before_p = {k: p.copy() for k, p in policy.params.items()}
    before_v = {k: p.copy() for k, p in value_net.params.items()}
    advantages = [np.where(np.arange(t.length) % 2, 1.0, -1.0) for t in batch]
    positive = np.concatenate(advantages) > 0
    log_prob_np = policy.log_prob_np
    monkeypatch.setattr(policy, "log_prob_np",
                        lambda s, a: log_prob_np(s, a) - 800.0 * positive)
    targets = [np.ones(t.length) for t in batch]
    with np.errstate(over="ignore"):
        metrics = run_ppo(policy, value_net, batch, advantages, targets, targets,
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
    opts = (nn.AdamOptimizer(config.policy_lr), nn.AdamOptimizer(config.policy_lr))
    advantages = [np.ones(t.length) for t in batch]
    targets = [np.ones(t.length) for t in batch]
    rng = np.random.default_rng(0)
    ppo_update(policy, value_net, batch, advantages, targets, targets, config, rng, *opts)
    before = [(opt.t, opt.m.copy(), opt.v.copy()) for opt in opts]
    bad_targets = [t.copy() for t in targets]
    bad_targets[-1][-1] = np.inf
    metrics = ppo_update(
        policy, value_net, batch, advantages, bad_targets, targets, config, rng, *opts
    )
    assert metrics["aborted"] and metrics["updates"] > 0
    for opt, (t, m, v) in zip(opts, before):
        assert opt.t == t
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


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


@pytest.mark.parametrize("arch,kind", [("ff", "singletons"), ("recurrent", "prefixes"),
                                       ("attention", "prefixes")])
def test_resume_matches_uninterrupted_run(tmp_path, arch, kind):
    config = TrainConfig(**{**TINY, "iterations": 6}, architecture=arch, interval_kind=kind)
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
    assert (fresh.iteration, len(fresh.buffer), fresh.policy_opt.t) == (0, 0, 0)


@pytest.mark.parametrize("arch,kind", [("ff", "singletons"), ("recurrent", "prefixes"),
                                       ("attention", "prefixes")])
def test_batched_decompose_matches_per_trajectory_predict(arch, kind):
    trainer = Trainer(TrainConfig(**TINY, architecture=arch, interval_kind=kind), seed=3)
    trainer.step()
    batch = rollout(trainer.policy, trainer.env, 60, np.random.default_rng(4))
    assert len({t.length for t in batch}) > 1
    for traj, dec in zip(batch, trainer.decompose(batch), strict=True):
        want = predict(trainer.model, [traj], kind, trainer.normalizer)[0]
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
