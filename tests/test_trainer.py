import csv

import numpy as np
import pytest

from rdecomp import autodiff as ad
from rdecomp import envs, estimators, nn
from rdecomp.decomposer import RewardDecomposition, predict
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


def zeroed_value_net(state_dim, two_heads=True):
    net = ValueNetwork(np.random.default_rng(0), state_dim, hidden=(8,), two_heads=two_heads)
    net.params = {k: ad.Tensor(np.zeros(p.shape)) for k, p in net.params.items()}
    return net


def uniform_policy(env):
    policy = make_policy(np.random.default_rng(0), env, hidden=(8,))
    policy.params["head_w"] = ad.Tensor(np.zeros(policy.params["head_w"].shape))
    policy.params["head_b"] = ad.Tensor(np.zeros(policy.params["head_b"].shape))
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


def test_single_head_mode_combines_streams():
    batch, decomps = random_batch(3, n=2)
    value_net = zeroed_value_net(4, two_heads=False)
    advantages, _, _ = compute_advantages(batch, decomps, value_net, 1.0, 1.0, two_heads=False)
    for traj, dec, adv in zip(batch, decomps, advantages):
        want = dec.residual + estimators.generalized_q(dec, traj.length)
        np.testing.assert_allclose(adv, want, rtol=1e-12)


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
    before = {k: p.data.copy() for k, p in policy.params.items()}
    zeros = [np.zeros(t.length) for t in batch]
    targets = [np.ones(t.length) for t in batch]
    run_ppo(policy, value_net, batch, zeros, targets, targets)
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_clipped_ratios_have_zero_policy_gradient():
    # make every ratio exceed 1 + clip with positive advantages: the
    # surrogate takes the clipped (constant) branch everywhere
    batch, _ = random_batch(6, n=1, t_len=6)
    traj = batch[0]
    policy = CategoricalPolicy(np.random.default_rng(3), 4, 2, hidden=(8,))
    logp = policy.log_prob_tensor(ad.constant(traj.states), traj.actions)
    old = ad.constant(logp.data - 1.0)  # ratio = e > 1.2 everywhere
    adv = ad.constant(np.abs(np.random.default_rng(4).normal(size=(6, 1))) + 0.1)
    ratio = ad.exp(ad.sub(logp, old))
    clipped = ad.mul(ad.clip(ratio, 0.8, 1.2), adv)
    unclipped = ad.mul(ratio, adv)
    loss = ad.neg(ad.mean_all(ad.minimum(unclipped, clipped)))
    grads = ad.backward(loss)
    for p in policy.params.values():
        np.testing.assert_array_equal(grads.of(p), np.zeros(p.shape))


def test_non_finite_loss_restores_parameters():
    batch, _ = random_batch(7)
    policy = CategoricalPolicy(np.random.default_rng(5), 4, 2, hidden=(8,))
    value_net = ValueNetwork(np.random.default_rng(6), 4, hidden=(8,))
    before_p = {k: p.data.copy() for k, p in policy.params.items()}
    before_v = {k: p.data.copy() for k, p in value_net.params.items()}
    advantages = [np.ones(t.length) for t in batch]
    bad_targets = [np.full(t.length, np.inf) for t in batch]
    metrics = run_ppo(policy, value_net, batch, advantages, bad_targets, bad_targets)
    assert metrics["aborted"]
    for k, p in policy.params.items():
        np.testing.assert_array_equal(p.data, before_p[k])
    for k, p in value_net.params.items():
        np.testing.assert_array_equal(p.data, before_v[k])


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
    assert row_resumed["return_mean"] == row_direct["return_mean"]
    np.testing.assert_allclose(
        row_resumed["regression_loss"], row_direct["regression_loss"], rtol=1e-6
    )


@pytest.mark.parametrize("arch,kind", [("ff", "singletons"), ("recurrent", "prefixes"),
                                       ("attention", "prefixes")])
def test_batched_decompose_matches_per_trajectory_predict(arch, kind):
    trainer = Trainer(TrainConfig(**TINY, architecture=arch, interval_kind=kind), seed=3)
    trainer.step()
    batch = rollout(trainer.policy, trainer.env, 60, np.random.default_rng(4))
    assert len({t.length for t in batch}) > 1
    for traj, dec in zip(batch, trainer.decompose(batch), strict=True):
        want = predict(trainer.model, traj, trainer.interval_set, trainer.normalizer,
                       trainer.n_actions)
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
    trainer.value_net.params["vr_b"] = ad.Tensor(np.full(1, np.inf))
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
