import numpy as np
import pytest

from rdecomp import estimators
from rdecomp.decomposer import RewardDecomposition
from rdecomp.policies import CategoricalPolicy, GaussianPolicy
from rdecomp.trajectory import Trajectory


def grad_composite_by_interval(batch, policy, decomps):
    """Interval-major form of `estimators.grad_composite`, the batch mean.

    Sums r_hat_i times the scores of steps 0..i, interval by interval; a
    pure rearrangement of the step-major form kept as an independent
    implementation for identity checks.
    """
    per_sample = []
    for traj, dec in zip(batch, decomps):
        scores = policy.score_matrix(traj)
        g = np.zeros(scores.shape[1])
        for i, value in enumerate(dec.per_interval):
            g += value * scores[: i + 1].sum(axis=0)
        per_sample.append(g)
    return np.stack(per_sample).sum(axis=0) / len(per_sample)


def decomposition(values, episodic_return):
    return RewardDecomposition.from_values(np.asarray(values, dtype=float), episodic_return)


def random_setup(seed, t_len=None, n_states=3, n_actions=2):
    rng = np.random.default_rng(seed)
    t_len = t_len or int(rng.integers(1, 9))
    states = rng.normal(size=(t_len, n_states))
    actions = rng.integers(0, n_actions, size=t_len)
    ret = float(rng.normal())
    traj = Trajectory(states=states, actions=actions, episodic_return=ret)
    policy = CategoricalPolicy(rng, n_states, n_actions, hidden=(8,))
    dec = decomposition(rng.normal(size=t_len), ret)
    return traj, policy, dec


# ---------------------------------------------------------------------------
# generalized Q and its complement


def test_generalized_q_is_return_to_go():
    dec = decomposition([1.0, 2.0, 3.0], 6.0)
    np.testing.assert_array_equal(estimators.generalized_q(dec, 3), [6.0, 5.0, 3.0])


def test_generalized_q_prefixes_same_rule():
    # prefix i ends at step i, so the Q rule is identical for both kinds
    a, b, c = 0.3, -1.2, 2.5
    dec = decomposition([a, b, c], 0.0)
    q = estimators.generalized_q(dec, 3)
    np.testing.assert_allclose(q, [a + b + c, b + c, c], rtol=1e-15)


def test_generalized_q_matches_brute_force_membership():
    rng = np.random.default_rng(0)
    for kind in ("singletons", "prefixes"):
        values = rng.normal(size=4)
        dec = decomposition(values, 1.0)
        q = estimators.generalized_q(dec, 4)
        # brute force over (interval, t) membership in the ends-at->=t set
        for t in range(4):
            total = 0.0
            for i in range(4):
                members = range(i + 1) if kind == "prefixes" else [i]
                if max(members) >= t:
                    total += values[i]
            assert q[t] == pytest.approx(total, rel=1e-13)


def test_cumulative_sums_equal_the_step_loops_bit_for_bit():
    # The step-by-step loops these functions replaced, as the reference.
    def loop_q(values):
        q, acc = np.empty(len(values)), 0.0
        for t in range(len(values) - 1, -1, -1):
            acc += values[t]
            q[t] = acc
        return q

    def loop_rnot(values):
        rnot, acc = np.empty(len(values)), 0.0
        for t in range(len(values)):
            rnot[t] = acc
            acc += values[t]
        return rnot, acc

    rng = np.random.default_rng(12)
    t_lens = [*range(1, 40), 100, 517, 2000]
    # mixed magnitudes, so that the order of the additions shows
    rows = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n) for n in t_lens]
    for t_len, values in zip(t_lens, rows):
        dec = decomposition(values, 1.0)
        rnot, total = loop_rnot(values)
        assert np.array_equal(estimators.generalized_q(dec, t_len), loop_q(values))
        assert np.array_equal(estimators.r_not_t(dec, t_len), rnot)
        assert dec.composite == total

    # the padded-block forms the oracle uses: zero past each row's end
    lengths = np.array(t_lens[:39])
    block = np.zeros((39, 39))
    for k, values in enumerate(rows[:39]):
        block[k, : len(values)] = values
    q_rows = estimators.generalized_q_rows(block)
    rnot_rows = estimators.r_not_t_rows(block, lengths)
    for k, values in enumerate(rows[:39]):
        n = len(values)
        assert np.array_equal(q_rows[k], np.append(loop_q(values), np.zeros(39 - n)))
        assert np.array_equal(rnot_rows[k], np.append(loop_rnot(values)[0], np.zeros(39 - n)))


def test_generalized_q_length_mismatch_rejected():
    with pytest.raises(ValueError, match="entries"):
        estimators.generalized_q(decomposition([1.0], 1.0), 3)


def test_complement_trivial_cases():
    dec = decomposition([1.0, 2.0, 3.0], 6.0)
    np.testing.assert_array_equal(estimators.r_not_t(dec, 3), [0.0, 1.0, 3.0])


def test_complement_at_step_zero_is_always_zero():
    for seed in range(10):
        values = np.random.default_rng(seed).normal(size=6)
        dec = decomposition(values, 0.5)
        assert estimators.r_not_t(dec, 6)[0] == 0.0


def test_partition_identity():
    for seed in range(50):
        values = np.random.default_rng(seed).normal(size=8) * 10
        dec = decomposition(values, 2.0)
        q = estimators.generalized_q(dec, 8)
        rnot = estimators.r_not_t(dec, 8)
        np.testing.assert_allclose(rnot + q, dec.composite, rtol=1e-12, atol=1e-12)
        # and the complement agrees with its direct definition
        direct = np.array([values[:t].sum() for t in range(8)])
        np.testing.assert_allclose(rnot, direct, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# degenerate estimator cases


def test_zero_surrogate_rewards_give_zero_composite_gradient():
    traj, policy, _ = random_setup(1)
    dec = decomposition(np.zeros(traj.length), traj.episodic_return)
    est = estimators.grad_composite([traj], policy, [dec])
    np.testing.assert_array_equal(est.grad, np.zeros_like(est.grad))


def test_single_step_composite_reduces_to_reinforce_with_surrogate():
    traj, policy, _ = random_setup(2, t_len=1)
    dec = decomposition([0.7], traj.episodic_return)
    est = estimators.grad_composite([traj], policy, [dec])
    scores = policy.score_matrix(traj)
    np.testing.assert_allclose(est.grad, 0.7 * scores[0], rtol=1e-12)


def test_exact_decomposition_makes_corrected_equal_composite():
    traj, policy, _ = random_setup(3, t_len=5)
    values = np.random.default_rng(33).normal(size=5)
    dec = decomposition(values, 0.0)
    dec = RewardDecomposition(dec.per_interval, dec.composite, 0.0)  # r_0 == 0
    a = estimators.grad_bias_corrected([traj], policy, [dec])
    b = estimators.grad_composite([traj], policy, [dec])
    np.testing.assert_array_equal(a.grad, b.grad)


def test_zero_decomposition_makes_corrected_equal_reinforce():
    traj, policy, _ = random_setup(4, t_len=6)
    dec = decomposition(np.zeros(6), traj.episodic_return)
    a = estimators.grad_bias_corrected([traj], policy, [dec])
    b = estimators.grad_reinforce([traj], policy)
    np.testing.assert_array_equal(a.grad, b.grad)


def test_zero_decomposition_makes_control_variate_equal_reinforce():
    traj, policy, _ = random_setup(5, t_len=4)
    dec = decomposition(np.zeros(4), traj.episodic_return)
    a = estimators.grad_control_variate([traj], policy, [dec])
    b = estimators.grad_reinforce([traj], policy)
    np.testing.assert_array_equal(a.grad, b.grad)


def test_single_step_control_variate_coefficient_is_return():
    traj, policy, dec = random_setup(6, t_len=1)
    a = estimators.grad_control_variate([traj], policy, [dec])
    b = estimators.grad_reinforce([traj], policy)
    np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12)


def test_reinforce_zero_return_zero_gradient():
    rng = np.random.default_rng(7)
    policy = CategoricalPolicy(rng, 3, 2, hidden=(8,))
    batch = []
    for seed in range(4):
        r = np.random.default_rng(seed)
        batch.append(
            Trajectory(
                states=r.normal(size=(3, 3)),
                actions=r.integers(0, 2, size=3),
                episodic_return=0.0,
            )
        )
    est = estimators.grad_reinforce(batch, policy)
    np.testing.assert_array_equal(est.grad, np.zeros_like(est.grad))


# ---------------------------------------------------------------------------
# rearrangement identities (per sample)


def rel_gap(a, b):
    return np.abs(a - b).max() / (np.abs(a).max() + np.abs(b).max() + 1e-300)


@pytest.mark.parametrize("kind", ["singletons", "prefixes"])
def test_composite_forms_agree_per_sample(kind):
    for seed in range(30):
        traj, policy, dec = random_setup(100 + seed)
        a = estimators.grad_composite([traj], policy, [dec])
        b = grad_composite_by_interval([traj], policy, [dec])
        assert rel_gap(a.grad, b) <= 1e-12


def test_corrected_and_control_variate_agree_per_sample():
    for seed in range(30):
        traj, policy, dec = random_setup(200 + seed)
        a = estimators.grad_bias_corrected([traj], policy, [dec])
        b = estimators.grad_control_variate([traj], policy, [dec])
        assert rel_gap(a.grad, b.grad) <= 1e-12


def test_long_horizon_identities():
    for seed in range(5):
        traj, policy, dec = random_setup(300 + seed, t_len=32)
        a = estimators.grad_bias_corrected([traj], policy, [dec])
        b = estimators.grad_control_variate([traj], policy, [dec])
        assert rel_gap(a.grad, b.grad) <= 1e-12


# ---------------------------------------------------------------------------
# diagnostics


def test_variance_zero_for_identical_samples():
    traj, policy, dec = random_setup(8, t_len=3)
    est = estimators.grad_bias_corrected([traj, traj], policy, [dec, dec])
    assert est.variance == 0.0


def test_batch_mean_and_variance_definition():
    trajs, decs = [], []
    policy = None
    for seed in range(5):
        traj, pol, dec = random_setup(400 + seed, t_len=4)
        policy = policy or pol
        trajs.append(traj)
        decs.append(dec)
    est = estimators.grad_reinforce(trajs, policy)
    singles = np.stack([estimators.grad_reinforce([t], policy).grad for t in trajs])
    np.testing.assert_allclose(est.grad, singles.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(est.variance, singles.var(axis=0).mean(), rtol=1e-10)


@pytest.mark.parametrize("batch", [1, 2, 57])
def test_finish_is_bitwise_the_column_mean_and_numpy_variance(batch):
    rng = np.random.default_rng(batch)
    for scale in (1e-6, 1.0, 1e4):
        x = rng.normal(size=(batch, 301)) * scale + rng.normal(size=301)
        est = estimators._finish(x.copy())
        assert np.array_equal(est.grad, x.sum(axis=0) / batch)
        want = 0.0 if batch == 1 else float(x.var(axis=0).mean())
        assert type(est.variance) is float and est.variance == want


# ---------------------------------------------------------------------------
# the variance diagnostic without the (B, P) matrix


def policy_pass(policy, batch):
    """`policy.forward` of the batch's stacked steps and `log_prob_head`'s map."""
    a = policy.forward(np.concatenate([t.states for t in batch]))
    head_grads = policy.log_prob_head(a["head"], np.concatenate([t.actions for t in batch]))[2]
    return a, head_grads


def ragged_batch(rng, policy, n, max_len):
    batch, decomps = [], []
    for _ in range(n):
        t_len = int(rng.integers(1, max_len + 1))
        states = rng.normal(size=(t_len, policy.state_dim))
        if isinstance(policy, CategoricalPolicy):
            actions = rng.integers(0, policy.n_actions, size=t_len)
        else:
            actions = rng.normal(size=(t_len, policy.action_dim))
        ret = float(rng.normal())
        batch.append(Trajectory(states=states, actions=actions, episodic_return=ret))
        decomps.append(decomposition(rng.normal(size=t_len), ret))
    return batch, decomps


# (hidden, longest episode): every layer takes its per-segment sums; the
# hidden-to-hidden layer takes Gram blocks; every layer takes Gram blocks
SHAPES = [((8,), 8), ((32, 32), 8), ((64, 64), 3)]


@pytest.mark.parametrize("hidden,max_len", SHAPES)
@pytest.mark.parametrize("kind", ["categorical", "gaussian"])
@pytest.mark.parametrize("n", [1, 2, 57])
def test_gram_variance_matches_the_score_matrix_form(kind, n, hidden, max_len):
    rng = np.random.default_rng(100 + n)
    if kind == "categorical":
        policy = CategoricalPolicy(rng, 6, 4, hidden=hidden)
    else:
        policy = GaussianPolicy(rng, 6, 2, hidden=hidden)
    batch, decomps = ragged_batch(rng, policy, n, max_len)
    got = estimators.variance_bias_corrected(batch, policy, decomps, *policy_pass(policy, batch))
    want = estimators.grad_bias_corrected(batch, policy, decomps).variance
    if n == 1:
        assert got == 0.0 and want == 0.0
    else:
        assert want > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("hidden,max_len", SHAPES)
def test_gram_variance_of_identical_trajectories_is_not_negative(hidden, max_len):
    rng = np.random.default_rng(7)
    policy = GaussianPolicy(rng, 6, 2, hidden=hidden)
    batch, decomps = ragged_batch(rng, policy, 1, max_len)
    batch, decomps = batch * 9, decomps * 9
    got = estimators.variance_bias_corrected(batch, policy, decomps, *policy_pass(policy, batch))
    # exactly 0; roundoff is relative to the mean squared gradient entry
    scale = np.mean(estimators.grad_bias_corrected(batch[:1], policy, decomps[:1]).grad ** 2)
    assert 0.0 <= got <= 1e-12 * scale


def test_gram_variance_rejects_a_decomposition_of_the_wrong_length():
    rng = np.random.default_rng(8)
    policy = CategoricalPolicy(rng, 6, 4, hidden=(8,))
    batch, decomps = ragged_batch(rng, policy, 3, 5)
    decomps[1] = decomposition(np.zeros(batch[1].length + 1), 0.0)
    with pytest.raises(ValueError, match="entries for T="):
        estimators.variance_bias_corrected(batch, policy, decomps, *policy_pass(policy, batch))
