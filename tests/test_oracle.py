import numpy as np
import pytest

from fdcheck import numeric_gradient
from rdecomp import decomposer, nn, oracle
from rdecomp.decomposer import IntervalSet, RewardDecomposition
from rdecomp.policies import CategoricalPolicy


def uniform_policy(mdp, seed=0):
    """Categorical policy with zeroed head: uniform over actions everywhere."""
    policy = CategoricalPolicy(np.random.default_rng(seed), mdp.state_dim, mdp.n_actions, hidden=(8,))
    policy.params["head_w"] = type(policy.params["head_w"])(
        np.zeros(policy.params["head_w"].shape)
    )
    policy.params["head_b"] = type(policy.params["head_b"])(
        np.zeros(policy.params["head_b"].shape)
    )
    return policy


class StubDeterministicPolicy:
    """Always takes action 0, with probability exactly 1."""

    def log_prob_matrix_np(self, states):
        out = np.full((len(np.atleast_2d(states)), 2), -np.inf)
        out[:, 0] = 0.0
        return out


# ---------------------------------------------------------------------------
# enumeration


def test_deterministic_pair_yields_single_trajectory():
    mdp = oracle.chain3_mdp()
    pairs = oracle.enumerate_trajectories(mdp, StubDeterministicPolicy())
    assert len(pairs) == 1
    traj, prob = pairs[0]
    assert prob == 1.0
    assert traj.length == mdp.horizon  # always-left never terminates early


def test_uniform_enumeration_normalizes():
    mdp = oracle.windy2_mdp()
    pairs = oracle.enumerate_trajectories(mdp, uniform_policy(mdp))
    probs = np.array([p for _, p in pairs])
    assert abs(probs.sum() - 1.0) < 1e-12
    # two initial states, then full (action x next-state) branching per step
    assert len(pairs) == 2 * (2 * 2) ** 3


def test_chain_expected_return_matches_value_iteration():
    mdp = oracle.chain3_mdp()
    policy = uniform_policy(mdp)
    got = oracle.exact_j(mdp, policy)

    # independent dynamic program over (state, steps left)
    pi = np.full(2, 0.5)
    value = np.zeros(mdp.n_states)
    for _ in range(mdp.horizon):
        new = np.zeros(mdp.n_states)
        for s in range(mdp.n_states):
            if s in mdp.terminal:
                continue
            for a in range(mdp.n_actions):
                for s2 in range(mdp.n_states):
                    p = mdp.transition[s, a, s2]
                    if p:
                        r = mdp.step_rewards(s, a, s2)
                        new[s] += pi[a] * p * (r + value[s2])
        value = new
    want = float(value @ mdp.initial_dist)
    assert got == pytest.approx(want, abs=1e-12)


def test_enumeration_cap_rejected_with_count():
    mdp = oracle.chain3_mdp()
    with pytest.raises(RuntimeError, match="cap \\(3\\)"):
        oracle.enumerate_trajectories(mdp, uniform_policy(mdp), max_count=3)


def test_mdp_validation():
    bad = np.ones((2, 2, 2))  # rows sum to 2
    with pytest.raises(ValueError, match="sum to 1"):
        oracle.TabularMdp(2, 2, 3, bad, np.array([1.0, 0.0]), step_rewards=lambda *a: 0.0)
    good = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValueError, match="initial"):
        oracle.TabularMdp(2, 2, 3, good, np.array([0.7, 0.6]), step_rewards=lambda *a: 0.0)
    with pytest.raises(ValueError, match="horizon"):
        oracle.TabularMdp(2, 2, 9, good, np.array([1.0, 0.0]), step_rewards=lambda *a: 0.0)
    with pytest.raises(ValueError, match="step_rewards or episodic_fn"):
        oracle.TabularMdp(2, 2, 3, good, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# exact gradient


def test_constant_reward_has_zero_gradient():
    mdp = oracle.TabularMdp(
        n_states=2,
        n_actions=2,
        horizon=3,
        transition=np.full((2, 2, 2), 0.5),
        initial_dist=np.array([1.0, 0.0]),
        episodic_fn=lambda states, actions: 4.2,
        name="const",
    )
    grad = oracle.exact_grad_j(mdp, uniform_policy(mdp, seed=3))
    assert np.abs(grad).max() < 1e-12


def test_bandit_gradient_antisymmetric_under_action_relabeling():
    mdp = oracle.TabularMdp(
        n_states=1,
        n_actions=2,
        horizon=1,
        transition=np.ones((1, 2, 1)),
        initial_dist=np.array([1.0]),
        step_rewards=lambda s, a, s2: float(a),
        name="bandit1",
    )
    policy = uniform_policy(mdp)
    grad = oracle.exact_grad_j(mdp, policy)
    # locate the head-bias block in the sorted flat layout
    names = sorted(policy.params)
    offset = 0
    blocks = {}
    for k in names:
        size = policy.params[k].size
        blocks[k] = (offset, offset + size)
        offset += size
    b0, b1 = grad[blocks["head_b"][0] : blocks["head_b"][1]]
    assert b0 == pytest.approx(-0.25, abs=1e-12)
    assert b1 == pytest.approx(0.25, abs=1e-12)
    w = grad[blocks["head_w"][0] : blocks["head_w"][1]].reshape(
        policy.params["head_w"].shape
    )
    np.testing.assert_allclose(w[:, 0], -w[:, 1], atol=1e-12)


def test_exact_gradient_matches_finite_differences_of_exact_j():
    mdp = oracle.windy2_mdp()
    policy = CategoricalPolicy(np.random.default_rng(5), mdp.state_dim, mdp.n_actions, hidden=(6,))
    grad = oracle.exact_grad_j(mdp, policy)

    base = nn.flatten_params(policy.params)

    def j_of(flat):
        policy.params = nn.assign_flat(policy.params, flat)
        return oracle.exact_j(mdp, policy)

    fd = np.zeros_like(base)
    h = 1e-6
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (j_of(up) - j_of(down)) / (2 * h)
    policy.params = nn.assign_flat(policy.params, base)
    rel = np.abs(grad - fd).max() / (np.abs(fd).max() + 1e-12)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# identity verification


def zero_predictor(traj):
    return RewardDecomposition.from_values(np.zeros(traj.length), traj.episodic_return)


def test_zero_predictor_trivially_passes():
    mdp = oracle.chain3_mdp()
    ctx = oracle.OracleContext(mdp, CategoricalPolicy(np.random.default_rng(6), 3, 2, hidden=(8,)))
    report = oracle.verify_identities(ctx, zero_predictor)
    assert report["pass"]
    assert report["checks"]["interval_score_orthogonality"]["max_abs_error"] == 0.0
    assert report["checks"]["complement_zero_mean"]["max_abs_error"] == 0.0


def test_true_stepwise_rewards_reduce_to_classic_policy_gradient():
    mdp = oracle.windy2_mdp()
    policy = CategoricalPolicy(np.random.default_rng(7), 2, 2, hidden=(8,))
    ctx = oracle.OracleContext(mdp, policy)

    def true_rewards(traj):
        # recover per-step dense rewards from the one-hot states and actions
        states = [int(s.argmax()) for s in traj.states]
        values = []
        for t in range(traj.length):
            s2 = None  # windy2 rewards depend on (s, a) only
            values.append(mdp.step_rewards(states[t], int(traj.actions[t]), s2))
        return RewardDecomposition.from_values(np.array(values), traj.episodic_return)

    report = oracle.verify_identities(ctx, true_rewards)
    assert report["pass"]
    # residuals vanish, so the composite form alone equals the true gradient
    from rdecomp import estimators

    composite = sum(
        p * estimators.generalized_q(true_rewards(traj), traj.length) @ scores[: traj.length]
        for traj, p, scores in zip(ctx.trajectories, ctx.probabilities, ctx.scores)
    )
    exact = oracle.exact_grad_j(mdp, policy)
    np.testing.assert_allclose(composite, exact, atol=1e-10)


@pytest.mark.parametrize("mdp_name", sorted(oracle.BUILTIN_MDPS))
def test_random_decomposers_pass_identities(mdp_name):
    mdp = oracle.BUILTIN_MDPS[mdp_name]()
    policy = CategoricalPolicy(np.random.default_rng(8), mdp.state_dim, mdp.n_actions, hidden=(8,))
    ctx = oracle.OracleContext(mdp, policy)
    for seed in range(3):
        model = decomposer.make_predictor(
            "attention", mdp.n_states + mdp.n_actions, np.random.default_rng(50 + seed)
        )
        iset = IntervalSet("prefixes")
        fn = lambda traj: decomposer.predict(model, traj, iset, n_actions=mdp.n_actions)
        report = oracle.verify_identities(ctx, fn)
        assert report["pass"], report


def test_destandardized_predictions_pass_identities():
    """A nonzero-mean normalizer must keep predict causal: chain3 episodes
    end at the goal after 2-4 steps, so a mean spread over the episode
    length would leak when the episode ends into every interval."""
    mdp = oracle.chain3_mdp()
    policy = CategoricalPolicy(np.random.default_rng(8), mdp.state_dim, mdp.n_actions, hidden=(8,))
    ctx = oracle.OracleContext(mdp, policy)
    assert len({traj.length for traj in ctx.trajectories}) > 1
    model = decomposer.make_predictor("attention", 5, np.random.default_rng(50))
    iset = IntervalSet("prefixes")
    norm = decomposer.ReturnNormalizer()
    norm.update([0.4, 1.0, 0.7])
    assert norm.mean == pytest.approx(0.7)
    fn = lambda traj: decomposer.predict(model, traj, iset, norm, n_actions=2)
    report = oracle.verify_identities(ctx, fn, tol=1e-8)
    assert report["pass"], report


def return_leaking_predictor(traj):
    """Non-causal: interval 0 is the episodic return, which depends on
    every later step."""
    values = np.zeros(traj.length)
    values[0] = traj.episodic_return
    return RewardDecomposition.from_values(values, traj.episodic_return)


def test_non_causal_predictor_is_caught():
    mdp = oracle.chain3_mdp()
    ctx = oracle.OracleContext(mdp, CategoricalPolicy(np.random.default_rng(0), 3, 2, hidden=(8,)))
    assert len({traj.length for traj in ctx.trajectories}) > 1  # padding is exercised
    report = oracle.verify_identities(ctx, return_leaking_predictor)
    checks = report["checks"]
    assert not report["pass"]
    assert not checks["interval_score_orthogonality"]["pass"]
    assert not checks["corrected_matches_true_gradient"]["pass"]
    assert not checks["complement_zero_mean"]["pass"]
    # both composite forms are rearrangements of one sum, causal or not
    assert checks["composite_forms_match"]["pass"]
    assert checks["interval_score_orthogonality"]["worst_pair"] == (0, 2)
    assert checks["complement_zero_mean"]["worst_step"] == 2


def test_corrupted_q_breaks_composite_check(monkeypatch):
    """Mutation test: an off-by-one in the ends-at->=t rule must be caught."""
    mdp = oracle.chain3_mdp()
    policy = CategoricalPolicy(np.random.default_rng(9), 3, 2, hidden=(8,))
    ctx = oracle.OracleContext(mdp, policy)
    model = decomposer.make_predictor("attention", 5, np.random.default_rng(10))
    iset = IntervalSet("prefixes")
    fn = lambda traj: decomposer.predict(model, traj, iset, n_actions=2)

    true_q = oracle.estimators.generalized_q

    def off_by_one(dec, t_len):
        q = true_q(dec, t_len)
        return np.roll(q, 1)

    monkeypatch.setattr(oracle.estimators, "generalized_q", off_by_one)
    report = oracle.verify_identities(ctx, fn)
    assert not report["checks"]["composite_forms_match"]["pass"]


def test_monte_carlo_consistency():
    """Sample mean over 1e5 iid trajectories lands within 3 SE of the oracle.

    Sampling draws trajectory counts from the exact enumeration distribution
    (a multinomial), which is identical in law to 1e5 independent rollouts.
    """
    mdp = oracle.chain3_mdp()
    policy = CategoricalPolicy(np.random.default_rng(11), 3, 2, hidden=(8,))
    ctx = oracle.OracleContext(mdp, policy)
    n = 10**5
    per_sample = np.stack(
        [
            np.full(traj.length, traj.episodic_return) @ scores[: traj.length]
            for traj, scores in zip(ctx.trajectories, ctx.scores)
        ]
    )
    exact = oracle.exact_grad_j(mdp, policy)
    rng = np.random.default_rng(12)
    counts = rng.multinomial(n, ctx.probabilities)
    mc_mean = (counts @ per_sample) / n
    second_moment = ctx.probabilities @ (per_sample**2)
    variance = second_moment - exact**2
    se = np.sqrt(np.maximum(variance, 0.0) / n)
    assert np.all(np.abs(mc_mean - exact) <= 3 * se + 1e-12)


def test_sample_trajectory_statistics():
    mdp = oracle.windy2_mdp()
    policy = uniform_policy(mdp, seed=13)
    rng = np.random.default_rng(14)
    n = 4000
    returns = np.array(
        [oracle.sample_trajectory(mdp, policy, rng).episodic_return for _ in range(n)]
    )
    want = oracle.exact_j(mdp, policy)
    se = returns.std() / np.sqrt(n)
    assert abs(returns.mean() - want) < 3 * se + 1e-9
