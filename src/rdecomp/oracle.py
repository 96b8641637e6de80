"""Exact-enumeration ground truth on small tabular MDPs.

Every trajectory of a small MDP is enumerated together with its exact
probability under the current policy, which turns the expectation operators
of the estimator module into finite sums. That is the engine used to check,
digit for digit, that

  (a) a surrogate reward on an interval is orthogonal to the scores of
      later steps,
  (b) the interval-major and step-major composite gradients agree,
  (c) the residual-corrected estimator equals the true policy gradient for
      any causal reward predictor whatsoever (its reward for interval i is
      a function of steps 0..i alone, however badly it fits), and
  (d) the complement term rnot_t is a zero-mean control variate.

Horizons are capped (default 6) and so is the trajectory count, because
the identities are dimension-independent: if they hold on a 3-state chain
they hold everywhere the algebra applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rdecomp import estimators
from rdecomp.trajectory import Trajectory

MAX_TRAJECTORIES = 10**6


@dataclass
class TabularMdp:
    """Finite MDP with enumerable trajectory space.

    `transition[s, a]` is the distribution over next states. Rewards come
    either from `step_rewards(s, a, s_next)` summed over the episode or
    from an `episodic_fn(states, actions)` that may be any function of the
    whole trajectory. `terminal` marks absorbing states that end episodes
    early.
    """

    n_states: int
    n_actions: int
    horizon: int
    transition: np.ndarray
    initial_dist: np.ndarray
    step_rewards: object = None
    episodic_fn: object = None
    terminal: frozenset = field(default_factory=frozenset)
    name: str = ""

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        if self.transition.shape != (self.n_states, self.n_actions, self.n_states):
            raise ValueError(f"transition tensor shape {self.transition.shape}")
        rowsums = self.transition.sum(axis=2)
        if np.abs(rowsums - 1.0).max() > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1 within 1e-12")
        if self.horizon < 1 or self.horizon > 6:
            raise ValueError("oracle MDPs are capped at horizon 6")
        if self.step_rewards is None and self.episodic_fn is None:
            raise ValueError("need step_rewards or episodic_fn")

    @property
    def state_dim(self):
        return self.n_states

    def state_vector(self, s):
        v = np.zeros(self.n_states)
        v[s] = 1.0
        return v

    def episodic_return(self, states, actions):
        if self.episodic_fn is not None:
            return float(self.episodic_fn(states, actions))
        total = 0.0
        for t in range(len(actions)):
            total += self.step_rewards(states[t], actions[t], states[t + 1])
        return total


def enumerate_trajectories(mdp, policy, max_count=MAX_TRAJECTORIES):
    """All realizable trajectories with their exact probabilities.

    Returns a list of (Trajectory, probability); probabilities sum to 1.
    Zero-probability branches (transitions or actions) are pruned: they
    contribute nothing to any expectation, and a zero-probability action
    has no finite score vector to evaluate.
    """
    results = []
    log_probs_cache = {}

    def action_probs(s):
        got = log_probs_cache.get(s)
        if got is None:
            got = np.exp(policy.log_prob_matrix_np(mdp.state_vector(s)[None, :])[0])
            log_probs_cache[s] = got
        return got

    def walk(s, t, states, actions, prob):
        if len(results) > max_count:
            raise RuntimeError(
                f"trajectory space exceeds cap ({max_count}); shrink the MDP"
            )
        if t == mdp.horizon or s in mdp.terminal:
            ret = mdp.episodic_return(states, actions)
            traj = Trajectory(
                states=np.array([mdp.state_vector(si) for si in states[:-1]]),
                actions=np.array(actions, dtype=np.int64),
                episodic_return=ret,
            )
            results.append((traj, prob))
            return
        pi = action_probs(s)
        for a in range(mdp.n_actions):
            if pi[a] == 0.0:
                continue
            for s_next in range(mdp.n_states):
                p_step = mdp.transition[s, a, s_next]
                if p_step == 0.0:
                    continue
                walk(
                    s_next,
                    t + 1,
                    states + [s_next],
                    actions + [a],
                    prob * pi[a] * p_step,
                )

    for s0 in range(mdp.n_states):
        if mdp.initial_dist[s0] > 0.0:
            walk(s0, 0, [s0], [], float(mdp.initial_dist[s0]))
    return results


def sample_trajectory(mdp, policy, rng):
    s = int(rng.choice(mdp.n_states, p=mdp.initial_dist))
    states, actions = [s], []
    for _ in range(mdp.horizon):
        if s in mdp.terminal:
            break
        a = policy.act(mdp.state_vector(s), rng)
        s_next = int(rng.choice(mdp.n_states, p=mdp.transition[s, a]))
        actions.append(a)
        states.append(s_next)
        s = s_next
    return Trajectory(
        states=np.array([mdp.state_vector(si) for si in states[:-1]]),
        actions=np.array(actions, dtype=np.int64),
        episodic_return=mdp.episodic_return(states, actions),
    )


def exact_j(mdp, policy):
    """Exact expected episodic return under the policy."""
    return sum(p * traj.episodic_return for traj, p in enumerate_trajectories(mdp, policy))


def exact_grad_j(mdp, policy):
    """Exact policy gradient: sum over trajectories of p * R * summed scores."""
    total = None
    for traj, p in enumerate_trajectories(mdp, policy):
        g = policy.weighted_score_gradient(
            traj, np.full(traj.length, traj.episodic_return)
        )
        total = p * g if total is None else total + p * g
    return total


class OracleContext:
    """Enumeration, score block and exact gradient of one (MDP, policy), computed once.

    `scores` is the (K, T, P) block of the K enumerated trajectories:
    `scores[k, t]` is grad log pi(a_t|s_t) of trajectory k, flattened over
    the P policy parameters, and zero for t at or past its length (T is the
    longest length). `probabilities` holds the K exact probabilities and
    `exact_grad` the exact policy gradient.
    """

    def __init__(self, mdp, policy):
        self.mdp = mdp
        self.policy = policy
        pairs = enumerate_trajectories(mdp, policy)
        self.trajectories = [traj for traj, _ in pairs]
        self.probabilities = np.array([p for _, p in pairs])
        prob_sum = self.probabilities.sum()
        if abs(prob_sum - 1.0) > 1e-10:
            raise RuntimeError(f"enumerated probabilities sum to {prob_sum}")
        rows = [policy.score_matrix(traj) for traj in self.trajectories]
        max_len = max(len(r) for r in rows)
        self.scores = np.zeros((len(rows), max_len, rows[0].shape[1]))
        for k, r in enumerate(rows):
            self.scores[k, : len(r)] = r
        self.exact_grad = exact_grad_j(mdp, policy)


def _worst(errors):
    """Largest error and the index of its first occurrence in C order; the
    index is None when every error is zero."""
    flat = int(np.argmax(errors))
    worst = float(errors.flat[flat])
    if not worst > 0.0:
        return worst, None
    return worst, tuple(int(i) for i in np.unravel_index(flat, errors.shape))


def verify_identities(ctx, predictor_fn, tol=1e-8):
    """Run the four gradient identities against exact enumeration.

    predictor_fn maps a Trajectory to a RewardDecomposition; it can be an
    actual reward model or any fixed causal function, including adversarial
    ones. A predictor whose interval-i reward reads later steps breaks (a),
    (c) and (d).

    The decompositions are stacked into (K, T) arrays zero-padded like
    `ctx.scores` (interval rewards, generalized Q and its complement), so
    each check is one probability-weighted contraction over the score block
    and padded steps contribute nothing.
    Returns a report dict; report["pass"] is the conjunction of all checks.
    """
    decomps = [predictor_fn(traj) for traj in ctx.trajectories]
    scores = ctx.scores
    rewards, q, rnot = (np.zeros(scores.shape[:2]) for _ in range(3))
    for k, (traj, dec) in enumerate(zip(ctx.trajectories, decomps)):
        n = traj.length
        q[k, :n] = estimators.generalized_q(dec, n)
        rnot[k, :n] = estimators.r_not_t(dec, n)
        rewards[k, :n] = dec.per_interval
    residual = np.array([d.residual for d in decomps])[:, None]
    w = ctx.probabilities[:, None]

    # (a) interval rewards are orthogonal to strictly later scores: entry
    # [t, i] of the (T, T) error block, kept for i < t only
    cross = np.einsum("ki,ktp->tip", w * rewards, scores)
    worst_a, arg_a = _worst(np.tril(np.abs(cross).max(axis=2), -1))
    worst_pair = None if arg_a is None else (arg_a[1], arg_a[0])

    # (b) interval-major and step-major composite gradients agree; the
    # interval-major side weights interval i by the scores of steps 0..i
    step_major = np.einsum("kt,ktp->p", w * q, scores)
    interval_major = np.einsum("ki,kip->p", w * rewards, np.cumsum(scores, axis=1))
    err_b = float(np.abs(step_major - interval_major).max())

    # (c) residual-corrected estimator is exactly the true gradient
    corrected = np.einsum("kt,ktp->p", w * (residual + q), scores)
    err_c = float(np.abs(corrected - ctx.exact_grad).max())

    # (d) the complement term is a zero-mean control variate at every step
    complement = np.einsum("kt,ktp->tp", w * rnot, scores)
    worst_d, arg_d = _worst(np.abs(complement).max(axis=1))
    worst_step = None if arg_d is None else arg_d[0]

    checks = {
        "interval_score_orthogonality": {
            "max_abs_error": worst_a,
            "worst_pair": worst_pair,
            "pass": worst_a <= tol,
        },
        "composite_forms_match": {"max_abs_error": err_b, "pass": err_b <= tol},
        "corrected_matches_true_gradient": {"max_abs_error": err_c, "pass": err_c <= tol},
        "complement_zero_mean": {
            "max_abs_error": worst_d,
            "worst_step": worst_step,
            "pass": worst_d <= tol,
        },
    }
    return {
        "mdp": ctx.mdp.name,
        "tolerance": tol,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


# ---------------------------------------------------------------------------
# builtin MDPs for the verify command


def chain3_mdp():
    """Deterministic 3-state walk; +1 on reaching the right end (terminal)."""
    n = 3
    transition = np.zeros((n, 2, n))
    for s in range(n):
        transition[s, 0, max(s - 1, 0)] = 1.0
        transition[s, 1, min(s + 1, n - 1)] = 1.0
    initial = np.zeros(n)
    initial[0] = 1.0
    return TabularMdp(
        n_states=n,
        n_actions=2,
        horizon=4,
        transition=transition,
        initial_dist=initial,
        step_rewards=lambda s, a, s2: 1.0 if (s2 == n - 1 and s != n - 1) else 0.0,
        terminal=frozenset({n - 1}),
        name="chain3",
    )


def windy2_mdp():
    """Two states, noisy transitions, dense per-step rewards."""
    transition = np.array(
        [
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.6, 0.4], [0.1, 0.9]],
        ]
    )
    rewards = np.array([[0.25, -0.5], [1.0, 0.75]])
    return TabularMdp(
        n_states=2,
        n_actions=2,
        horizon=3,
        transition=transition,
        initial_dist=np.array([0.5, 0.5]),
        step_rewards=lambda s, a, s2: float(rewards[s, a]),
        name="windy2",
    )


def bandit4_mdp():
    """Single state, purely episodic reward: a nonlinear function of the
    whole action sequence, so no per-step decomposition exists."""
    transition = np.ones((1, 2, 1))
    return TabularMdp(
        n_states=1,
        n_actions=2,
        horizon=4,
        transition=transition,
        initial_dist=np.array([1.0]),
        episodic_fn=lambda states, actions: (
            2.0 if sum(actions) == 3 else 0.25 * sum(actions)
        ),
        name="bandit4",
    )


BUILTIN_MDPS = {
    "chain3": chain3_mdp,
    "windy2": windy2_mdp,
    "bandit4": bandit4_mdp,
}
