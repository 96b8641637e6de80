"""Policy-gradient estimators built on interval reward decompositions.

With intervals ordered by their end step (interval i ends at step i), the
generalized Q-value at step t collects every interval ending at or after t,
and its complement collects the rest. The four estimators below differ only
in the per-step coefficient applied to the score vectors grad log pi:

  reinforce            R(tau)                 (no decomposition)
  composite            q_t                    (biased unless R_hat == R)
  corrected            r_0(tau) + q_t         (unbiased for any predictor)
  control variate      R(tau) - rnot_t        (same estimator, rearranged)

The corrected and control-variate forms are per-sample identical up to
float reassociation; so are the two composite forms (interval-major versus
step-major summation). All batch reductions use fixed ascending order so
those identities hold at tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradientEstimate:
    """Flat policy-parameter gradient plus batch diagnostics."""

    grad: np.ndarray
    variance: float
    residual_abs_mean: float


def generalized_q(decomp, t_len):
    """q[t] = sum of per-interval rewards over intervals ending at >= t."""
    values = decomp.per_interval
    if len(values) != t_len:
        raise ValueError(f"decomposition has {len(values)} entries for T={t_len}")
    q = np.empty(t_len)
    acc = 0.0
    for t in range(t_len - 1, -1, -1):
        acc += values[t]
        q[t] = acc
    return q


def r_not_t(decomp, t_len):
    """Complement of generalized_q: intervals ending before t.

    rnot[0] is exactly 0 (every interval ends at or after step 0). The
    partition identity rnot[t] + q[t] == composite holds to roundoff; the
    two sides fold the same values in different association orders.
    """
    values = decomp.per_interval
    if len(values) != t_len:
        raise ValueError(f"decomposition has {len(values)} entries for T={t_len}")
    rnot = np.empty(t_len)
    acc = 0.0
    for t in range(t_len):
        rnot[t] = acc
        acc += values[t]
    return rnot


def _finish(per_sample, residuals):
    n = len(per_sample)
    stacked = np.stack(per_sample, axis=0)
    grad = stacked.sum(axis=0) / n
    variance = float(stacked.var(axis=0).mean()) if n > 1 else 0.0
    res = float(np.mean(np.abs(residuals))) if residuals is not None else 0.0
    return GradientEstimate(grad, variance, res)


def grad_reinforce(batch, policy):
    """Episodic likelihood-ratio estimator: R(tau) times the summed scores."""
    per_sample = []
    for traj in batch:
        coeffs = np.full(traj.length, traj.episodic_return)
        per_sample.append(policy.weighted_score_gradient(traj, coeffs))
    return _finish(per_sample, None)


def grad_composite(batch, policy, decomps):
    """Step-major form: per-step coefficient is the generalized Q-value."""
    per_sample = []
    for traj, dec in zip(batch, decomps):
        q = generalized_q(dec, traj.length)
        per_sample.append(policy.weighted_score_gradient(traj, q))
    return _finish(per_sample, [d.residual for d in decomps])


def grad_composite_by_interval(batch, policy, decomps):
    """Interval-major form of the composite gradient.

    Sums r_hat_i times the scores of steps 0..i, interval by interval; a
    pure rearrangement of grad_composite kept as an independent
    implementation for identity checks.
    """
    per_sample = []
    for traj, dec in zip(batch, decomps):
        scores = policy.score_matrix(traj)
        g = np.zeros(scores.shape[1])
        for i, value in enumerate(dec.per_interval):
            g += value * scores[: i + 1].sum(axis=0)
        per_sample.append(g)
    return _finish(per_sample, [d.residual for d in decomps])


def grad_bias_corrected(batch, policy, decomps):
    """Composite gradient plus the residual term; unbiased for any predictor."""
    per_sample = []
    for traj, dec in zip(batch, decomps):
        coeffs = dec.residual + generalized_q(dec, traj.length)
        per_sample.append(policy.weighted_score_gradient(traj, coeffs))
    return _finish(per_sample, [d.residual for d in decomps])


def grad_control_variate(batch, policy, decomps):
    """Baseline form: coefficient R(tau) - rnot_t; equals the corrected form."""
    per_sample = []
    for traj, dec in zip(batch, decomps):
        coeffs = traj.episodic_return - r_not_t(dec, traj.length)
        per_sample.append(policy.weighted_score_gradient(traj, coeffs))
    return _finish(per_sample, [d.residual for d in decomps])
