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
float reassociation; so is the composite form and its interval-major
rearrangement, which the tests keep. All batch reductions use fixed
ascending order so those identities hold at tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradientEstimate:
    """Flat policy-parameter gradient plus batch diagnostics."""

    grad: np.ndarray
    variance: float


def interval_rewards(decomp, t_len):
    """The decomposition's per-interval rewards as float64, checked to be
    one per step of a trajectory of length t_len."""
    values = np.asarray(decomp.per_interval, dtype=np.float64)
    if len(values) != t_len:
        raise ValueError(f"decomposition has {len(values)} entries for T={t_len}")
    return values


def generalized_q(decomp, t_len):
    """q[t] = sum of per-interval rewards over intervals ending at >= t."""
    return generalized_q_rows(interval_rewards(decomp, t_len)[None])[0]


def r_not_t(decomp, t_len):
    """Complement of generalized_q: intervals ending before t.

    rnot[0] is exactly 0 (every interval ends at or after step 0). The
    partition identity rnot[t] + q[t] == composite holds to roundoff; the
    two sides fold the same values in different association orders.
    """
    return r_not_t_rows(interval_rewards(decomp, t_len)[None], np.array([t_len]))[0]


def generalized_q_rows(rewards):
    """generalized_q of each row of a (K, T) block of per-interval rewards,
    zero-padded past each trajectory's end, where q is 0.

    cumsum adds one term at a time, so q[k, t] folds rewards[k, T-1], ...,
    rewards[k, t] in that order; the padding comes first and adds nothing.
    """
    return np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]


def r_not_t_rows(rewards, lengths):
    """r_not_t of each row of a zero-padded (K, T) block of per-interval
    rewards with the given lengths; 0 past each trajectory's end."""
    rnot = np.zeros_like(rewards)
    rnot[:, 1:] = np.cumsum(rewards[:, :-1], axis=1)
    rnot[np.arange(rewards.shape[1]) >= lengths[:, None]] = 0.0
    return rnot


def _finish(per_sample):
    """Batch mean and variance of the (B, P) per-trajectory gradients.

    Overwrites per_sample, which every caller builds fresh for it: the
    variance squares the deviations in place, with the float ops of
    `per_sample.var(axis=0).mean()` in its order, so it needs no (B, P)
    temporary. A batch of one has variance 0.0."""
    n = len(per_sample)
    grad = per_sample.sum(axis=0) / n
    if n == 1:
        return GradientEstimate(grad, 0.0)
    np.subtract(per_sample, grad, out=per_sample)
    np.multiply(per_sample, per_sample, out=per_sample)
    return GradientEstimate(grad, float((per_sample.sum(axis=0) / n).mean()))


def grad_reinforce(batch, policy):
    """Episodic likelihood-ratio estimator: R(tau) times the summed scores."""
    coeffs = [np.full(traj.length, traj.episodic_return) for traj in batch]
    return _finish(policy.weighted_score_gradient(batch, coeffs))


def grad_composite(batch, policy, decomps):
    """Step-major form: per-step coefficient is the generalized Q-value."""
    coeffs = [generalized_q(dec, traj.length) for traj, dec in zip(batch, decomps)]
    return _finish(policy.weighted_score_gradient(batch, coeffs))


def grad_bias_corrected(batch, policy, decomps):
    """Composite gradient plus the residual term; unbiased for any predictor."""
    coeffs = [dec.residual + generalized_q(dec, traj.length) for traj, dec in zip(batch, decomps)]
    return _finish(policy.weighted_score_gradient(batch, coeffs))


def grad_control_variate(batch, policy, decomps):
    """Baseline form: coefficient R(tau) - rnot_t; equals the corrected form."""
    coeffs = [traj.episodic_return - r_not_t(dec, traj.length)
              for traj, dec in zip(batch, decomps)]
    return _finish(policy.weighted_score_gradient(batch, coeffs))
