"""The four policy-gradient estimators over interval reward decompositions,
as flat gradients from the (B, P) matrix of per-trajectory score sums.

They differ only in the per-step coefficient applied to the score vectors
grad log pi:

  reinforce            R(tau)                 (no decomposition)
  composite            q_t                    (biased unless R_hat == R)
  corrected            r_0(tau) + q_t         (unbiased for any predictor)
  control variate      R(tau) - rnot_t        (same estimator, rearranged)

The corrected and control-variate forms are per-sample identical up to
float reassociation. The package computes only the corrected form's
variance, without the matrix (`estimators.variance_bias_corrected`); these
are the references it and the oracle's identities are checked against.
"""

from dataclasses import dataclass

import numpy as np

from rdecomp import estimators


@dataclass
class GradientEstimate:
    """Flat policy-parameter gradient plus batch diagnostics."""

    grad: np.ndarray
    variance: float


def generalized_q(decomp, t_len):
    """q[t] = sum of per-interval rewards over intervals ending at >= t."""
    return estimators.generalized_q_rows(estimators.interval_rewards(decomp, t_len)[None])[0]


def r_not_t(decomp, t_len):
    """Complement of generalized_q: intervals ending before t.

    rnot[0] is exactly 0 (every interval ends at or after step 0). The
    partition identity rnot[t] + q[t] == composite holds to roundoff; the
    two sides fold the same values in different association orders.
    """
    return estimators.r_not_t_rows(estimators.interval_rewards(decomp, t_len)[None],
                                   np.array([t_len]))[0]


def finish(per_sample):
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
    return finish(policy.weighted_score_gradient(batch, coeffs))


def grad_composite(batch, policy, decomps):
    """Step-major form: per-step coefficient is the generalized Q-value."""
    coeffs = [generalized_q(dec, traj.length) for traj, dec in zip(batch, decomps)]
    return finish(policy.weighted_score_gradient(batch, coeffs))


def grad_bias_corrected(batch, policy, decomps):
    """Composite gradient plus the residual term; unbiased for any predictor."""
    coeffs, lengths = estimators._corrected_coeffs(batch, decomps)
    per_trajectory = np.split(coeffs, np.cumsum(lengths)[:-1])
    return finish(policy.weighted_score_gradient(batch, per_trajectory))


def grad_control_variate(batch, policy, decomps):
    """Baseline form: coefficient R(tau) - rnot_t; equals the corrected form."""
    coeffs = [traj.episodic_return - r_not_t(dec, traj.length)
              for traj, dec in zip(batch, decomps)]
    return finish(policy.weighted_score_gradient(batch, coeffs))
