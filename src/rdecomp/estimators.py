"""Per-step coefficients of the policy gradient from interval reward
decompositions, and the variance diagnostic built on them.

With intervals ordered by their end step (interval i ends at step i), the
generalized Q-value q_t at step t collects every interval ending at or
after t, and its complement r_not_t the rest. The bias-corrected
estimator weights the score vectors grad log pi at step t by
r_0(tau) + q_t, which is unbiased for any predictor; the estimators it is
compared with (REINFORCE, the composite and control-variate forms) are in
tests/reference_estimators.py. All batch reductions use fixed ascending
order so the identities between the forms hold at tight tolerances.
"""

from __future__ import annotations

import numpy as np

from rdecomp import _kernels, policies


def interval_rewards(decomp, t_len):
    """The decomposition's per-interval rewards as float64, checked to be
    one per step of a trajectory of length t_len."""
    values = np.asarray(decomp.per_interval, dtype=np.float64)
    if len(values) != t_len:
        raise ValueError(f"decomposition has {len(values)} entries for T={t_len}")
    return values


def generalized_q_rows(rewards):
    """q of each row of a (K, T) block of per-interval rewards, zero-padded
    past each trajectory's end, where q is 0: q[k, t] sums the rewards of
    the intervals ending at or after t.

    cumsum adds one term at a time, so q[k, t] folds rewards[k, T-1], ...,
    rewards[k, t] in that order; the padding comes first and adds nothing.
    """
    return np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]


def r_not_t_rows(rewards, lengths):
    """The complement of q of each row of a zero-padded (K, T) block of
    per-interval rewards with the given lengths: rnot[k, t] sums the rewards
    of the intervals ending before t, so rnot[k, 0] is exactly 0; 0 past
    each trajectory's end."""
    rnot = np.zeros_like(rewards)
    rnot[:, 1:] = np.cumsum(rewards[:, :-1], axis=1)
    rnot[np.arange(rewards.shape[1]) >= lengths[:, None]] = 0.0
    return rnot


def _corrected_coeffs(batch, decomps):
    """The corrected coefficients r_0(tau) + q_t over the batch's stacked
    steps, and the trajectories' lengths. Each q row is that of its
    trajectory alone: the zero padding comes first in the scan."""
    lengths = np.array([traj.length for traj in batch])
    if [len(dec.per_interval) for dec in decomps] != lengths.tolist():
        for traj, dec in zip(batch, decomps):
            interval_rewards(dec, traj.length)  # raises at the first mismatch
    at = _kernels.segment_index(lengths)
    rewards = _kernels.pad_segments(
        np.concatenate([dec.per_interval for dec in decomps]), lengths, at
    )
    residuals = np.array([dec.residual for dec in decomps])
    return residuals.repeat(lengths) + generalized_q_rows(rewards)[at], lengths


def variance_bias_corrected(batch, policy, decomps, a, head_grads):
    """The batch variance of the bias-corrected estimator's per-trajectory
    gradients (the mean over parameters of their column variances), without
    the (B, P) matrix (`policies.score_sum_variance`), from the caller's
    `policy.forward` of the batch's stacked steps (`a`) and the map
    `log_prob_head` returned for them. It agrees with the matrix form to
    roundoff, and reads 0.0 where roundoff would make it negative."""
    coeffs, lengths = _corrected_coeffs(batch, decomps)
    return policies.score_sum_variance(policy, a, head_grads, coeffs, lengths)
