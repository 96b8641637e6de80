"""Tape reference for the policies' closed-form score sums.

One tape and one backward pass per trajectory for the weighted sums, and
one per step for the score matrix, built from `log_prob_tensor` and
`autodiff.backward` alone, so the closed form can be checked against it.
"""

import numpy as np

from rdecomp import autodiff as ad
from rdecomp import nn


def weighted_score_gradient(policy, trajs, coeffs):
    """(B, P): row b is the gradient of sum_t coeffs[b][t] log pi(a_t|s_t)."""
    rows = []
    for traj, c in zip(trajs, coeffs, strict=True):
        logp, _ = policy.log_prob_tensor(ad.constant(traj.states), traj.actions)
        weighted = ad.sum_all(ad.mul(logp, ad.constant(np.asarray(c).reshape(-1, 1))))
        rows.append(nn.flatten_grads(policy.params, ad.backward(weighted)))
    return np.stack(rows)


def score_matrix(policy, traj):
    """Row t is grad log pi(a_t|s_t), one backward pass per step."""
    rows = []
    for t in range(traj.length):
        logp, _ = policy.log_prob_tensor(
            ad.constant(traj.states[t : t + 1]), traj.actions[t : t + 1]
        )
        rows.append(nn.flatten_grads(policy.params, ad.backward(ad.sum_all(logp))))
    return np.stack(rows)
