"""Tape reference for the policies' and the value net's closed forms.

The tanh layers are the matmul -> add -> tanh chain of tape primitives,
each head the tape ops its closed form mirrors. The score sums take one tape
and one backward pass per trajectory, and the score matrix one per step;
the PPO and value losses are one tape per minibatch, as `ppo_update` built
them before it moved off the tape.
"""

import numpy as np
import tape_ops as tape

from rdecomp import autodiff as ad
from rdecomp.policies import LOG_2PI


def trunk_tensor(model, p, states):
    h = states
    for name in model.layers:
        h = tape.tanh(tape.linear(h, p[f"{name}_w"], p[f"{name}_b"]))
    return h


def log_prob_tensor(policy, p, states, actions):
    """Tape log pi(a_t|s_t) and entropy per step, each (T, 1), on the
    parameter leaves p; states is a Tensor (T, d)."""
    h = trunk_tensor(policy, p, states)
    out = tape.linear(h, p["head_w"], p["head_b"])
    if hasattr(policy, "n_actions"):
        logp = tape.log_softmax(out)
        entropy = tape.neg(tape.sum_axis(tape.mul(tape.exp(logp), logp), axis=1))
        return tape.take_per_row(logp, actions), entropy
    log_std = p["log_std"]
    inv_std = tape.exp(tape.neg(log_std))
    diff = tape.sub(tape.constant(np.asarray(actions, dtype=np.float64)), out)
    zsq = tape.square(tape.mul(diff, inv_std))
    per_dim = tape.shift(tape.add(tape.scale(zsq, 0.5), log_std), 0.5 * LOG_2PI)
    ent = tape.shift(tape.sum_all(log_std), 0.5 * policy.action_dim * (1.0 + LOG_2PI))
    entropy = tape.matmul(tape.constant(np.ones((states.shape[0], 1))), ent)
    return tape.neg(tape.sum_axis(per_dim, axis=1)), entropy


def ppo_loss(policy, states, actions, old_logp, adv, clip, entropy_coef):
    """(loss, flat gradient) of the clipped surrogate on one tape."""
    p = tape.leaves(policy.params)
    adv_t = tape.constant(adv.reshape(-1, 1))
    logp, entropy = log_prob_tensor(policy, p, tape.constant(states), actions)
    ratio = tape.exp(tape.sub(logp, tape.constant(old_logp.reshape(-1, 1))))
    unclipped = tape.mul(ratio, adv_t)
    clipped = tape.mul(tape.clip(ratio, 1.0 - clip, 1.0 + clip), adv_t)
    loss = tape.neg(tape.mean_all(tape.minimum(unclipped, clipped)))
    if entropy_coef > 0.0:
        loss = tape.sub(loss, tape.scale(tape.mean_all(entropy), entropy_coef))
    return loss.item(), tape.flatten_grads(p, ad.backward(loss))


def value_loss(value_net, states, target_r, target_0):
    """(loss, flat gradient) of the value heads' squared error on one tape."""
    p = tape.leaves(value_net.params)
    h = trunk_tensor(value_net, p, tape.constant(states))
    loss = None
    for name, target in (("vr", target_r), ("v0", target_0)):
        v = tape.linear(h, p[f"{name}_w"], p[f"{name}_b"])
        err = tape.mean_all(tape.square(tape.sub(v, tape.constant(target.reshape(-1, 1)))))
        loss = err if loss is None else tape.add(loss, err)
    return loss.item(), tape.flatten_grads(p, ad.backward(loss))


def weighted_score_gradient(policy, trajs, coeffs):
    """(B, P): row b is the gradient of sum_t coeffs[b][t] log pi(a_t|s_t)."""
    p = tape.leaves(policy.params)
    rows = []
    for traj, c in zip(trajs, coeffs, strict=True):
        logp, _ = log_prob_tensor(policy, p, tape.constant(traj.states), traj.actions)
        weighted = tape.sum_all(tape.mul(logp, tape.constant(np.asarray(c).reshape(-1, 1))))
        rows.append(tape.flatten_grads(p, ad.backward(weighted)))
    return np.stack(rows)


def score_matrix(policy, traj):
    """Row t is grad log pi(a_t|s_t), one backward pass per step."""
    p = tape.leaves(policy.params)
    rows = []
    for t in range(traj.length):
        logp, _ = log_prob_tensor(
            policy, p, tape.constant(traj.states[t : t + 1]), traj.actions[t : t + 1]
        )
        rows.append(tape.flatten_grads(p, ad.backward(tape.sum_all(logp))))
    return np.stack(rows)
