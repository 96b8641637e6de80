"""Tape reference for the policies' and the value net's closed forms.

The trunk is the matmul -> add -> tanh chain of tape primitives, each
head the tape ops its closed form mirrors. The score sums take one tape
and one backward pass per trajectory, and the score matrix one per step;
the PPO and value losses are one tape per minibatch, as `ppo_update` built
them before it moved off the tape.
"""

import numpy as np
import tape_ops as tape

from rdecomp import autodiff as ad
from rdecomp import nn
from rdecomp.policies import LOG_2PI


def trunk_tensor(model, states):
    h = states
    for w, b in zip(*model.trunk.layers(model.params)):
        h = ad.tanh(nn.linear(h, w, b))
    return h


def log_prob_tensor(policy, states, actions):
    """Tape log pi(a_t|s_t) and entropy per step, each (T, 1); states is a
    Tensor (T, d)."""
    h = trunk_tensor(policy, states)
    out = nn.linear(h, policy.params["head_w"], policy.params["head_b"])
    if hasattr(policy, "n_actions"):
        logp = tape.log_softmax(out)
        entropy = tape.neg(tape.sum_axis(ad.mul(tape.exp(logp), logp), axis=1))
        return tape.take_per_row(logp, actions), entropy
    log_std = policy.params["log_std"]
    inv_std = tape.exp(tape.neg(log_std))
    diff = tape.sub(ad.constant(np.asarray(actions, dtype=np.float64)), out)
    zsq = tape.square(ad.mul(diff, inv_std))
    per_dim = tape.shift(ad.add(ad.scale(zsq, 0.5), log_std), 0.5 * LOG_2PI)
    ent = tape.shift(tape.sum_all(log_std), 0.5 * policy.action_dim * (1.0 + LOG_2PI))
    entropy = ad.matmul(ad.constant(np.ones((states.shape[0], 1))), ent)
    return tape.neg(tape.sum_axis(per_dim, axis=1)), entropy


def ppo_loss(policy, states, actions, old_logp, adv, clip, entropy_coef):
    """(loss, flat gradient) of the clipped surrogate on one tape."""
    adv_t = ad.constant(adv.reshape(-1, 1))
    logp, entropy = log_prob_tensor(policy, ad.constant(states), actions)
    ratio = tape.exp(tape.sub(logp, ad.constant(old_logp.reshape(-1, 1))))
    unclipped = ad.mul(ratio, adv_t)
    clipped = ad.mul(tape.clip(ratio, 1.0 - clip, 1.0 + clip), adv_t)
    loss = tape.neg(tape.mean_all(tape.minimum(unclipped, clipped)))
    if entropy_coef > 0.0:
        loss = tape.sub(loss, ad.scale(tape.mean_all(entropy), entropy_coef))
    return loss.item(), nn.flatten_grads(policy.params, ad.backward(loss))


def value_loss(value_net, states, target_r, target_0):
    """(loss, flat gradient) of the value heads' squared error on one tape."""
    h = trunk_tensor(value_net, ad.constant(states))
    heads = [("vr", target_r), ("v0", target_0)][: 1 + value_net.two_heads]
    loss = None
    for name, target in heads:
        v = nn.linear(h, value_net.params[f"{name}_w"], value_net.params[f"{name}_b"])
        err = tape.mean_all(tape.square(tape.sub(v, ad.constant(target.reshape(-1, 1)))))
        loss = err if loss is None else ad.add(loss, err)
    return loss.item(), nn.flatten_grads(value_net.params, ad.backward(loss))


def weighted_score_gradient(policy, trajs, coeffs):
    """(B, P): row b is the gradient of sum_t coeffs[b][t] log pi(a_t|s_t)."""
    rows = []
    for traj, c in zip(trajs, coeffs, strict=True):
        logp, _ = log_prob_tensor(policy, ad.constant(traj.states), traj.actions)
        weighted = tape.sum_all(ad.mul(logp, ad.constant(np.asarray(c).reshape(-1, 1))))
        rows.append(nn.flatten_grads(policy.params, ad.backward(weighted)))
    return np.stack(rows)


def score_matrix(policy, traj):
    """Row t is grad log pi(a_t|s_t), one backward pass per step."""
    rows = []
    for t in range(traj.length):
        logp, _ = log_prob_tensor(
            policy, ad.constant(traj.states[t : t + 1]), traj.actions[t : t + 1]
        )
        rows.append(nn.flatten_grads(policy.params, ad.backward(tape.sum_all(logp))))
    return np.stack(rows)
