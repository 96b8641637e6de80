"""Policy and value networks for the PPO trainer and the estimator math.

Both use the same trunk: a two-layer tanh MLP (64 hidden units by default).
The continuous policy is a diagonal Gaussian whose log standard deviation
is a single global vector; the discrete policy is a categorical head, which
is what the exact-enumeration oracle differentiates. The value network has
two scalar heads, one per advantage stream (predicted-reward and residual).

Policies expose two gradient surfaces: tape-level log-probs for PPO, and
per-step score vectors / coefficient-weighted score sums for the estimator
and oracle modules.
"""

from __future__ import annotations

import numpy as np

from rdecomp import autodiff as ad
from rdecomp import nn

LOG_2PI = float(np.log(2.0 * np.pi))


class _Trunk:
    def __init__(self, rng, input_dim, hidden=(64, 64)):
        self.sizes = (input_dim,) + tuple(hidden)
        params = {}
        for i in range(len(hidden)):
            w, b = nn.init_linear(rng, self.sizes[i], self.sizes[i + 1])
            params[f"t{i}_w"], params[f"t{i}_b"] = w, b
        self.params = params
        self.n_layers = len(hidden)
        self.out_dim = self.sizes[-1]

    def apply(self, params, x):
        h = x
        for i in range(self.n_layers):
            h = ad.tanh(nn.linear(h, params[f"t{i}_w"], params[f"t{i}_b"]))
        return h

    def apply_np(self, params, x):
        h = x
        for i in range(self.n_layers):
            h = np.tanh(h @ params[f"t{i}_w"].data + params[f"t{i}_b"].data)
        return h


# Score-gradient surfaces shared by both policies. Each class binds them in
# its own body rather than inheriting them, so that each class's __dict__
# holds them (perfbench/tracer.py wraps them there, per class).


def _weighted_score_gradient(policy, traj, coeffs):
    """Flat gradient of sum_t coeffs[t] log pi(a_t|s_t), in one backward pass."""
    logp = policy.log_prob_tensor(ad.constant(traj.states), traj.actions)
    weighted = ad.sum_all(ad.mul(logp, ad.constant(np.asarray(coeffs).reshape(-1, 1))))
    return nn.flatten_grads(policy.params, ad.backward(weighted))


def _score_matrix(policy, traj):
    """Row t is grad_theta log pi(a_t|s_t), flattened over parameters."""
    rows = []
    for t in range(traj.length):
        logp = policy.log_prob_tensor(
            ad.constant(traj.states[t : t + 1]), traj.actions[t : t + 1]
        )
        rows.append(nn.flatten_grads(policy.params, ad.backward(ad.sum_all(logp))))
    return np.stack(rows, axis=0)


class CategoricalPolicy:
    """Softmax policy over a finite action set."""

    def __init__(self, rng, state_dim, n_actions, hidden=(64, 64)):
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.trunk = _Trunk(rng, state_dim, hidden)
        head_w, head_b = nn.init_linear(rng, self.trunk.out_dim, n_actions, scale=0.1)
        self.params = dict(self.trunk.params)
        self.params["head_w"], self.params["head_b"] = head_w, head_b

    def logits_np(self, states):
        h = self.trunk.apply_np(self.params, np.atleast_2d(states))
        return h @ self.params["head_w"].data + self.params["head_b"].data

    def log_prob_matrix_np(self, states):
        logits = self.logits_np(states)
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def act(self, state, rng):
        p = np.exp(self.log_prob_matrix_np(state)[0])
        return int(rng.choice(self.n_actions, p=p / p.sum()))

    def log_prob_tensor(self, states, actions):
        """Tape log pi(a_t|s_t) per step; states (T, d), actions (T,) ints."""
        h = self.trunk.apply(self.params, states)
        logits = nn.linear(h, self.params["head_w"], self.params["head_b"])
        return ad.take_per_row(ad.log_softmax(logits), actions)

    def log_prob_np(self, states, actions):
        lp = self.log_prob_matrix_np(states)
        return lp[np.arange(len(actions)), np.asarray(actions, dtype=int)]

    def entropy_tensor(self, states):
        h = self.trunk.apply(self.params, states)
        logp = ad.log_softmax(nn.linear(h, self.params["head_w"], self.params["head_b"]))
        p = ad.softmax(nn.linear(h, self.params["head_w"], self.params["head_b"]))
        return ad.neg(ad.sum_axis(ad.mul(p, logp), axis=1))

    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix


class GaussianPolicy:
    """Diagonal Gaussian with state-dependent mean and a global log-std vector."""

    def __init__(self, rng, state_dim, action_dim, hidden=(64, 64), init_log_std=-0.5):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.trunk = _Trunk(rng, state_dim, hidden)
        head_w, head_b = nn.init_linear(rng, self.trunk.out_dim, action_dim, scale=0.1)
        self.params = dict(self.trunk.params)
        self.params["head_w"], self.params["head_b"] = head_w, head_b
        self.params["log_std"] = ad.Tensor(np.full(action_dim, init_log_std))

    def mean_np(self, states):
        h = self.trunk.apply_np(self.params, np.atleast_2d(states))
        return h @ self.params["head_w"].data + self.params["head_b"].data

    def act(self, state, rng):
        mean = self.mean_np(state)[0]
        std = np.exp(self.params["log_std"].data)
        return mean + std * rng.standard_normal(self.action_dim)

    def log_prob_tensor(self, states, actions):
        """Tape log pi per step; states (T, d), actions (T, action_dim)."""
        h = self.trunk.apply(self.params, states)
        mean = nn.linear(h, self.params["head_w"], self.params["head_b"])
        log_std = self.params["log_std"]
        inv_std = ad.exp(ad.neg(log_std))
        diff = ad.sub(ad.constant(np.asarray(actions, dtype=np.float64)), mean)
        # Row-vector broadcast multiplies each action dimension by 1/std.
        zsq = ad.square(ad.mul(diff, inv_std))
        per_dim = ad.shift(
            ad.add(ad.scale(zsq, 0.5), log_std), 0.5 * LOG_2PI
        )
        return ad.neg(ad.sum_axis(per_dim, axis=1))

    def log_prob_np(self, states, actions):
        mean = self.mean_np(states)
        log_std = self.params["log_std"].data
        z = (np.asarray(actions) - mean) / np.exp(log_std)
        return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * LOG_2PI * self.action_dim

    def entropy_tensor(self, states):
        t_len = np.atleast_2d(states.data if isinstance(states, ad.Tensor) else states).shape[0]
        ent = ad.sum_all(self.params["log_std"])
        ent = ad.shift(ent, 0.5 * self.action_dim * (1.0 + LOG_2PI))
        return ad.matmul(ad.constant(np.ones((t_len, 1))), ent)

    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix


class ValueNetwork:
    """State-value model with one head per advantage stream."""

    def __init__(self, rng, state_dim, hidden=(64, 64), two_heads=True):
        self.trunk = _Trunk(rng, state_dim, hidden)
        self.two_heads = two_heads
        self.params = dict(self.trunk.params)
        wr, br = nn.init_linear(rng, self.trunk.out_dim, 1, scale=0.1)
        self.params["vr_w"], self.params["vr_b"] = wr, br
        if two_heads:
            w0, b0 = nn.init_linear(rng, self.trunk.out_dim, 1, scale=0.1)
            self.params["v0_w"], self.params["v0_b"] = w0, b0

    def values_np(self, states):
        h = self.trunk.apply_np(self.params, np.atleast_2d(states))
        vr = (h @ self.params["vr_w"].data + self.params["vr_b"].data).reshape(-1)
        if not self.two_heads:
            return vr, np.zeros_like(vr)
        v0 = (h @ self.params["v0_w"].data + self.params["v0_b"].data).reshape(-1)
        return vr, v0

    def loss_tensor(self, states, target_r, target_0):
        h = self.trunk.apply(self.params, states)
        vr = nn.linear(h, self.params["vr_w"], self.params["vr_b"])
        err = ad.sub(vr, ad.constant(np.asarray(target_r).reshape(-1, 1)))
        loss = ad.mean_all(ad.square(err))
        if self.two_heads:
            v0 = nn.linear(h, self.params["v0_w"], self.params["v0_b"])
            err0 = ad.sub(v0, ad.constant(np.asarray(target_0).reshape(-1, 1)))
            loss = ad.add(loss, ad.mean_all(ad.square(err0)))
        return loss


def make_policy(rng, env, hidden=(64, 64)):
    if hasattr(env, "n_actions"):
        return CategoricalPolicy(rng, env.state_dim, env.n_actions, hidden)
    return GaussianPolicy(rng, env.state_dim, env.action_dim, hidden)
