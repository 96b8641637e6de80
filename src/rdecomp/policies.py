"""Policy and value networks for the PPO trainer and the estimator math.

Both use the same trunk: a two-layer tanh MLP (64 hidden units by default).
The continuous policy is a diagonal Gaussian whose log standard deviation
is a single global vector; the discrete policy is a categorical head, which
is what the exact-enumeration oracle differentiates. The value network has
two scalar heads, one per advantage stream (predicted-reward and residual).

Policies expose two gradient surfaces: tape log-probs and entropies per
step for PPO, from one trunk and head pass, and closed-form score sums for
the estimators and the oracle. Those need no tape: a numpy forward keeps
the trunk's activations, the head's delta goes back through the trunk by
the trunk vjp's own per-layer code, and each layer's sums per trajectory
are one padded batched matmul.
"""

from __future__ import annotations

import numpy as np

from rdecomp import _kernels
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

    def layers(self, params):
        """The weight and the bias Tensors of each layer, first layer first."""
        idx = range(self.n_layers)
        return [params[f"t{i}_w"] for i in idx], [params[f"t{i}_b"] for i in idx]

    def apply(self, params, x):
        return ad.tanh_mlp(x, *self.layers(params))

    def apply_np(self, params, x):
        weights, biases = self.layers(params)
        return ad.tanh_mlp_layers(x, [w.data for w in weights], [b.data for b in biases])[-1]


# Score-gradient surfaces shared by both policies. Each class binds them in
# its own body rather than inheriting them, so that each class's __dict__
# holds them (perfbench/tracer.py wraps them there, per class).


def _segment_scores(policy, states, actions, coeffs, lengths):
    """(B, P): row b sums coeffs[t] grad log pi(a_t|s_t) over segment b of the
    stacked steps, flattened over parameters in `flatten_grads` order."""
    params = policy.params
    weights, biases = policy.trunk.layers(params)
    wd = [w.data for w in weights]
    hs = ad.tanh_mlp_layers(states, wd, [b.data for b in biases])
    head, extra = policy.head_deltas(hs[-1], actions, coeffs.reshape(-1, 1))
    deltas = ad.tanh_mlp_deltas(hs, wd, _kernels.matmul(head, params["head_w"].data.T))

    sums = {name: ad.pad_segments(rows, lengths).sum(axis=1) for name, rows in extra.items()}
    layers = [(f"t{i}", hs[i], d) for i, d in enumerate(deltas)] + [("head", hs[-1], head)]
    for name, h, d in layers:
        block = ad.pad_segments(d, lengths)
        sums[f"{name}_w"] = np.matmul(ad.pad_segments(h, lengths).transpose(0, 2, 1), block)
        sums[f"{name}_b"] = block.sum(axis=1)
    return np.concatenate([sums[k].reshape(lengths.size, -1) for k in sorted(params)], axis=1)


def _weighted_score_gradient(policy, trajs, coeffs):
    """(B, P): row b is the flat gradient of sum_t coeffs[b][t] log pi(a_t|s_t)
    over trajectory b."""
    lengths = np.array([t.length for t in trajs])
    if [len(c) for c in coeffs] != lengths.tolist():
        raise ValueError("one coefficient per step of each trajectory is required")
    return _segment_scores(
        policy,
        np.concatenate([t.states for t in trajs]),
        np.concatenate([t.actions for t in trajs]),
        np.concatenate(coeffs).astype(np.float64),
        lengths,
    )


def _score_matrix(policy, traj):
    """Row t is grad_theta log pi(a_t|s_t), flattened over parameters."""
    ones = np.ones(traj.length)
    return _segment_scores(policy, traj.states, traj.actions, ones, ones.astype(np.intp))


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
        # The draw Generator.choice(n, p=p) makes, without its per-call overhead.
        p = np.exp(self.log_prob_matrix_np(state)[0])
        cdf = np.cumsum(p / p.sum())
        if not np.isfinite(cdf[-1]):
            raise ValueError("probabilities contain NaN")
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))

    def log_prob_tensor(self, states, actions):
        """Tape log pi(a_t|s_t) and entropy per step, each (T, 1), from one
        trunk and head pass; states (T, d), actions (T,) ints."""
        h = self.trunk.apply(self.params, states)
        logp = ad.log_softmax(nn.linear(h, self.params["head_w"], self.params["head_b"]))
        entropy = ad.neg(ad.sum_axis(ad.mul(ad.exp(logp), logp), axis=1))
        return ad.take_per_row(logp, actions), entropy

    def log_prob_np(self, states, actions):
        lp = self.log_prob_matrix_np(states)
        return lp[np.arange(len(actions)), np.asarray(actions, dtype=int)]

    def head_deltas(self, h, actions, c):
        """Gradient of sum_t c_t log pi(a_t|s_t) at the logits, given the
        trunk output h; no parameter outside the head and trunk."""
        logits = h @ self.params["head_w"].data + self.params["head_b"].data
        return c * (np.eye(self.n_actions)[actions] - _kernels.softmax_rows(logits)), {}

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
        """Tape log pi and entropy per step, each (T, 1); states (T, d),
        actions (T, action_dim). The entropy depends on log_std alone."""
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
        ent = ad.shift(ad.sum_all(log_std), 0.5 * self.action_dim * (1.0 + LOG_2PI))
        entropy = ad.matmul(ad.constant(np.ones((states.shape[0], 1))), ent)
        return ad.neg(ad.sum_axis(per_dim, axis=1)), entropy

    def log_prob_np(self, states, actions):
        mean = self.mean_np(states)
        log_std = self.params["log_std"].data
        z = (np.asarray(actions) - mean) / np.exp(log_std)
        return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * LOG_2PI * self.action_dim

    def head_deltas(self, h, actions, c):
        """Gradient of sum_t c_t log pi(a_t|s_t) at the mean, given the trunk
        output h, and the per-step rows of its gradient at log_std."""
        mean = h @ self.params["head_w"].data + self.params["head_b"].data
        std = np.exp(self.params["log_std"].data)
        z = (actions - mean) / std
        return c * z / std, {"log_std": c * (z * z - 1.0)}

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
