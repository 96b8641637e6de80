"""Policy and value networks for the PPO trainer and the estimator math.

Both use the same trunk: a two-layer tanh MLP (64 hidden units by default).
The continuous policy is a diagonal Gaussian whose log standard deviation
is a single global vector; the discrete policy is a categorical head, which
is what the exact-enumeration oracle differentiates. The value network has
two scalar heads, one per advantage stream (predicted-reward and residual).

No gradient here uses the tape. A numpy forward keeps the trunk's
activations, the head's delta goes back through the trunk by
`autodiff.tanh_mlp_deltas`, and each layer's gradient is a matmul with its
input. Policies have two gradient surfaces: the PPO minibatch loss and its
gradient (`ppo_loss_grad`), and score sums per trajectory for the
estimators and the oracle, where each layer's sums are one padded batched
matmul. `ValueNetwork.loss_grad` is the value net's squared error and its
gradient. The PPO and value forms make the float ops of the equivalent
tape in the tape's order, so they are bit-identical to `autodiff.backward`
on it (tests/reference_scores.py holds that tape).
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
        """The weight and the bias arrays of each layer, first layer first."""
        idx = range(self.n_layers)
        return [params[f"t{i}_w"] for i in idx], [params[f"t{i}_b"] for i in idx]

    def forward(self, params, x):
        """The weight arrays and [x, h_1, ..., h_L], for `grads`."""
        weights, biases = self.layers(params)
        return weights, ad.tanh_mlp_layers(x, weights, biases)

    def apply_np(self, params, x):
        return self.forward(params, x)[1][-1]

    def grads(self, wd, hs, g):
        """Gradients of the trunk's parameters, given g at its output."""
        return ad.tanh_mlp_grads(hs, wd, g, [f"t{i}" for i in range(self.n_layers)])[0]


# Score-gradient surfaces shared by both policies. Each class binds them in
# its own body rather than inheriting them, so that each class's __dict__
# holds them (perfbench/tracer.py wraps them there, per class).


def _segment_scores(policy, states, actions, coeffs, lengths):
    """(B, P): row b sums coeffs[t] grad log pi(a_t|s_t) over segment b of the
    stacked steps, flattened over parameters in `flatten_params` order."""
    params = policy.params
    wd, hs = policy.trunk.forward(params, states)
    head, extra = policy.head_deltas(hs[-1], actions, coeffs.reshape(-1, 1))
    deltas = ad.tanh_mlp_deltas(hs, wd, _kernels.matmul(head, params["head_w"].T))

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


def _ppo_loss_grad(policy, states, actions, old_logp, adv, clip, entropy_coef):
    """Loss of one PPO minibatch and its flat gradient, or None for the
    gradient when the loss or a ratio is not finite. (A ratio that overflows
    where the advantage is positive leaves the loss finite, through the
    clipped branch, but its gradient would be 0 * inf.)

    The loss is the clipped surrogate -mean(min(r A, clip(r, 1 - clip,
    1 + clip) A)), r = pi(a|s) / exp(old_logp), minus entropy_coef times the
    mean entropy when entropy_coef > 0.
    """
    wd, hs = policy.trunk.forward(policy.params, states)
    logp, entropy, head_grads = policy.log_prob_head(hs[-1], actions)
    adv = adv.reshape(-1, 1)
    ratio = np.exp(logp - old_logp.reshape(-1, 1))
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    n = ratio.size
    loss = np.minimum(unclipped, clipped).mean() * -1.0
    g_entropy = None
    if entropy_coef > 0.0:
        loss = loss - entropy.mean() * entropy_coef
        g_entropy = np.full(entropy.shape, -entropy_coef / n)
    if not (np.isfinite(loss) and np.isfinite(ratio).all()):
        return float(loss), None
    # The minimum takes the unclipped branch on ties; the clipped one passes
    # gradient only where the ratio lies inside the clip range.
    take = (unclipped <= clipped).astype(np.float64)
    inside = ((ratio >= 1.0 - clip) & (ratio <= 1.0 + clip)).astype(np.float64)
    g = np.full(ratio.shape, -1.0 / n)
    g_ratio = g * take * adv + g * (1.0 - take) * adv * inside
    g_h, grads = head_grads(g_ratio * ratio, g_entropy)
    grads.update(policy.trunk.grads(wd, hs, g_h))
    return float(loss), nn.flatten_arrays(policy.params, grads)


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
        return h @ self.params["head_w"] + self.params["head_b"]

    def log_prob_matrix_np(self, states):
        logits = self.logits_np(states)
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def sampler(self):
        """`act` while the parameters stay fixed, with each state's cdf
        computed once; each call still draws one `rng.random()`."""
        cdfs = {}

        def sample(state, rng):
            key = state.tobytes()
            cdf = cdfs.get(key)
            if cdf is None:
                # The draw Generator.choice(n, p=p) makes, without its per-call overhead.
                p = np.exp(self.log_prob_matrix_np(state)[0])
                cdf = np.cumsum(p / p.sum())
                if not np.isfinite(cdf[-1]):
                    raise ValueError("probabilities contain NaN")
                cdf = cdfs[key] = cdf / cdf[-1]
            return int(cdf.searchsorted(rng.random(), side="right"))

        return sample

    def act(self, state, rng):
        return self.sampler()(state, rng)

    def log_prob_head(self, h, actions):
        """log pi(a_t|s_t) and the entropy per step, each (m, 1), given the
        trunk output h, and the map from their gradients (the entropy's may
        be None) to the gradient at h and the head's parameter gradients."""
        w = self.params["head_w"]
        logits = _kernels.matmul(h, w) + self.params["head_b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        rows, idx = np.arange(len(h)), np.asarray(actions, dtype=np.intp)

        def grads(g_logp, g_entropy):
            g = np.zeros(logp.shape)
            g[rows, idx] = g_logp.reshape(-1)
            if g_entropy is not None:
                # entropy = -sum p log p: through log p, then through p
                ge = np.broadcast_to(g_entropy * -1.0, logp.shape)
                g = g + ge * p + ge * logp * p
            g = g - p * g.sum(axis=1, keepdims=True)
            return _kernels.matmul(g, w.T), {
                "head_w": _kernels.matmul(h.T, g), "head_b": g.sum(axis=0),
            }

        entropy = (p * logp).sum(axis=1, keepdims=True) * -1.0
        return logp[rows, idx].reshape(-1, 1), entropy, grads

    def log_prob_np(self, states, actions):
        lp = self.log_prob_matrix_np(states)
        return lp[np.arange(len(actions)), np.asarray(actions, dtype=int)]

    def head_deltas(self, h, actions, c):
        """Gradient of sum_t c_t log pi(a_t|s_t) at the logits, given the
        trunk output h; no parameter outside the head and trunk."""
        logits = h @ self.params["head_w"] + self.params["head_b"]
        return c * (np.eye(self.n_actions)[actions] - _kernels.softmax_rows(logits)), {}

    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix
    ppo_loss_grad = _ppo_loss_grad


class GaussianPolicy:
    """Diagonal Gaussian with state-dependent mean and a global log-std vector."""

    def __init__(self, rng, state_dim, action_dim, hidden=(64, 64), init_log_std=-0.5):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.trunk = _Trunk(rng, state_dim, hidden)
        head_w, head_b = nn.init_linear(rng, self.trunk.out_dim, action_dim, scale=0.1)
        self.params = dict(self.trunk.params)
        self.params["head_w"], self.params["head_b"] = head_w, head_b
        self.params["log_std"] = nn.read_only(np.full(action_dim, init_log_std))

    def mean_np(self, states):
        h = self.trunk.apply_np(self.params, np.atleast_2d(states))
        return h @ self.params["head_w"] + self.params["head_b"]

    def act(self, state, rng):
        mean = self.mean_np(state)[0]
        std = np.exp(self.params["log_std"])
        return mean + std * rng.standard_normal(self.action_dim)

    def sampler(self):
        """`act`: continuous states do not repeat, so nothing is cached."""
        return self.act

    def log_prob_head(self, h, actions):
        """As `CategoricalPolicy.log_prob_head`; actions (m, action_dim).
        The entropy depends on log_std alone."""
        w = self.params["head_w"]
        log_std = self.params["log_std"]
        inv_std = np.exp(log_std * -1.0)
        diff = actions - (_kernels.matmul(h, w) + self.params["head_b"])
        z = diff * inv_std
        per_dim = (z * z * 0.5 + log_std) + 0.5 * LOG_2PI
        ent = log_std.sum() + 0.5 * self.action_dim * (1.0 + LOG_2PI)

        def grads(g_logp, g_entropy):
            g = np.broadcast_to(g_logp * -1.0, diff.shape).copy()
            g_z = 2.0 * (g * 0.5) * z
            g_mean = -(g_z * inv_std)
            g_log_std = g.sum(axis=0) + (g_z * diff).sum(axis=0) * inv_std * -1.0
            if g_entropy is not None:
                g_ent = _kernels.matmul(np.ones((len(h), 1)).T, g_entropy)
                g_log_std = g_log_std + np.full(log_std.shape, g_ent[0, 0])
            return _kernels.matmul(g_mean, w.T), {
                "head_w": _kernels.matmul(h.T, g_mean), "head_b": g_mean.sum(axis=0),
                "log_std": g_log_std,
            }

        logp = per_dim.sum(axis=1, keepdims=True) * -1.0
        return logp, np.full((len(h), 1), ent), grads

    def log_prob_np(self, states, actions):
        mean = self.mean_np(states)
        log_std = self.params["log_std"]
        z = (np.asarray(actions) - mean) / np.exp(log_std)
        return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * LOG_2PI * self.action_dim

    def head_deltas(self, h, actions, c):
        """Gradient of sum_t c_t log pi(a_t|s_t) at the mean, given the trunk
        output h, and the per-step rows of its gradient at log_std."""
        mean = h @ self.params["head_w"] + self.params["head_b"]
        std = np.exp(self.params["log_std"])
        z = (actions - mean) / std
        return c * z / std, {"log_std": c * (z * z - 1.0)}

    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix
    ppo_loss_grad = _ppo_loss_grad


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
        vr = (h @ self.params["vr_w"] + self.params["vr_b"]).reshape(-1)
        if not self.two_heads:
            return vr, np.zeros_like(vr)
        v0 = (h @ self.params["v0_w"] + self.params["v0_b"]).reshape(-1)
        return vr, v0

    def loss_grad(self, states, target_r, target_0):
        """Mean squared error of each head against its targets, summed over
        the heads, and its flat gradient, or None for the gradient when the
        loss is not finite; target_0 is unused with one head."""
        wd, hs = self.trunk.forward(self.params, states)
        h = hs[-1]
        heads = [("vr", target_r), ("v0", target_0)][: 1 + self.two_heads]
        errs = [
            _kernels.matmul(h, self.params[f"{name}_w"]) + self.params[f"{name}_b"]
            - target.reshape(-1, 1)
            for name, target in heads
        ]
        loss = sum((err * err).mean() for err in errs)
        if not np.isfinite(loss):
            return float(loss), None
        g_h, grads = None, {}
        for (name, _), err in zip(heads, errs):
            w = self.params[f"{name}_w"]
            g = 2.0 * np.full(err.shape, 1.0 / err.size) * err
            grads[f"{name}_w"], grads[f"{name}_b"] = _kernels.matmul(h.T, g), g.sum(axis=0)
            g_h = _kernels.matmul(g, w.T) if g_h is None else g_h + _kernels.matmul(g, w.T)
        grads.update(self.trunk.grads(wd, hs, g_h))
        return float(loss), nn.flatten_arrays(self.params, grads)


def make_policy(rng, env, hidden=(64, 64)):
    if hasattr(env, "n_actions"):
        return CategoricalPolicy(rng, env.state_dim, env.n_actions, hidden)
    return GaussianPolicy(rng, env.state_dim, env.action_dim, hidden)
