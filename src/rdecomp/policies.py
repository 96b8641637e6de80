"""Policy and value networks for the PPO trainer and the estimator math.

All three are `nn.TanhMlp`s: a tanh MLP (two layers of 64 units by
default) with linear heads. The continuous policy is a diagonal Gaussian
whose head gives the mean and whose log standard deviation is a single
global vector; the discrete policy's head gives the logits of a
categorical, which is what the exact-enumeration oracle differentiates.
The value network has two scalar heads, one per advantage stream
(predicted-reward and residual).

Every gradient here is a closed form in numpy. `TanhMlp.forward` keeps
the activations and `TanhMlp.backward` takes the gradient at the heads'
outputs back through the layers. Each policy computes log pi and its gradient in one
place, `log_prob_head`, which takes the head's output (the logits or the
Gaussian mean) and whose map gives the per-row gradient there and the
gradients of the policy's other parameters (the Gaussian log_std) summed
over rows by the caller's reduction. Every surface uses it: the old
log-probs (`log_prob_np`), so a PPO update's first ratio is exactly 1; the
PPO minibatch loss and its gradient (`ppo_loss_grad`); the score sums
per trajectory for the estimators and the oracle, where each layer's sums
are one padded batched matmul; and the variance of those sums over a
batch (`score_sum_variance`), which builds no per-trajectory rows.
`ValueNetwork.loss_grad` is the value net's squared error and its
gradient. The PPO and value forms make the float ops of the equivalent
tape in the tape's order, so they are bit-identical to the tape engine's
`backward` on it (tests/reference_scores.py holds that tape).
"""

from __future__ import annotations

import bisect

import numpy as np

from rdecomp import _kernels
from rdecomp import nn
from rdecomp._kernels import pad_segments

LOG_2PI = float(np.log(2.0 * np.pi))


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# Log-prob and score-gradient surfaces shared by both policies. Each class
# binds them in its own body rather than inheriting them, so that each
# class's __dict__ holds them (perfbench/tracer.py wraps them there, per
# class).


def _log_prob_np(policy, states, actions):
    """(m,): log pi(a_t|s_t) per step, by the float ops of `ppo_loss_grad`."""
    return policy.log_prob_head(policy.forward(states)["head"], actions)[0].reshape(-1)


def _segment_scores(policy, states, actions, coeffs, lengths):
    """(B, P): row b sums coeffs[t] grad log pi(a_t|s_t) over segment b of the
    stacked steps. Each parameter's sums are written straight into its
    columns of the policy's `nn.layout`."""
    lay = nn.layout(policy.params)
    out = np.empty((lengths.size, lay.size))
    blocks = lay.blocks(out)
    a = policy.forward(states)
    head_grads = policy.log_prob_head(a["head"], actions)[2]
    g_head, sums = head_grads(
        coeffs.reshape(-1, 1), None, lambda rows: pad_segments(rows, lengths).sum(axis=1)
    )
    for name, block in sums.items():
        blocks[name][...] = block

    def segment_sums(h, d, name):
        block = pad_segments(d, lengths)
        return (np.matmul(pad_segments(h, lengths).transpose(0, 2, 1), block,
                          out=blocks[f"{name}_w"]),
                block.sum(axis=1, out=blocks[f"{name}_b"]))

    policy.backward(a, {"head": g_head}, segment_sums)
    return out


def score_sum_variance(policy, a, head_grads, coeffs, lengths):
    """tr Var / P of the segment sums G_b = sum_t coeffs[t] grad log pi(a_t|s_t)
    over the B segments of the stacked steps, as `np.var` over the B rows of
    `_segment_scores`, averaged over its P columns, gives it, but without
    those rows: (sum_b |G_b|^2 / B - |sum_b G_b|^2 / B^2) / P, clamped at 0
    (a batch of one has variance 0.0).

    `a` is `policy.forward` of the steps and `head_grads` the map
    `log_prob_head` returned for them, so a caller that needs that pass
    anyway (PPO's old log-probs) shares it. A layer's weight and bias sums
    over segment b are H_b^T D_b and 1^T D_b, with H_b and D_b the segment's
    (T, i) and (T, o) rows of its input and of the gradient at its
    pre-activation, zero-padded to the longest segment's T. Of the two ways
    to their squared norm, each layer takes the one with fewer flops: the
    (B, i, o) sums themselves when i o <= T (i + o), which also add up to
    the layer's totals; otherwise the per-segment Gram blocks,
    sum((K_h + 1) * K_d) with K = X X^T, and the ordinary sums over all
    steps for the totals."""
    n = lengths.size
    if n == 1:
        return 0.0
    at = _kernels.segment_index(lengths)
    t_len = int(lengths.max())
    g_head, others = head_grads(coeffs.reshape(-1, 1), None,
                                lambda rows: pad_segments(rows, lengths, at).sum(axis=1))
    sq_sum = 0.0

    def reduce(h, d, name):
        nonlocal sq_sum
        hp, dp = pad_segments(h, lengths, at), pad_segments(d, lengths, at)
        i, o = h.shape[1], d.shape[1]
        if i * o <= t_len * (i + o):
            sums, bias_sums = np.matmul(hp.transpose(0, 2, 1), dp), dp.sum(axis=1)
            sq_sum += float(np.vdot(sums, sums)) + float(np.vdot(bias_sums, bias_sums))
            return sums.sum(axis=0), bias_sums.sum(axis=0)
        k_h = np.matmul(hp, hp.transpose(0, 2, 1))
        k_h += 1.0
        sq_sum += float(np.vdot(k_h, np.matmul(dp, dp.transpose(0, 2, 1))))
        return _kernels.matmul(h.T, d), d.sum(axis=0)

    total = policy.backward(a, {"head": g_head}, reduce)
    for name, sums in others.items():
        sq_sum += float(np.vdot(sums, sums))
        total[name] = sums.sum(axis=0)
    total_sq = sum(float(np.vdot(g, g)) for g in total.values())
    variance = (sq_sum / n - total_sq / (n * n)) / nn.layout(policy.params).size
    return max(variance, 0.0)


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


def _ppo_loss_grad(policy, states, actions, old_logp, adv, clip, entropy_coef, out=None,
                   blocks=None):
    """Loss of one PPO minibatch and its flat gradient, written into `out` if
    given (through its prebuilt `blocks`, as `TanhMlp.flat_grad` takes them),
    or None for the gradient when the loss or a ratio is not finite. (A ratio that overflows
    where the advantage is positive leaves the loss finite, through the
    clipped branch, but its gradient would be 0 * inf.)

    The loss is the clipped surrogate -mean(min(r A, clip(r, 1 - clip,
    1 + clip) A)), r = pi(a|s) / exp(old_logp), minus entropy_coef times the
    mean entropy when entropy_coef > 0.
    """
    a = policy.forward(states)
    logp, entropy, head_grads = policy.log_prob_head(a["head"], actions)
    adv = adv.reshape(-1, 1)
    ratio = np.exp(logp - old_logp.reshape(-1, 1))
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    n = ratio.size
    # sum() / n: the float ops of mean(), without its Python overhead
    loss = np.minimum(unclipped, clipped).sum() / n * -1.0
    g_entropy = None
    if entropy_coef > 0.0:
        loss = loss - entropy.sum() / n * entropy_coef
        g_entropy = np.full(entropy.shape, -entropy_coef / n)
    if not (np.isfinite(loss) and np.isfinite(ratio).all()):
        return float(loss), None
    # The minimum takes the unclipped branch on ties; the clipped one passes
    # gradient only where the ratio lies inside the clip range.
    take = (unclipped <= clipped).astype(np.float64)
    inside = ((ratio >= 1.0 - clip) & (ratio <= 1.0 + clip)).astype(np.float64)
    g = -1.0 / n
    g_ratio = g * take * adv + g * (1.0 - take) * adv * inside
    g_head, grads = head_grads(g_ratio * ratio, g_entropy, lambda rows: rows.sum(axis=0))
    return float(loss), policy.flat_grad(a, {"head": g_head}, grads, out, blocks)


class CategoricalPolicy(nn.TanhMlp):
    """Softmax policy over a finite action set; the head gives the logits,
    and an action is the state's `cdf` bisected at one `rng.random()`."""

    def __init__(self, rng, state_dim, n_actions, hidden=(64, 64)):
        super().__init__(rng, state_dim, hidden, {"head": n_actions})
        self.state_dim = state_dim
        self.n_actions = n_actions

    def log_prob_matrix_np(self, states):
        return _log_softmax(self.forward(np.atleast_2d(states))["head"])

    def cdf(self, state):
        """The cumulative probabilities of pi(.|state) as a list of floats
        ending in 1.0, by the float ops of `Generator.choice(n, p=p)`;
        ValueError if not finite. `bisect_right` on the list at one
        `rng.random()` is the index `searchsorted(u, side="right")` gives
        on the float64 cdf. A rollout on cell states keeps each cell's."""
        p = np.exp(self.log_prob_matrix_np(state)[0])
        cdf = np.cumsum(p / p.sum())
        if not np.isfinite(cdf[-1]):
            raise ValueError("probabilities contain NaN")
        return (cdf / cdf[-1]).tolist()

    def act(self, state, rng):
        """One action drawn from pi(.|state), its cdf computed afresh."""
        return bisect.bisect_right(self.cdf(state), rng.random())

    def log_prob_head(self, logits, actions):
        """log pi(a_t|s_t) and the entropy per step, each (m, 1), given the
        head's output (the logits), and the map from their gradients (the
        entropy's may be None) and a row-sum to the per-row gradient at the
        logits and the row-summed gradients of the policy's other
        parameters (none here)."""
        logp = _log_softmax(logits)
        p = np.exp(logp)
        rows, idx = np.arange(len(logits)), np.asarray(actions, dtype=np.intp)

        def grads(g_logp, g_entropy, row_sum):
            g = np.zeros(logp.shape)
            g[rows, idx] = g_logp.reshape(-1)
            if g_entropy is not None:
                # entropy = -sum p log p: through log p, then through p
                ge = g_entropy * -1.0
                g = g + ge * p + ge * logp * p
            return g - p * g.sum(axis=1, keepdims=True), {}

        entropy = (p * logp).sum(axis=1, keepdims=True) * -1.0
        return logp[rows, idx].reshape(-1, 1), entropy, grads

    log_prob_np = _log_prob_np
    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix
    ppo_loss_grad = _ppo_loss_grad


class GaussianPolicy(nn.TanhMlp):
    """Diagonal Gaussian with a global log-std vector; the head gives the
    state-dependent mean."""

    def __init__(self, rng, state_dim, action_dim, hidden=(64, 64), init_log_std=-0.5):
        super().__init__(rng, state_dim, hidden, {"head": action_dim})
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.params["log_std"] = nn.read_only(np.full(action_dim, init_log_std))

    def mean_np(self, states):
        return self.forward(np.atleast_2d(states))["head"]

    def act(self, state, rng):
        mean = self.mean_np(state)[0]
        std = np.exp(self.params["log_std"])
        return mean + std * rng.standard_normal(self.action_dim)

    def log_prob_head(self, mean, actions):
        """As `CategoricalPolicy.log_prob_head`; actions (m, action_dim), the
        head's output the mean, and log_std the policy's other parameter.
        The entropy depends on log_std alone."""
        log_std = self.params["log_std"]
        inv_std = np.exp(log_std * -1.0)
        diff = actions - mean
        z = diff * inv_std
        per_dim = (z * z * 0.5 + log_std) + 0.5 * LOG_2PI
        ent = log_std.sum() + 0.5 * self.action_dim * (1.0 + LOG_2PI)

        def grads(g_logp, g_entropy, row_sum):
            g = np.broadcast_to(g_logp * -1.0, diff.shape).copy()
            g_z = 2.0 * (g * 0.5) * z
            g_log_std = row_sum(g) + row_sum(g_z * diff) * inv_std * -1.0
            if g_entropy is not None:
                g_ent = _kernels.matmul(np.ones((len(mean), 1)).T, g_entropy)
                g_log_std = g_log_std + np.full(log_std.shape, g_ent[0, 0])
            return -(g_z * inv_std), {"log_std": g_log_std}

        logp = per_dim.sum(axis=1, keepdims=True) * -1.0
        return logp, np.full((len(mean), 1), ent), grads

    log_prob_np = _log_prob_np
    weighted_score_gradient = _weighted_score_gradient
    score_matrix = _score_matrix
    ppo_loss_grad = _ppo_loss_grad


class ValueNetwork(nn.TanhMlp):
    """State-value model with one head per advantage stream."""

    def __init__(self, rng, state_dim, hidden=(64, 64)):
        super().__init__(rng, state_dim, hidden, {"vr": 1, "v0": 1})

    def values_np(self, states):
        a = self.forward(np.atleast_2d(states))
        return a["vr"].reshape(-1), a["v0"].reshape(-1)

    def loss_grad(self, states, target_r, target_0, out=None, blocks=None):
        """Mean squared error of each head against its targets, summed over
        the heads, and its flat gradient, written into `out` if given
        (through its prebuilt `blocks`, as `TanhMlp.flat_grad` takes them),
        or None for the gradient when the loss is not finite."""
        a = self.forward(states)
        errs = {"vr": a["vr"] - target_r.reshape(-1, 1), "v0": a["v0"] - target_0.reshape(-1, 1)}
        loss = sum((err * err).sum() / err.size for err in errs.values())
        if not np.isfinite(loss):
            return float(loss), None
        g = {name: (2.0 * (1.0 / err.size)) * err for name, err in errs.items()}
        return float(loss), self.flat_grad(a, g, {}, out, blocks)


def make_policy(rng, env, hidden=(64, 64)):
    if hasattr(env, "n_actions"):
        return CategoricalPolicy(rng, env.state_dim, env.n_actions, hidden)
    return GaussianPolicy(rng, env.state_dim, env.action_dim, hidden)
