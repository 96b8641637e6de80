"""Learned decomposition of episodic returns over time intervals.

A predictor maps a trajectory to one scalar surrogate reward per interval.
Interval i ends at step i (max index i), and which steps it covers is a
property of the architecture, its class's `kind`:

  singletons: interval i covers step i alone (the per-step feed-forward net)
  prefixes:   interval i covers steps 0..i (the recurrent and attention nets)

The recurrent and attention predictors are causal, so their output for
interval i is a function of steps 0..i exactly — perturbing any later step
changes nothing.

Every predictor runs on a batch at once: the rows of B trajectories are
stacked into one (N, d) matrix and passed with the segment lengths, so a
regression minibatch is one forward and one backward pass, and `predict`
is one forward pass over a list of trajectories, for the trainer and the
oracle alike. Each predictor has one numpy `forward` and a closed-form
`backward`; none builds a tape. The attention predictor's multi-head causal
attention (`causal_attention`) is a few batched matmuls over zero-padded
blocks of all the segments under one causal mask, and returns its backward
map with its outputs.

Training regresses the summed per-interval predictions onto the episodic
return with a squared loss. Returns are standardized by a running
normalizer before regression (raw returns can span orders of magnitude;
raw targets destabilize these small networks), and predictions are
de-standardized for policy-gradient use: every output is scaled by the
std and the whole mean is added to interval 0. The mean is a constant, so
the de-standardized rewards stay causal, and the composite still lands on
the raw-return scale. (Spreading the mean as mean / T would not be causal:
T depends on when the episode ends, so interval i would read later steps.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from rdecomp import _kernels
from rdecomp import nn

# Layer widths: half the published ones (all but the head count), for the
# small benchmark environments.
WIDTHS = {
    "embed": 32,
    "heads": 4,
    "qk": 16,
    "ff_hidden": 64,
    "pool": 32,
    "lstm_hidden": 48,
    "ff_channels": [64, 64, 64, 128],
}
# What `predictor_from_checkpoint` accepts of the hyperparameters that
# checkpoints of earlier versions recorded: the one model built today.
_RETIRED_HYPERPARAMS = {"scale": "desk", "positional": True}


@dataclass
class RewardDecomposition:
    """Per-interval surrogate rewards for one trajectory.

    per_interval is ordered by interval end (ascending max index);
    composite is its left-to-right sum, and residual = R - composite.
    Both identities hold by construction.
    """

    per_interval: np.ndarray
    composite: float
    residual: float

    @classmethod
    def from_values(cls, values, episodic_return):
        values = np.asarray(values, dtype=np.float64)
        # a left-to-right sum, as cumsum adds; not pairwise like np.sum
        composite = float(np.cumsum(values)[-1]) if values.size else 0.0
        return cls(values, composite, episodic_return - composite)


class ReturnNormalizer:
    """Running mean/std of episodic returns used to standardize targets."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, returns):
        for r in np.atleast_1d(returns):
            self.count += 1
            delta = r - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (r - self.mean)

    @property
    def std(self):
        if self.count < 2:
            return 1.0
        return max(float(np.sqrt(self._m2 / self.count)), 1e-6)

    def normalize(self, r):
        return (r - self.mean) / self.std

    def state(self):
        return {"count": self.count, "mean": self.mean, "m2": self._m2}

    @classmethod
    def from_state(cls, state):
        out = cls()
        out.count = state["count"]
        out.mean = state["mean"]
        out._m2 = state["m2"]
        return out


# ---------------------------------------------------------------------------
# predictor architectures
#
# `forward(x, lengths, at=None)` maps the stacked input rows x, an (N, d)
# array, of trajectories with the given lengths to its activations by name,
# among them the per-interval rewards "rhat" (N, 1), row for row; `at` is
# `_kernels.segment_index(lengths)`, if the caller has it. `backward(a, g,
# out=None)` takes those activations and the gradient g (N, 1) at "rhat"
# and returns the gradient per parameter name, written into the blocks of
# `out`, a `Layout.blocks` dict, if given. The closed forms make the tape's
# float ops in the tape's order, so they are bit-identical to the tapes in
# tests/reference_predictors.py.


def _plus_head(a, b):
    """a with b added to its first len(b) rows; None adds nothing."""
    if b is None:
        return a
    out = a.copy()
    out[: len(b)] += b
    return out


class FeedForwardPredictor(nn.TanhMlp):
    """Per-step MLP: interval i sees (s_i, a_i) only. Singleton intervals."""

    architecture = "ff"
    kind = "singletons"

    def __init__(self, input_dim, rng):
        super().__init__(rng, input_dim, WIDTHS["ff_channels"], {"head": 1}, prefix="l",
                         head_scale=1.0)
        self.input_dim = input_dim

    def forward(self, x, lengths, at=None):
        """`TanhMlp.forward`, with the head's output also under "rhat". Rows
        are independent, so lengths and at are not read."""
        a = super().forward(x)
        a["rhat"] = a["head"]
        return a

    def backward(self, a, g, out=None):
        if out is None:
            return super().backward(a, {"head": g})
        self.flat_grad(a, {"head": g}, {}, blocks=out)
        return out


class RecurrentPredictor:
    """Shared embedding into an LSTM run forward in time; the hidden states
    0..i are mean-pooled before the regression head. Prefix intervals."""

    architecture = "recurrent"
    kind = "prefixes"

    def __init__(self, input_dim, rng):
        self.input_dim = input_dim
        self.embed_dim = WIDTHS["embed"]
        self.hidden_dim = WIDTHS["lstm_hidden"]
        ew, eb = nn.init_linear(rng, input_dim, self.embed_dim)
        cell = nn.lstm_params(rng, self.embed_dim, self.hidden_dim)
        hw, hb = nn.init_linear(rng, self.hidden_dim, 1)
        self.params = {
            "embed_w": ew,
            "embed_b": eb,
            "lstm_w": cell["w"],
            "lstm_b": cell["b"],
            "head_w": hw,
            "head_b": hb,
        }

    def forward(self, x, lengths, at=None):
        """Activations by name, among them the rewards "rhat" (N, 1). All
        trajectories step together, longest first; at is not read.

        The rows are reordered time-major ("order"): step t holds the n_t
        trajectories still running, so the state is narrowed to its first
        n_t rows as trajectories end. A running sum divided by t + 1
        mean-pools h_0..h_t. The head's outputs go back to stacked order.
        """
        lengths = np.asarray(lengths)
        starts = np.cumsum(lengths) - lengths
        by_length = np.argsort(-lengths, kind="stable")
        active = [int(np.count_nonzero(lengths > t)) for t in range(int(lengths.max()))]
        order = np.concatenate([starts[by_length[:n]] + t for t, n in enumerate(active)])
        p, e, hd = self.params, self.embed_dim, self.hidden_dim
        mm, sigmoid = _kernels.matmul, _kernels.sigmoid
        a = {"order": order, "active": active, "steps": []}
        a["x"] = x[order]
        a["v"] = np.tanh(mm(a["x"], p["embed_w"]) + p["embed_b"])
        x_gates = mm(a["v"], p["lstm_w"][:e]) + p["lstm_b"]
        h = c = total = np.zeros((active[0], hd))
        rows = []
        offset = 0
        for t, n in enumerate(active):
            h, c, total = h[:n], c[:n], total[:n]
            s = x_gates[offset : offset + n] + mm(h, p["lstm_w"][e:])
            gates = (sigmoid(s[:, :hd]), sigmoid(s[:, hd : 2 * hd]),
                     np.tanh(s[:, 2 * hd : 3 * hd]), sigmoid(s[:, 3 * hd :]))
            i, f, g, o = gates
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            a["steps"].append((h, c, gates, tanh_c))
            h, c = o * tanh_c, c_next
            offset += n
            total = total + h
            rows.append(total * (1.0 / (t + 1)))
        a["pooled"] = np.concatenate(rows)
        a["rhat"] = (mm(a["pooled"], p["head_w"]) + p["head_b"])[np.argsort(order)]
        return a

    def backward(self, a, g, out=None):
        """Backpropagation through time, from the last step to the first.
        The recurrent weights' gradient sums the steps' in that order."""
        p, e, hd = self.params, self.embed_dim, self.hidden_dim
        mm = _kernels.matmul
        g = g[a["order"]]
        grads = {} if out is None else out
        w = grads.get  # a gradient's block, None for a fresh array
        grads["head_w"] = mm(a["pooled"].T, g, out=w("head_w"))
        grads["head_b"] = g.sum(axis=0, out=w("head_b"))
        g_rows = mm(g, p["head_w"].T)
        # gradients at the gate pre-activations, time-major like x_gates
        g_gates = np.empty((len(g), 4 * hd))
        g_h = g_c = g_total = g_wh = None
        end = len(g)
        for t in range(len(a["active"]) - 1, -1, -1):
            h_prev, c_prev, (i, f, gc, o), tanh_c = a["steps"][t]
            start = end - len(h_prev)
            g_t = g_total = _plus_head(g_rows[start:end] * (1.0 / (t + 1)), g_total)
            g_t = _plus_head(g_t, g_h)
            g_ct = _plus_head(_kernels.tanh_vjp(tanh_c, g_t * o), g_c)
            d = g_gates[start:end]
            d[:, :hd] = _kernels.sigmoid_vjp(i, g_ct * gc)
            d[:, hd : 2 * hd] = _kernels.sigmoid_vjp(f, g_ct * c_prev)
            d[:, 2 * hd : 3 * hd] = _kernels.tanh_vjp(gc, g_ct * i)
            d[:, 3 * hd :] = _kernels.sigmoid_vjp(o, g_t * tanh_c)
            g_wh = mm(h_prev.T, d) if g_wh is None else g_wh + mm(h_prev.T, d)
            g_h, g_c = mm(d, p["lstm_w"][e:].T), g_ct * f
            end = start
        grads["lstm_b"] = g_gates.sum(axis=0, out=w("lstm_b"))
        grads["lstm_w"] = np.concatenate([mm(a["v"].T, g_gates), g_wh], out=w("lstm_w"))
        g_embed = _kernels.tanh_vjp(a["v"], mm(g_gates, p["lstm_w"][:e].T))
        grads["embed_w"] = mm(a["x"].T, g_embed, out=w("embed_w"))
        grads["embed_b"] = g_embed.sum(axis=0, out=w("embed_b"))
        return grads


@functools.lru_cache(maxsize=None)
def _causal_mask(t_len):
    """The read-only (T, T) mask of entries on or below the diagonal."""
    mask = np.tril(np.ones((t_len, t_len), dtype=bool))
    mask.flags.writeable = False
    return mask


def causal_attention(q, k, v, lengths, n_heads, at=None):
    """Multi-head causal self-attention inside each segment of stacked rows.

    q, k (N, n_heads * dk) and v (N, n_heads * dv) are arrays holding the
    rows of B segments of the given lengths, one after another. Row i of a
    segment attends to rows 0..i of the same segment only, with scores
    q k^T / sqrt(dk). Returns the head outputs (N, n_heads * dv), side by
    side; the attention weights (B, n_heads, T, T), T the longest length,
    where row i of segment b holds weights on its first i + 1 columns only;
    and the map from the outputs' gradient to those of q, k and v. `at` is
    `_kernels.segment_index(lengths)`, if the caller has it.

    The segments are scattered into zero-padded (B, T, n_heads, .) blocks at
    the flat row index b * T + t, and their (B, n_heads, T, .) views make
    every segment and head one batched matmul under one causal mask: a real
    row never reaches a padded column, which lies after it. Padded rows get
    weights too, but their outputs are dropped and get no gradient. The
    products that return to stacked rows are written into such blocks and
    read back by the same index.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    n = q.shape[0]
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n:
        raise _kernels.ShapeError(f"causal_attention: lengths {lengths.tolist()} for {n} rows")
    if k.shape != q.shape or v.shape[0] != n or q.shape[1] % n_heads or v.shape[1] % n_heads:
        raise _kernels.ShapeError(
            f"causal_attention: q {q.shape}, k {k.shape}, v {v.shape}, {n_heads} heads"
        )
    dk, dv = q.shape[1] // n_heads, v.shape[1] // n_heads
    b, t = lengths.size, int(lengths.max())
    seg, pos = _kernels.segment_index(lengths) if at is None else at
    rows = seg * t + pos

    def pad(x, width):
        out = np.zeros((b * t, n_heads * width))
        out[rows] = x
        return out.reshape(b, t, n_heads, width).transpose(0, 2, 1, 3)

    def stacked_product(x, y, width):
        out = np.empty((b, t, n_heads, width))
        np.matmul(x, y, out=out.transpose(0, 2, 1, 3))
        return out.reshape(b * t, n_heads * width).take(rows, axis=0)

    inv_sqrt = 1.0 / np.sqrt(dk)
    qp, kp, vp = pad(q, dk), pad(k, dk), pad(v, dv)
    scores = np.matmul(qp, kp.transpose(0, 1, 3, 2))
    p = _kernels.softmax_rows(np.multiply(scores, inv_sqrt, out=scores), _causal_mask(t))
    p.flags.writeable = False

    def vjp(g):
        gp = pad(g, dv)
        ds = _kernels.softmax_rows_vjp(p, np.matmul(gp, vp.transpose(0, 1, 3, 2)))
        np.multiply(ds, inv_sqrt, out=ds)
        return (
            stacked_product(ds, kp, dk),
            stacked_product(ds.transpose(0, 1, 3, 2), qp, dk),
            stacked_product(p.transpose(0, 1, 3, 2), gp, dv),
        )

    return stacked_product(p, vp, dv), p, vjp


class AttentionPredictor:
    """Causally masked single-layer attention encoder with importance pooling.

    Pipeline per trajectory: shared embedding v_t plus a sinusoidal
    position signal, one encoder layer (multi-head causal self-attention,
    residual, layer norm, position-wise feed-forward, residual, layer norm)
    giving h_t, an importance gate z = sigmoid(w_s2 tanh(W_s1 H^T)), and a
    linear head on h*_t = z_t h_t.
    """

    architecture = "attention"
    kind = "prefixes"

    def __init__(self, input_dim, rng):
        self.input_dim = input_dim
        d = WIDTHS["embed"]
        self.embed_dim = d
        self.n_heads = WIDTHS["heads"]
        self.qk_dim = WIDTHS["qk"]
        self.head_dim = d // self.n_heads
        self.ff_hidden = WIDTHS["ff_hidden"]
        self.pool_dim = WIDTHS["pool"]
        p = {}
        p["embed_w"], p["embed_b"] = nn.init_linear(rng, input_dim, d)
        p["wq"], _ = nn.init_linear(rng, d, self.n_heads * self.qk_dim)
        p["wk"], _ = nn.init_linear(rng, d, self.n_heads * self.qk_dim)
        p["wv"], _ = nn.init_linear(rng, d, self.n_heads * self.head_dim)
        p["wo"], p["bo"] = nn.init_linear(rng, self.n_heads * self.head_dim, d)
        p["ln1_g"], p["ln1_b"] = nn.read_only(np.ones(d)), nn.read_only(np.zeros(d))
        p["ff1_w"], p["ff1_b"] = nn.init_linear(rng, d, self.ff_hidden)
        p["ff2_w"], p["ff2_b"] = nn.init_linear(rng, self.ff_hidden, d)
        p["ln2_g"], p["ln2_b"] = nn.read_only(np.ones(d)), nn.read_only(np.zeros(d))
        p["pool_w1"], _ = nn.init_linear(rng, d, self.pool_dim)
        p["pool_w2"], _ = nn.init_linear(rng, self.pool_dim, 1)
        p["head_w"], p["head_b"] = nn.init_linear(rng, d, 1)
        self.params = p

    def forward(self, x, lengths, at=None):
        """Activations by name, among them the rewards "rhat" (N, 1), the
        importance "z" (N, 1) and the attention weights "attn" (B, heads,
        T, T). Positions, from 0 in each trajectory, are added after
        "embed", which thus depends on (s, a) alone."""
        p = self.params
        lengths = np.asarray(lengths)
        at = _kernels.segment_index(lengths) if at is None else at
        mm = _kernels.matmul
        v = np.tanh(mm(x, p["embed_w"]) + p["embed_b"])
        a = {"x": x, "embed": v}
        pos = nn.sinusoidal_positions(int(lengths.max()), self.embed_dim)
        a["v"] = v = v + pos[at[1]]
        a["heads"], a["attn"], a["attn_vjp"] = causal_attention(
            mm(v, p["wq"]), mm(v, p["wk"]), mm(v, p["wv"]), lengths, self.n_heads, at
        )
        mixed = mm(a["heads"], p["wo"]) + p["bo"]
        a["ln1"] = _kernels.layer_norm_rows(v + mixed, p["ln1_g"], p["ln1_b"], 1e-5)
        a["u"] = a["ln1"][0]
        a["f"] = np.tanh(mm(a["u"], p["ff1_w"]) + p["ff1_b"])
        ff = mm(a["f"], p["ff2_w"]) + p["ff2_b"]
        a["ln2"] = _kernels.layer_norm_rows(a["u"] + ff, p["ln2_g"], p["ln2_b"], 1e-5)
        hs = a["hs"] = a["ln2"][0]
        # importance gate z = sigmoid(w_s2 tanh(W_s1 H^T)), head on z_t h_t
        a["pool"] = np.tanh(mm(hs, p["pool_w1"]))
        a["z"] = _kernels.sigmoid(mm(a["pool"], p["pool_w2"]))
        a["pooled"] = hs * a["z"]
        a["rhat"] = mm(a["pooled"], p["head_w"]) + p["head_b"]
        return a

    def backward(self, a, g, out=None):
        p = self.params
        mm = _kernels.matmul
        grads = {} if out is None else out
        w = grads.get  # a gradient's block, None for a fresh array
        grads["head_w"] = mm(a["pooled"].T, g, out=w("head_w"))
        grads["head_b"] = g.sum(axis=0, out=w("head_b"))
        g_pooled = mm(g, p["head_w"].T)
        g_gate = _kernels.sigmoid_vjp(a["z"], (g_pooled * a["hs"]).sum(axis=1).reshape(-1, 1))
        grads["pool_w2"] = mm(a["pool"].T, g_gate, out=w("pool_w2"))
        g_pool = _kernels.tanh_vjp(a["pool"], mm(g_gate, p["pool_w2"].T))
        grads["pool_w1"] = mm(a["hs"].T, g_pool, out=w("pool_w1"))
        g_hs = np.add(g_pooled * a["z"], mm(g_pool, p["pool_w1"].T), out=g_pooled)

        g_r2, grads["ln2_g"], grads["ln2_b"] = _kernels.layer_norm_rows_vjp(
            *a["ln2"][1:], p["ln2_g"], g_hs, out=(w("ln2_g"), w("ln2_b"))
        )
        grads["ff2_w"] = mm(a["f"].T, g_r2, out=w("ff2_w"))
        grads["ff2_b"] = g_r2.sum(axis=0, out=w("ff2_b"))
        d_f = _kernels.tanh_vjp(a["f"], mm(g_r2, p["ff2_w"].T))
        grads["ff1_w"] = mm(a["u"].T, d_f, out=w("ff1_w"))
        grads["ff1_b"] = d_f.sum(axis=0, out=w("ff1_b"))
        g_r1, grads["ln1_g"], grads["ln1_b"] = _kernels.layer_norm_rows_vjp(
            *a["ln1"][1:], p["ln1_g"], np.add(g_r2, mm(d_f, p["ff1_w"].T), out=g_r2),
            out=(w("ln1_g"), w("ln1_b")),
        )
        grads["wo"] = mm(a["heads"].T, g_r1, out=w("wo"))
        grads["bo"] = g_r1.sum(axis=0, out=w("bo"))
        # v reaches the loss through the residual, q, k and v; the tape sums
        # their gradients in that order, here into g_r1.
        g_v = g_r1
        for name, g_in in zip(("wq", "wk", "wv"), a["attn_vjp"](mm(g_r1, p["wo"].T))):
            grads[name] = mm(a["v"].T, g_in, out=w(name))
            np.add(g_v, mm(g_in, p[name].T), out=g_v)
        g_embed = _kernels.tanh_vjp(a["embed"], g_v)
        grads["embed_w"] = mm(a["x"].T, g_embed, out=w("embed_w"))
        grads["embed_b"] = g_embed.sum(axis=0, out=w("embed_b"))
        return grads


# The predictor class of each architecture; each class's `kind` is the
# interval kind it scores.
PREDICTORS = {
    cls.architecture: cls for cls in (FeedForwardPredictor, RecurrentPredictor, AttentionPredictor)
}


def make_predictor(architecture, input_dim, rng):
    if architecture not in PREDICTORS:
        raise ValueError(f"unknown architecture {architecture!r}")
    return PREDICTORS[architecture](input_dim, rng)


def predictor_from_checkpoint(params, meta):
    """Rebuild a predictor from checkpoint contents (see rdecomp.checkpoint).
    A checkpoint of a model that is no longer built (without positions, or
    at other widths) raises ValueError."""
    hp = meta["hyperparams"]
    for key, fixed in _RETIRED_HYPERPARAMS.items():
        value = hp.get(key, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ValueError(
                f"checkpoint predictor has {key}={value!r}; only {key}={fixed!r} is supported"
            )
    model = make_predictor(meta["architecture"], hp["input_dim"], np.random.default_rng(0))
    missing = set(model.params) ^ set(params)
    if missing:
        raise ValueError(f"checkpoint parameter mismatch: {sorted(missing)}")
    model.params = params
    return model


# ---------------------------------------------------------------------------
# prediction and regression


def input_rows(model, batch):
    """The batch's (N, input_dim) input rows: each trajectory's (state,
    action) rows, stacked in batch order.

    Discrete actions are one-hot encoded to the width the model's input
    leaves after the state, so a trajectory that never took the last action
    still encodes to the model's width.
    """
    states = np.concatenate([traj.states for traj in batch])
    actions = np.concatenate([traj.actions for traj in batch])
    if batch[0].discrete:
        onehot = np.zeros((len(actions), model.input_dim - states.shape[1]))
        onehot[np.arange(len(actions)), actions] = 1.0
        actions = onehot
    return np.concatenate([states, actions], axis=1)


def destandardize(values, lengths, normalizer):
    """Map the stacked standardized-scale outputs of trajectories with the
    given lengths back to return units, causally.

    Every interval gets std * r_i, and each trajectory's interval 0 also
    gets the whole mean, so its composite matches the raw-return scale
    while interval i still depends on steps 0..i alone.
    """
    values = normalizer.std * np.asarray(values, dtype=np.float64)
    values[np.cumsum(lengths) - lengths] += normalizer.mean
    return values


def predict(model, batch, normalizer=None):
    """Decompose every trajectory of a batch into per-interval rewards.

    One forward pass over the batch's stacked rows; returns one
    RewardDecomposition per trajectory, in order, whose `per_interval` is a
    view of one read-only array of the batch's rewards. With a normalizer,
    those rewards are mapped back to return units by `destandardize`. The
    composites are the last entries of one row-wise `np.cumsum` over the
    zero-padded (B, T) block of rewards: each row is summed left to right,
    as `RewardDecomposition.from_values` sums one trajectory.
    """
    lengths = np.array([traj.length for traj in batch])
    rewards = model.forward(input_rows(model, batch), lengths)["rhat"].reshape(-1)
    if normalizer is not None:
        rewards = destandardize(rewards, lengths, normalizer)
    rewards.flags.writeable = False
    sums = np.cumsum(_kernels.pad_segments(rewards, lengths), axis=1)
    composites = sums[np.arange(len(batch)), lengths - 1]
    residuals = np.array([traj.episodic_return for traj in batch]) - composites
    ends = np.cumsum(lengths)
    return [
        RewardDecomposition(rewards[end - n : end], composite, residual)
        for end, n, composite, residual in zip(
            ends.tolist(), lengths.tolist(), composites.tolist(), residuals.tolist()
        )
    ]


def regression_targets(batch, normalizer=None):
    """The episodic returns of a batch, standardized by the normalizer if given."""
    targets = np.array([traj.episodic_return for traj in batch])
    return targets if normalizer is None else normalizer.normalize(targets)


def regression_loss(rhat, lengths, targets, segment=None):
    """Sum over trajectories of (sum of its rewards - target)^2, given the
    stacked rewards rhat (N, 1), and the gradient at rhat, or None if the
    loss is not finite. A (B, N) 0/1 segment-sum matrix makes the B
    composites. `segment` is each row's trajectory,
    `_kernels.segment_index(lengths)[0]`, for a caller that already has it."""
    b = len(lengths)
    if segment is None:
        segment = np.repeat(np.arange(b), lengths)
    segment_sum = (segment[None, :] == np.arange(b)[:, None]).astype(np.float64)
    err = _kernels.matmul(segment_sum, rhat) - np.reshape(targets, (-1, 1))
    loss = float((err * err).sum())
    if not np.isfinite(loss):
        return loss, None
    return loss, _kernels.matmul(segment_sum.T, 2.0 * err)


def loss_grad(model, x, lengths, targets, out=None, blocks=None, at=None):
    """The `regression_loss` of the model on the stacked input rows x of
    trajectories with the given lengths and regression targets, and its
    flat gradient, written into `out` (a fresh vector if None) through
    `blocks`, its `nn.layout(model.params).blocks(out)` if the caller built
    them once; or None for it if the loss is not finite. One segment index
    serves the forward pass and the loss: `at`, the rows'
    `_kernels.segment_index(lengths)` if the caller has it."""
    lengths = np.asarray(lengths)
    if at is None:
        at = _kernels.segment_index(lengths)
    a = model.forward(x, lengths, at)
    loss, g = regression_loss(a["rhat"], lengths, targets, at[0])
    if g is None:
        return loss, None
    if blocks is None:
        lay = nn.layout(model.params)
        out = np.empty(lay.size) if out is None else out
        blocks = lay.blocks(out)
    model.backward(a, g, blocks)
    return loss, out


def regression_step(model, x, lengths, targets, optimizer, out=None, blocks=None, at=None,
                    rest=None):
    """One update of the predictor by `optimizer` on the stacked input rows
    x of trajectories with the given lengths and regression targets, its
    gradient written as `loss_grad` writes it, from the segment index `at`
    if given; returns the loss.

    `rest`, if given, returns the loss and flat gradient of the minibatch's
    other trajectories, as `loss_grad` does; it is called after this
    group's `loss_grad`, whatever that gave. The loss is then the two
    losses' sum, and the other gradient is added into this one: the
    regression loss is a sum over trajectories. A non-finite loss, of
    either group or of the sum, aborts with the offending value before any
    parameter is touched."""
    if len(lengths) == 0:
        raise ValueError("regression_step: empty batch")
    loss, grad = loss_grad(model, x, lengths, targets, out, blocks, at)
    if rest is not None:
        rest_loss, rest_grad = rest()
        loss += rest_loss
        if rest_grad is None or not np.isfinite(loss):
            grad = None
        elif grad is not None:
            grad += rest_grad
    if grad is None:
        raise FloatingPointError(f"regression loss is non-finite ({loss})")
    (model.params,) = optimizer.step([model.params], grad)
    return loss
