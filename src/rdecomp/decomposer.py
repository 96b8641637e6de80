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
`backward`; none builds a tape.

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

from dataclasses import dataclass

import numpy as np

from rdecomp import _kernels
from rdecomp import autodiff as ad
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
# `forward(x, lengths)` maps the stacked input rows x, an (N, d) array, of
# trajectories with the given lengths to its activations by name, among
# them the per-interval rewards "rhat" (N, 1), row for row.
# `backward(a, g)` takes those activations and the gradient g (N, 1) at
# "rhat" and returns the gradient per parameter name. The closed forms make
# the tape's float ops in the tape's order, so they are bit-identical to the
# tapes in tests/reference_predictors.py.


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

    def forward(self, x, lengths):
        """`TanhMlp.forward`, with the head's output also under "rhat". Rows
        are independent, so the lengths are not read."""
        a = super().forward(x)
        a["rhat"] = a["head"]
        return a

    def backward(self, a, g):
        return super().backward(a, {"head": g})


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

    def forward(self, x, lengths):
        """Activations by name, among them the rewards "rhat" (N, 1). All
        trajectories step together, longest first.

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
        a["x"], a["v"] = ad.tanh_mlp_layers(x[order], [p["embed_w"]], [p["embed_b"]])
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

    def backward(self, a, g):
        """Backpropagation through time, from the last step to the first.
        The recurrent weights' gradient sums the steps' in that order."""
        p, e, hd = self.params, self.embed_dim, self.hidden_dim
        mm = _kernels.matmul
        g = g[a["order"]]
        grads = {"head_w": mm(a["pooled"].T, g), "head_b": g.sum(axis=0)}
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
        grads["lstm_b"] = g_gates.sum(axis=0)
        grads["lstm_w"] = np.concatenate([mm(a["v"].T, g_gates), g_wh])
        embed, _ = ad.tanh_mlp_grads([a["x"], a["v"]], [p["embed_w"]],
                                     mm(g_gates, p["lstm_w"][:e].T), ["embed"])
        grads.update(embed)
        return grads


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

    def forward(self, x, lengths):
        """Activations by name, among them the rewards "rhat" (N, 1), the
        importance "z" (N, 1) and the attention weights "attn" (B, heads,
        T, T). Positions, from 0 in each trajectory, are added after
        "embed", which thus depends on (s, a) alone."""
        p = self.params
        lengths = np.asarray(lengths)
        mm = _kernels.matmul
        v = ad.tanh_mlp_layers(x, [p["embed_w"]], [p["embed_b"]])[1]
        a = {"x": x, "embed": v}
        pos = nn.sinusoidal_positions(int(lengths.max()), self.embed_dim)
        a["v"] = v = v + pos[ad.segment_positions(lengths)]
        a["heads"], a["attn"], a["attn_vjp"] = ad.causal_attention(
            mm(v, p["wq"]), mm(v, p["wk"]), mm(v, p["wv"]), lengths, self.n_heads
        )
        mixed = mm(a["heads"], p["wo"]) + p["bo"]
        a["ln1"] = _kernels.layer_norm_rows(v + mixed, p["ln1_g"], p["ln1_b"], 1e-5)
        a["u"], a["f"] = ad.tanh_mlp_layers(a["ln1"][0], [p["ff1_w"]], [p["ff1_b"]])
        ff = mm(a["f"], p["ff2_w"]) + p["ff2_b"]
        a["ln2"] = _kernels.layer_norm_rows(a["u"] + ff, p["ln2_g"], p["ln2_b"], 1e-5)
        hs = a["hs"] = a["ln2"][0]
        # importance gate z = sigmoid(w_s2 tanh(W_s1 H^T)), head on z_t h_t
        a["pool"] = np.tanh(mm(hs, p["pool_w1"]))
        a["z"] = _kernels.sigmoid(mm(a["pool"], p["pool_w2"]))
        a["pooled"] = hs * a["z"]
        a["rhat"] = mm(a["pooled"], p["head_w"]) + p["head_b"]
        return a

    def backward(self, a, g):
        p = self.params
        mm = _kernels.matmul
        grads = {"head_w": mm(a["pooled"].T, g), "head_b": g.sum(axis=0)}
        g_pooled = mm(g, p["head_w"].T)
        g_gate = _kernels.sigmoid_vjp(a["z"], (g_pooled * a["hs"]).sum(axis=1).reshape(-1, 1))
        grads["pool_w2"] = mm(a["pool"].T, g_gate)
        g_pool = _kernels.tanh_vjp(a["pool"], mm(g_gate, p["pool_w2"].T))
        grads["pool_w1"] = mm(a["hs"].T, g_pool)
        g_hs = g_pooled * a["z"] + mm(g_pool, p["pool_w1"].T)

        g_r2, grads["ln2_g"], grads["ln2_b"] = _kernels.layer_norm_rows_vjp(
            *a["ln2"][1:], p["ln2_g"], g_hs
        )
        grads["ff2_w"], grads["ff2_b"] = mm(a["f"].T, g_r2), g_r2.sum(axis=0)
        ff1, d_f = ad.tanh_mlp_grads([a["u"], a["f"]], [p["ff1_w"]],
                                     mm(g_r2, p["ff2_w"].T), ["ff1"])
        grads.update(ff1)
        g_r1, grads["ln1_g"], grads["ln1_b"] = _kernels.layer_norm_rows_vjp(
            *a["ln1"][1:], p["ln1_g"], g_r2 + mm(d_f, p["ff1_w"].T)
        )
        grads["wo"], grads["bo"] = mm(a["heads"].T, g_r1), g_r1.sum(axis=0)
        # v reaches the loss through the residual, q, k and v; the tape sums
        # their gradients in that order.
        g_v = g_r1
        for name, g_in in zip(("wq", "wk", "wv"), a["attn_vjp"](mm(g_r1, p["wo"].T))):
            grads[name] = mm(a["v"].T, g_in)
            g_v = g_v + mm(g_in, p[name].T)
        embed, _ = ad.tanh_mlp_grads([a["x"], a["embed"]], [p["embed_w"]], g_v, ["embed"])
        grads.update(embed)
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
    """Each trajectory's (T, input_dim) input rows, in a list.

    Discrete actions are one-hot encoded to the width the model's input
    leaves after the state, so a trajectory that never took the last action
    still encodes to the model's width.
    """
    n_actions = model.input_dim - batch[0].states.shape[1]
    return [traj.input_matrix(n_actions) for traj in batch]


def destandardize(values, normalizer):
    """Map standardized-scale outputs back to return units, causally.

    Interval i gets std * r_i, and interval 0 also gets the whole mean, so
    the composite matches the raw-return scale while interval i still
    depends on steps 0..i alone.
    """
    values = normalizer.std * np.asarray(values, dtype=np.float64)
    values[0] += normalizer.mean
    return values


def predict(model, batch, normalizer=None):
    """Decompose every trajectory of a batch into per-interval rewards.

    One forward pass over the whole batch; returns one RewardDecomposition
    per trajectory, in order. With a normalizer, the model's
    standardized-scale outputs are mapped back to return units by
    `destandardize`.
    """
    x = np.concatenate(input_rows(model, batch))
    rewards = model.forward(x, [traj.length for traj in batch])["rhat"].reshape(-1)
    out = []
    start = 0
    for traj in batch:
        values = rewards[start : start + traj.length]
        start += traj.length
        if normalizer is not None:
            values = destandardize(values, normalizer)
        out.append(RewardDecomposition.from_values(values, traj.episodic_return))
    return out


def regression_targets(batch, normalizer=None):
    """The episodic returns of a batch, standardized by the normalizer if given."""
    targets = np.array([traj.episodic_return for traj in batch])
    return targets if normalizer is None else normalizer.normalize(targets)


def regression_loss(rhat, lengths, targets):
    """Sum over trajectories of (sum of its rewards - target)^2, given the
    stacked rewards rhat (N, 1), and the gradient at rhat, or None if the
    loss is not finite. A (B, N) 0/1 segment-sum matrix makes the B
    composites."""
    b = len(lengths)
    segment = np.repeat(np.arange(b), lengths)
    segment_sum = (segment[None, :] == np.arange(b)[:, None]).astype(np.float64)
    err = _kernels.matmul(segment_sum, rhat) - np.reshape(targets, (-1, 1))
    loss = float((err * err).sum())
    if not np.isfinite(loss):
        return loss, None
    return loss, _kernels.matmul(segment_sum.T, 2.0 * err)


def loss_grad(model, x, lengths, targets):
    """The `regression_loss` of the model on the stacked input rows x of
    trajectories with the given lengths and regression targets, and its
    flat gradient, or None for it if the loss is not finite."""
    a = model.forward(x, lengths)
    loss, g = regression_loss(a["rhat"], lengths, targets)
    if g is None:
        return loss, None
    return loss, nn.flatten_arrays(model.params, model.backward(a, g))


def regression_step(model, x, lengths, targets, optimizer):
    """One update of the predictor by `optimizer` on the stacked input rows
    x of trajectories with the given lengths and regression targets;
    returns the loss. A non-finite loss aborts with the offending value
    before any parameter is touched."""
    if len(lengths) == 0:
        raise ValueError("regression_step: empty batch")
    loss, grad = loss_grad(model, x, lengths, targets)
    if grad is None:
        raise FloatingPointError(f"regression loss is non-finite ({loss})")
    model.params = optimizer.step(model.params, grad)
    return loss
