"""Learned decomposition of episodic returns over time intervals.

A predictor maps a trajectory to one scalar surrogate reward per interval.
Two interval families are supported, both indexed so that interval i ends
at step i (max index i):

  singletons: interval i covers step i alone
  prefixes:   interval i covers steps 0..i

Three architectures mirror the usual sequence-model ladder. The per-step
feed-forward net handles singletons only; the recurrent and attention
variants are causal, so their output for interval i is a function of steps
0..i exactly — perturbing any later step changes nothing.

Every predictor runs on a batch at once: the rows of B trajectories are
stacked into one (N, d) matrix and passed with the segment lengths, so a
regression minibatch is one tape and `predict` is one forward pass over a
list of trajectories, for the trainer and the oracle alike.

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

from rdecomp import autodiff as ad
from rdecomp import nn

VALID_KINDS = ("singletons", "prefixes")

# Layer widths at the two scales. "paper" is the published configuration;
# "desk" halves every width for the small benchmark environments.
WIDTHS = {
    "paper": {
        "embed": 64,
        "heads": 4,
        "qk": 32,
        "ff_hidden": 128,
        "pool": 64,
        "lstm_hidden": 96,
        "ff_channels": [128, 128, 128, 256],
    },
    "desk": {
        "embed": 32,
        "heads": 4,
        "qk": 16,
        "ff_hidden": 64,
        "pool": 32,
        "lstm_hidden": 48,
        "ff_channels": [64, 64, 64, 128],
    },
}


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
# `reward_sequence(x, kind, lengths)` maps stacked input rows x (N, d) of
# trajectories with the given lengths (default: x is one trajectory) to the
# per-interval rewards (N, 1), row for row.


def _segment_lengths(x, lengths):
    return np.array([x.shape[0]] if lengths is None else lengths, dtype=np.intp)


class FeedForwardPredictor:
    """Per-step MLP: interval i sees (s_i, a_i) only. Singleton intervals."""

    architecture = "ff"

    def __init__(self, input_dim, rng, scale="desk"):
        widths = WIDTHS[scale]
        channels = widths["ff_channels"]
        self.input_dim = input_dim
        self.scale = scale
        params = {}
        dims = [input_dim] + channels
        for i in range(len(channels)):
            w, b = nn.init_linear(rng, dims[i], dims[i + 1])
            params[f"l{i}_w"], params[f"l{i}_b"] = w, b
        params["head_w"], params["head_b"] = nn.init_linear(rng, channels[-1], 1)
        self.params = params
        self.n_layers = len(channels)

    def supports(self, kind):
        return kind == "singletons"

    def reward_sequence(self, x, kind="singletons", lengths=None):
        """Rows are independent, so the segment lengths are not needed."""
        h = x
        for i in range(self.n_layers):
            h = ad.tanh(nn.linear(h, self.params[f"l{i}_w"], self.params[f"l{i}_b"]))
        return nn.linear(h, self.params["head_w"], self.params["head_b"])

    def hyperparams(self):
        return {"input_dim": self.input_dim, "scale": self.scale}


class RecurrentPredictor:
    """Shared embedding into an LSTM run forward in time.

    For prefix intervals the hidden states 0..i are mean-pooled before the
    regression head; for singletons the head reads h_i directly.
    """

    architecture = "recurrent"

    def __init__(self, input_dim, rng, scale="desk"):
        widths = WIDTHS[scale]
        self.input_dim = input_dim
        self.scale = scale
        self.embed_dim = widths["embed"]
        self.hidden_dim = widths["lstm_hidden"]
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

    def supports(self, kind):
        return kind in VALID_KINDS

    def reward_sequence(self, x, kind="prefixes", lengths=None):
        """All trajectories step together, longest first.

        The rows are reordered time-major: step t holds the n_t trajectories
        still running, so the state is narrowed to its first n_t rows as
        trajectories end. For prefixes, a running sum divided by t + 1
        mean-pools h_0..h_t. The head's outputs go back to stacked order.
        """
        lengths = _segment_lengths(x, lengths)
        starts = np.cumsum(lengths) - lengths
        by_length = np.argsort(-lengths, kind="stable")
        active = [int(np.count_nonzero(lengths > t)) for t in range(int(lengths.max()))]
        time_major = np.concatenate(
            [starts[by_length[:n]] + t for t, n in enumerate(active)]
        )
        p = self.params
        v = ad.tanh(nn.linear(ad.take_rows(x, time_major), p["embed_w"], p["embed_b"]))
        w_x = ad.narrow(p["lstm_w"], 0, 0, self.embed_dim)
        w_h = ad.narrow(p["lstm_w"], 0, self.embed_dim, self.embed_dim + self.hidden_dim)
        x_gates = nn.linear(v, w_x, p["lstm_b"])
        h = c = total = ad.constant(np.zeros((active[0], self.hidden_dim)))
        rows = []
        offset = 0
        for t, n in enumerate(active):
            if n < h.shape[0]:
                h, c, total = (ad.narrow(a, 0, 0, n) for a in (h, c, total))
            gates = ad.narrow(x_gates, 0, offset, offset + n)
            h, c = nn.lstm_step(gates, h, c, w_h, self.hidden_dim)
            offset += n
            if kind == "prefixes":
                total = ad.add(total, h)
                rows.append(ad.scale(total, 1.0 / (t + 1)))
            else:
                rows.append(h)
        out = nn.linear(ad.concat(rows, axis=0), p["head_w"], p["head_b"])
        return ad.take_rows(out, np.argsort(time_major))

    def hyperparams(self):
        return {"input_dim": self.input_dim, "scale": self.scale}


class AttentionPredictor:
    """Causally masked single-layer attention encoder with importance pooling.

    Pipeline per trajectory: shared embedding v_t (optionally plus a
    sinusoidal position signal), one encoder layer (multi-head causal
    self-attention, residual, layer norm, position-wise feed-forward,
    residual, layer norm) giving h_t, an importance gate
    z = sigmoid(w_s2 tanh(W_s1 H^T)), and a linear head on h*_t = z_t h_t.
    """

    architecture = "attention"

    def __init__(self, input_dim, rng, scale="desk", positional=True):
        widths = WIDTHS[scale]
        self.input_dim = input_dim
        self.scale = scale
        self.positional = positional
        d = widths["embed"]
        self.embed_dim = d
        self.n_heads = widths["heads"]
        self.qk_dim = widths["qk"]
        self.head_dim = d // self.n_heads
        self.ff_hidden = widths["ff_hidden"]
        self.pool_dim = widths["pool"]
        p = {}
        p["embed_w"], p["embed_b"] = nn.init_linear(rng, input_dim, d)
        p["wq"], _ = nn.init_linear(rng, d, self.n_heads * self.qk_dim)
        p["wk"], _ = nn.init_linear(rng, d, self.n_heads * self.qk_dim)
        p["wv"], _ = nn.init_linear(rng, d, self.n_heads * self.head_dim)
        p["wo"], p["bo"] = nn.init_linear(rng, self.n_heads * self.head_dim, d)
        p["ln1_g"] = ad.Tensor(np.ones(d))
        p["ln1_b"] = ad.Tensor(np.zeros(d))
        p["ff1_w"], p["ff1_b"] = nn.init_linear(rng, d, self.ff_hidden)
        p["ff2_w"], p["ff2_b"] = nn.init_linear(rng, self.ff_hidden, d)
        p["ln2_g"] = ad.Tensor(np.ones(d))
        p["ln2_b"] = ad.Tensor(np.zeros(d))
        p["pool_w1"], _ = nn.init_linear(rng, d, self.pool_dim)
        p["pool_w2"], _ = nn.init_linear(rng, self.pool_dim, 1)
        p["head_w"], p["head_b"] = nn.init_linear(rng, d, 1)
        self.params = p

    def supports(self, kind):
        return kind in VALID_KINDS

    def embed(self, x):
        """Shared per-step embedding; identical (s, a) pairs embed identically."""
        return ad.tanh(nn.linear(x, self.params["embed_w"], self.params["embed_b"]))

    def encode(self, v, lengths=None):
        """Encoder layer; returns (H, attention weights (B, heads, T, T)).

        The position signal enters here, not in `embed`, so the embedding
        stays a pure function of the state-action pair. Positions restart
        at 0 in every trajectory.
        """
        p = self.params
        lengths = _segment_lengths(v, lengths)
        if self.positional:
            pos = nn.sinusoidal_positions(int(lengths.max()), self.embed_dim)
            v = ad.add(v, ad.constant(pos[ad.segment_positions(lengths)]))
        heads, attn = ad.causal_attention(
            ad.matmul(v, p["wq"]), ad.matmul(v, p["wk"]), ad.matmul(v, p["wv"]),
            lengths, self.n_heads,
        )
        mixed = nn.linear(heads, p["wo"], p["bo"])
        u = ad.layer_norm(ad.add(v, mixed), p["ln1_g"], p["ln1_b"])
        ff = nn.linear(ad.tanh(nn.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
        return ad.layer_norm(ad.add(u, ff), p["ln2_g"], p["ln2_b"]), attn

    def importance(self, hs):
        """z_t in (0, 1) per step: sigmoid(w_s2 tanh(W_s1 H^T))."""
        return ad.sigmoid(
            ad.matmul(ad.tanh(ad.matmul(hs, self.params["pool_w1"])), self.params["pool_w2"])
        )

    def forward_full(self, x, lengths=None):
        """Returns (rewards (N, 1), z (N, 1), attention weights (B, heads, T, T))."""
        hs, attn = self.encode(self.embed(x), lengths)
        z = self.importance(hs)
        pooled = ad.scale_rows(hs, z)
        rhat = nn.linear(pooled, self.params["head_w"], self.params["head_b"])
        return rhat, z, attn

    def reward_sequence(self, x, kind="prefixes", lengths=None):
        return self.forward_full(x, lengths)[0]

    def hyperparams(self):
        return {
            "input_dim": self.input_dim,
            "scale": self.scale,
            "positional": self.positional,
        }


def make_predictor(architecture, input_dim, rng, scale="desk", positional=True):
    if architecture == "ff":
        return FeedForwardPredictor(input_dim, rng, scale)
    if architecture == "recurrent":
        return RecurrentPredictor(input_dim, rng, scale)
    if architecture == "attention":
        return AttentionPredictor(input_dim, rng, scale, positional)
    raise ValueError(f"unknown architecture {architecture!r}")


def predictor_from_checkpoint(params, meta):
    """Rebuild a predictor from checkpoint contents (see rdecomp.checkpoint)."""
    hp = meta["hyperparams"]
    rng = np.random.default_rng(0)
    model = make_predictor(
        meta["architecture"],
        hp["input_dim"],
        rng,
        hp.get("scale", "desk"),
        hp.get("positional", True),
    )
    missing = set(model.params) ^ set(params)
    if missing:
        raise ValueError(f"checkpoint parameter mismatch: {sorted(missing)}")
    model.params = params
    return model


# ---------------------------------------------------------------------------
# prediction and regression


def input_rows(model, batch):
    """Stacked (N, input_dim) input rows of a batch, and the lengths.

    Discrete actions are one-hot encoded to the width the model's input
    leaves after the state, so a trajectory that never took the last action
    still encodes to the model's width.
    """
    n_actions = model.input_dim - batch[0].states.shape[1]
    x = np.concatenate([traj.input_matrix(n_actions) for traj in batch], axis=0)
    return x, [traj.length for traj in batch]


def _reward_rows(model, batch, kind):
    if not model.supports(kind):
        raise ValueError(f"{model.architecture} predictor does not support {kind!r} intervals")
    x, lengths = input_rows(model, batch)
    return model.reward_sequence(ad.constant(x), kind, lengths), lengths


def destandardize(values, normalizer):
    """Map standardized-scale outputs back to return units, causally.

    Interval i gets std * r_i, and interval 0 also gets the whole mean, so
    the composite matches the raw-return scale while interval i still
    depends on steps 0..i alone.
    """
    values = normalizer.std * np.asarray(values, dtype=np.float64)
    values[0] += normalizer.mean
    return values


def predict(model, batch, kind, normalizer=None):
    """Decompose every trajectory of a batch into per-interval rewards.

    One forward pass over the whole batch; returns one RewardDecomposition
    per trajectory, in order. With a normalizer, the model's
    standardized-scale outputs are mapped back to return units by
    `destandardize`.
    """
    rewards = _reward_rows(model, batch, kind)[0].data.reshape(-1)
    out = []
    start = 0
    for traj in batch:
        values = rewards[start : start + traj.length]
        start += traj.length
        if normalizer is not None:
            values = destandardize(values, normalizer)
        out.append(RewardDecomposition.from_values(values, traj.episodic_return))
    return out


def regression_loss(model, batch, kind, normalizer=None):
    """Squared loss sum over batch of (sum r_hat - R)^2, on one tape.

    A (B, N) 0/1 segment-sum matrix turns the stacked rewards into the B
    composites.
    """
    rhat, lengths = _reward_rows(model, batch, kind)
    targets = np.array([traj.episodic_return for traj in batch])
    if normalizer is not None:
        targets = normalizer.normalize(targets)
    segment = np.repeat(np.arange(len(batch)), lengths)
    segment_sum = (segment[None, :] == np.arange(len(batch))[:, None]).astype(np.float64)
    err = ad.sub(ad.matmul(ad.constant(segment_sum), rhat), ad.constant(targets.reshape(-1, 1)))
    return ad.sum_all(ad.square(err))


def regression_step(model, batch, kind, optimizer, normalizer=None):
    """One update of the predictor by `optimizer`; returns the loss value.

    A non-finite loss aborts with the offending value before any parameter
    is touched.
    """
    if not batch:
        raise ValueError("regression_step: empty batch")
    loss = regression_loss(model, batch, kind, normalizer)
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError(f"regression loss is non-finite ({value})")
    grads = ad.backward(loss)
    model.params = optimizer.step(model.params, nn.flatten_grads(model.params, grads))
    return value
