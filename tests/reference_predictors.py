"""Tape references for the three reward predictors.

Two forms. The per-trajectory forward is one tape per trajectory, built
the plain way: a Python loop over attention heads with a masked softmax
each, and one LSTM run per trajectory with a lower-triangular averaging
matrix for prefix pooling. It reads a model's parameters and nothing else
of `decomposer`, so the batched forward can be checked against it.

The batched tape (`batched_rewards`, `loss_grad`) is the one the
predictors trained on before their closed forms: `decomposer.loss_grad`
must match it bit for bit. Parameters enter every tape as the leaves that
`tape_ops.leaves` makes of a model's parameter arrays.
"""

import numpy as np
import tape_ops as tape

from rdecomp import autodiff as ad
from rdecomp import decomposer, nn


def _ff(model, p, x):
    h = x
    for name in model.layers:
        h = tape.tanh(tape.linear(h, p[f"{name}_w"], p[f"{name}_b"]))
    return tape.linear(h, p["head_w"], p["head_b"])


def _recurrent(model, p, x):
    t_len = x.shape[0]
    v = tape.tanh(tape.linear(x, p["embed_w"], p["embed_b"]))
    hd = model.hidden_dim
    h = tape.constant(np.zeros((1, hd)))
    c = tape.constant(np.zeros((1, hd)))
    rows = []
    for t in range(t_len):
        stacked = tape.linear(tape.concat([tape.narrow(v, 0, t, t + 1), h], axis=1),
                              p["lstm_w"], p["lstm_b"])
        i_gate = tape.sigmoid(tape.narrow(stacked, 1, 0, hd))
        f_gate = tape.sigmoid(tape.narrow(stacked, 1, hd, 2 * hd))
        g_cell = tape.tanh(tape.narrow(stacked, 1, 2 * hd, 3 * hd))
        o_gate = tape.sigmoid(tape.narrow(stacked, 1, 3 * hd, 4 * hd))
        c = tape.add(tape.mul(f_gate, c), tape.mul(i_gate, g_cell))
        h = tape.mul(o_gate, tape.tanh(c))
        rows.append(h)
    hs = tape.concat(rows, axis=0)
    tri = np.tril(np.ones((t_len, t_len))) / np.arange(1, t_len + 1)[:, None]
    return tape.linear(tape.matmul(tape.constant(tri), hs), p["head_w"], p["head_b"])


def attention_encode(model, x, p=None):
    """Encoder output and the list of per-head (T, T) attention tensors."""
    p = tape.leaves(model.params) if p is None else p
    t_len = x.shape[0]
    v = tape.tanh(tape.linear(x, p["embed_w"], p["embed_b"]))
    v = tape.add(v, tape.constant(nn.sinusoidal_positions(t_len, model.embed_dim)))
    q_all = tape.matmul(v, p["wq"])
    k_all = tape.matmul(v, p["wk"])
    v_all = tape.matmul(v, p["wv"])
    causal = np.tril(np.ones((t_len, t_len), dtype=bool))
    dk, dv = model.qk_dim, model.head_dim
    heads, attns = [], []
    for h in range(model.n_heads):
        q = tape.narrow(q_all, 1, h * dk, (h + 1) * dk)
        k = tape.narrow(k_all, 1, h * dk, (h + 1) * dk)
        val = tape.narrow(v_all, 1, h * dv, (h + 1) * dv)
        scores = tape.scale(tape.matmul(q, tape.transpose(k)), 1.0 / np.sqrt(dk))
        attn = tape.softmax(scores, causal)
        attns.append(attn)
        heads.append(tape.matmul(attn, val))
    mixed = tape.linear(tape.concat(heads, axis=1), p["wo"], p["bo"])
    u = tape.layer_norm(tape.add(v, mixed), p["ln1_g"], p["ln1_b"])
    ff = tape.linear(tape.tanh(tape.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
    return tape.layer_norm(tape.add(u, ff), p["ln2_g"], p["ln2_b"]), attns


def _attention(model, p, x):
    hs, _ = attention_encode(model, x, p)
    z = tape.sigmoid(tape.matmul(tape.tanh(tape.matmul(hs, p["pool_w1"])), p["pool_w2"]))
    return tape.linear(tape.scale_rows(hs, z), p["head_w"], p["head_b"])


def reward_sequence(model, x, p=None):
    """Per-interval rewards (T, 1) of one trajectory's input rows x (T, d),
    on the leaves p (by default, fresh ones of the model's parameters)."""
    p = tape.leaves(model.params) if p is None else p
    if model.architecture == "ff":
        return _ff(model, p, x)
    if model.architecture == "recurrent":
        return _recurrent(model, p, x)
    return _attention(model, p, x)


def regression_loss(model, batch, normalizer=None):
    """Sum over the batch of (sum r_hat - R)^2, one tape per trajectory, and
    the parameter leaves it was built on."""
    p = tape.leaves(model.params)
    per_traj = []
    for traj in batch:
        x = tape.constant(traj.input_matrix())
        rhat = reward_sequence(model, x, p)
        target = traj.episodic_return
        if normalizer is not None:
            target = normalizer.normalize(target)
        per_traj.append(tape.square(tape.shift(tape.sum_all(rhat), -target)))
    return tape.sum_all(tape.concat(per_traj, axis=0)), p


def stacked(model, batch, normalizer=None):
    """(x, lengths, targets) of a batch, as `Trainer._regression_phase`
    passes them to `decomposer.regression_step`."""
    x = np.concatenate(decomposer.input_rows(model, batch))
    return x, [traj.length for traj in batch], decomposer.regression_targets(batch, normalizer)


def recurrent_rewards(model, p, x, lengths):
    """Batched tape of the recurrent predictor on stacked rows x (a Tensor).
    All trajectories step together, longest first.

    The rows are reordered time-major: step t holds the n_t trajectories
    still running, so the state is narrowed to its first n_t rows as
    trajectories end. A running sum divided by t + 1 mean-pools h_0..h_t.
    The head's outputs go back to stacked order.
    """
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    by_length = np.argsort(-lengths, kind="stable")
    active = [int(np.count_nonzero(lengths > t)) for t in range(int(lengths.max()))]
    time_major = np.concatenate([starts[by_length[:n]] + t for t, n in enumerate(active)])
    e, hd = model.embed_dim, model.hidden_dim
    v = tape.tanh(tape.linear(tape.take_rows(x, time_major), p["embed_w"], p["embed_b"]))
    w_x = tape.narrow(p["lstm_w"], 0, 0, e)
    w_h = tape.narrow(p["lstm_w"], 0, e, e + hd)
    x_gates = tape.linear(v, w_x, p["lstm_b"])
    h = c = total = tape.constant(np.zeros((active[0], hd)))
    rows = []
    offset = 0
    for t, n in enumerate(active):
        if n < h.shape[0]:
            h, c, total = (tape.narrow(a, 0, 0, n) for a in (h, c, total))
        gates = tape.narrow(x_gates, 0, offset, offset + n)
        h, c = tape.lstm_step(gates, h, c, w_h, hd)
        offset += n
        total = tape.add(total, h)
        rows.append(tape.scale(total, 1.0 / (t + 1)))
    out = tape.linear(tape.concat(rows, axis=0), p["head_w"], p["head_b"])
    return tape.take_rows(out, np.argsort(time_major))


def batched_rewards(model, x, lengths, p=None):
    """Batched tape forward of a predictor on stacked rows x (a Tensor):
    (rewards (N, 1), z (N, 1) or None, attention weights (B, heads, T, T)
    or None)."""
    p = tape.leaves(model.params) if p is None else p
    if model.architecture == "ff":
        return _ff(model, p, x), None, None
    if model.architecture == "recurrent":
        return recurrent_rewards(model, p, x, lengths), None, None
    lengths = np.asarray(lengths)
    v = tape.tanh(tape.linear(x, p["embed_w"], p["embed_b"]))
    pos = nn.sinusoidal_positions(int(lengths.max()), model.embed_dim)
    v = tape.add(v, tape.constant(pos[ad.segment_positions(lengths)]))
    heads, attn = tape.causal_attention(
        tape.matmul(v, p["wq"]), tape.matmul(v, p["wk"]), tape.matmul(v, p["wv"]),
        lengths, model.n_heads,
    )
    mixed = tape.linear(heads, p["wo"], p["bo"])
    u = tape.layer_norm(tape.add(v, mixed), p["ln1_g"], p["ln1_b"])
    ff = tape.linear(tape.tanh(tape.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
    hs = tape.layer_norm(tape.add(u, ff), p["ln2_g"], p["ln2_b"])
    z = tape.sigmoid(tape.matmul(tape.tanh(tape.matmul(hs, p["pool_w1"])), p["pool_w2"]))
    return tape.linear(tape.scale_rows(hs, z), p["head_w"], p["head_b"]), z, attn


def loss_grad(model, x, lengths, targets):
    """(loss, flat gradient) of the regression loss on one batched tape, with
    a (B, N) 0/1 segment-sum matrix turning the rewards into the composites."""
    p = tape.leaves(model.params)
    rhat = batched_rewards(model, tape.constant(x), lengths, p)[0]
    b = len(lengths)
    segment = np.repeat(np.arange(b), lengths)
    segment_sum = (segment[None, :] == np.arange(b)[:, None]).astype(np.float64)
    err = tape.sub(tape.matmul(tape.constant(segment_sum), rhat),
                   tape.constant(np.reshape(targets, (-1, 1))))
    loss = tape.sum_all(tape.square(err))
    return loss.item(), tape.flatten_grads(p, ad.backward(loss))
