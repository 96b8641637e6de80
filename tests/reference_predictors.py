"""Tape references for the three reward predictors.

Two kinds. The per-trajectory forward is one tape per trajectory, built
the plain way: a Python loop over attention heads with a masked softmax
each, and one LSTM run per trajectory with a lower-triangular averaging
matrix for prefix pooling. It reads a model's parameters and nothing else
of `decomposer`, so the batched forward can be checked against it.

The batched tape (`batched_rewards`, `loss_grad`) is the one the
feed-forward and attention predictors trained on before their closed
forms: their `loss_grad` must match it bit for bit.
"""

import numpy as np
import tape_ops as tape

from rdecomp import autodiff as ad
from rdecomp import decomposer, nn


def _ff(model, x):
    h = x
    for i in range(model.n_layers):
        h = ad.tanh(nn.linear(h, model.params[f"l{i}_w"], model.params[f"l{i}_b"]))
    return nn.linear(h, model.params["head_w"], model.params["head_b"])


def _recurrent(model, x, kind):
    p = model.params
    t_len = x.shape[0]
    v = ad.tanh(nn.linear(x, p["embed_w"], p["embed_b"]))
    hd = model.hidden_dim
    h = ad.constant(np.zeros((1, hd)))
    c = ad.constant(np.zeros((1, hd)))
    rows = []
    for t in range(t_len):
        stacked = nn.linear(ad.concat([ad.narrow(v, 0, t, t + 1), h], axis=1),
                            p["lstm_w"], p["lstm_b"])
        i_gate = ad.sigmoid(ad.narrow(stacked, 1, 0, hd))
        f_gate = ad.sigmoid(ad.narrow(stacked, 1, hd, 2 * hd))
        g_cell = ad.tanh(ad.narrow(stacked, 1, 2 * hd, 3 * hd))
        o_gate = ad.sigmoid(ad.narrow(stacked, 1, 3 * hd, 4 * hd))
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, g_cell))
        h = ad.mul(o_gate, ad.tanh(c))
        rows.append(h)
    hs = ad.concat(rows, axis=0)
    if kind == "prefixes":
        tri = np.tril(np.ones((t_len, t_len))) / np.arange(1, t_len + 1)[:, None]
        hs = ad.matmul(ad.constant(tri), hs)
    return nn.linear(hs, p["head_w"], p["head_b"])


def attention_encode(model, x):
    """Encoder output and the list of per-head (T, T) attention tensors."""
    p = model.params
    t_len = x.shape[0]
    v = ad.tanh(nn.linear(x, p["embed_w"], p["embed_b"]))
    if model.positional:
        v = ad.add(v, ad.constant(nn.sinusoidal_positions(t_len, model.embed_dim)))
    q_all = ad.matmul(v, p["wq"])
    k_all = ad.matmul(v, p["wk"])
    v_all = ad.matmul(v, p["wv"])
    causal = np.tril(np.ones((t_len, t_len), dtype=bool))
    dk, dv = model.qk_dim, model.head_dim
    heads, attns = [], []
    for h in range(model.n_heads):
        q = ad.narrow(q_all, 1, h * dk, (h + 1) * dk)
        k = ad.narrow(k_all, 1, h * dk, (h + 1) * dk)
        val = ad.narrow(v_all, 1, h * dv, (h + 1) * dv)
        scores = ad.scale(ad.matmul(q, tape.transpose(k)), 1.0 / np.sqrt(dk))
        attn = tape.softmax(scores, causal)
        attns.append(attn)
        heads.append(ad.matmul(attn, val))
    mixed = nn.linear(ad.concat(heads, axis=1), p["wo"], p["bo"])
    u = tape.layer_norm(ad.add(v, mixed), p["ln1_g"], p["ln1_b"])
    ff = nn.linear(ad.tanh(nn.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
    return tape.layer_norm(ad.add(u, ff), p["ln2_g"], p["ln2_b"]), attns


def _attention(model, x):
    p = model.params
    hs, _ = attention_encode(model, x)
    z = ad.sigmoid(ad.matmul(ad.tanh(ad.matmul(hs, p["pool_w1"])), p["pool_w2"]))
    return nn.linear(tape.scale_rows(hs, z), p["head_w"], p["head_b"])


def reward_sequence(model, x, kind):
    """Per-interval rewards (T, 1) of one trajectory's input rows x (T, d)."""
    if model.architecture == "ff":
        return _ff(model, x)
    if model.architecture == "recurrent":
        return _recurrent(model, x, kind)
    return _attention(model, x)


def regression_loss(model, batch, kind, normalizer=None):
    """Sum over the batch of (sum r_hat - R)^2, one tape per trajectory."""
    per_traj = []
    for traj in batch:
        x = ad.constant(traj.input_matrix())
        rhat = reward_sequence(model, x, kind)
        target = traj.episodic_return
        if normalizer is not None:
            target = normalizer.normalize(target)
        per_traj.append(tape.square(tape.shift(tape.sum_all(rhat), -target)))
    return tape.sum_all(ad.concat(per_traj, axis=0))


def stacked(model, batch, normalizer=None):
    """(x, lengths, targets) of a batch, as `Trainer._regression_phase`
    passes them to `decomposer.regression_step`."""
    x = np.concatenate(decomposer.input_rows(model, batch))
    return x, [traj.length for traj in batch], decomposer.regression_targets(batch, normalizer)


def batched_rewards(model, x, lengths):
    """Batched tape forward of the feed-forward or attention predictor on
    stacked rows x (a Tensor): (rewards (N, 1), z (N, 1) or None, attention
    weights (B, heads, T, T) or None)."""
    if model.architecture == "ff":
        return _ff(model, x), None, None
    p = model.params
    lengths = np.asarray(lengths)
    v = ad.tanh(nn.linear(x, p["embed_w"], p["embed_b"]))
    if model.positional:
        pos = nn.sinusoidal_positions(int(lengths.max()), model.embed_dim)
        v = ad.add(v, ad.constant(pos[ad.segment_positions(lengths)]))
    heads, attn = tape.causal_attention(
        ad.matmul(v, p["wq"]), ad.matmul(v, p["wk"]), ad.matmul(v, p["wv"]),
        lengths, model.n_heads,
    )
    mixed = nn.linear(heads, p["wo"], p["bo"])
    u = tape.layer_norm(ad.add(v, mixed), p["ln1_g"], p["ln1_b"])
    ff = nn.linear(ad.tanh(nn.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
    hs = tape.layer_norm(ad.add(u, ff), p["ln2_g"], p["ln2_b"])
    z = ad.sigmoid(ad.matmul(ad.tanh(ad.matmul(hs, p["pool_w1"])), p["pool_w2"]))
    return nn.linear(tape.scale_rows(hs, z), p["head_w"], p["head_b"]), z, attn


def loss_grad(model, x, lengths, targets, kind):
    """(loss, flat gradient) of the regression loss on one batched tape, with
    a (B, N) 0/1 segment-sum matrix turning the rewards into the composites."""
    x = ad.constant(x)
    if model.architecture == "recurrent":
        rhat = model.reward_tensor(x, kind, lengths)
    else:
        rhat = batched_rewards(model, x, lengths)[0]
    b = len(lengths)
    segment = np.repeat(np.arange(b), lengths)
    segment_sum = (segment[None, :] == np.arange(b)[:, None]).astype(np.float64)
    err = tape.sub(ad.matmul(ad.constant(segment_sum), rhat),
                   ad.constant(np.reshape(targets, (-1, 1))))
    loss = tape.sum_all(tape.square(err))
    return loss.item(), nn.flatten_grads(model.params, ad.backward(loss))
