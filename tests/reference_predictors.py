"""Per-trajectory reference forward of the three reward predictors.

One tape per trajectory, built the plain way: a Python loop over attention
heads with a masked softmax each, and one LSTM run per trajectory with a
lower-triangular averaging matrix for prefix pooling. It reads a model's
parameters and nothing else of `decomposer`, so the batched forward can be
checked against it.
"""

import numpy as np

from rdecomp import autodiff as ad
from rdecomp import nn


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
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dk))
        attn = ad.softmax(scores, causal)
        attns.append(attn)
        heads.append(ad.matmul(attn, val))
    mixed = nn.linear(ad.concat(heads, axis=1), p["wo"], p["bo"])
    u = ad.layer_norm(ad.add(v, mixed), p["ln1_g"], p["ln1_b"])
    ff = nn.linear(ad.tanh(nn.linear(u, p["ff1_w"], p["ff1_b"])), p["ff2_w"], p["ff2_b"])
    return ad.layer_norm(ad.add(u, ff), p["ln2_g"], p["ln2_b"]), attns


def _attention(model, x):
    p = model.params
    hs, _ = attention_encode(model, x)
    z = ad.sigmoid(ad.matmul(ad.tanh(ad.matmul(hs, p["pool_w1"])), p["pool_w2"]))
    return nn.linear(ad.scale_rows(hs, z), p["head_w"], p["head_b"])


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
        per_traj.append(ad.square(ad.shift(ad.sum_all(rhat), -target)))
    return ad.sum_all(ad.concat(per_traj, axis=0))
