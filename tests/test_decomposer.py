import numpy as np
import pytest
import reference_predictors as reference

from rdecomp import autodiff as ad
from rdecomp import decomposer, nn
from rdecomp.decomposer import (
    AttentionPredictor,
    IntervalSet,
    RewardDecomposition,
    ReturnNormalizer,
    make_predictor,
    predict,
    predict_batch,
    regression_loss,
    regression_step,
)
from rdecomp.trajectory import Trajectory


def toy_trajectory(rng, t_len=6, d_s=3, d_a=2, ret=None):
    states = rng.normal(size=(t_len, d_s))
    actions = rng.normal(size=(t_len, d_a))
    if ret is None:
        ret = float(rng.normal())
    return Trajectory(states=states, actions=actions, episodic_return=ret)


# ---------------------------------------------------------------------------
# embedding


def test_embed_shares_parameters_across_time():
    rng = np.random.default_rng(0)
    model = AttentionPredictor(5, rng, scale="desk")
    x = np.random.default_rng(1).normal(size=(6, 5))
    x[5] = x[0]  # duplicate the (s, a) pair at two distant steps
    v = model.embed(ad.constant(x)).data
    np.testing.assert_array_equal(v[0], v[5])


def test_embed_zero_parameters_give_zero():
    rng = np.random.default_rng(0)
    model = AttentionPredictor(4, rng)
    model.params["embed_w"] = ad.Tensor(np.zeros((4, model.embed_dim)))
    model.params["embed_b"] = ad.Tensor(np.zeros(model.embed_dim))
    v = model.embed(ad.constant(np.random.default_rng(2).normal(size=(3, 4))))
    assert np.array_equal(v.data, np.zeros((3, model.embed_dim)))


def test_embed_matches_hand_matrix_arithmetic():
    rng = np.random.default_rng(3)
    model = AttentionPredictor(4, rng)
    x = rng.normal(size=(5, 4))
    v = model.embed(ad.constant(x)).data
    want = np.tanh(x @ model.params["embed_w"].data + model.params["embed_b"].data)
    np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# causal encoding


def test_causality_exact_zero_difference():
    rng = np.random.default_rng(4)
    for arch in ("recurrent", "attention"):
        model = make_predictor(arch, 5, np.random.default_rng(10), scale="desk")
        x = rng.normal(size=(7, 5))
        base = (
            model.reward_sequence(ad.constant(x), "prefixes")
            if arch == "recurrent"
            else model.reward_sequence(ad.constant(x))
        ).data
        for t_perturb in range(1, 7):
            bumped = x.copy()
            bumped[t_perturb:] += rng.normal(size=(7 - t_perturb, 5))
            out = (
                model.reward_sequence(ad.constant(bumped), "prefixes")
                if arch == "recurrent"
                else model.reward_sequence(ad.constant(bumped))
            ).data
            np.testing.assert_array_equal(out[:t_perturb], base[:t_perturb])


def test_single_token_encoding_matches_prefix():
    rng = np.random.default_rng(5)
    model = AttentionPredictor(5, rng)
    x = rng.normal(size=(4, 5))
    h_full, _ = model.encode(model.embed(ad.constant(x)))
    h_one, _ = model.encode(model.embed(ad.constant(x[:1])))
    np.testing.assert_allclose(h_full.data[0], h_one.data[0], rtol=0, atol=1e-12)


def test_two_token_attention_matches_hand_softmax():
    rng = np.random.default_rng(6)
    model = AttentionPredictor(3, rng)
    x = rng.normal(size=(2, 3))
    v = model.embed(ad.constant(x))
    if model.positional:
        v = ad.add(v, ad.constant(nn.sinusoidal_positions(2, model.embed_dim)))
    _, attn_block = model.encode(model.embed(ad.constant(x)))
    q_all = v.data @ model.params["wq"].data
    k_all = v.data @ model.params["wk"].data
    dk = model.qk_dim
    for h, attn in enumerate(attn_block[0]):
        q = q_all[:, h * dk : (h + 1) * dk]
        k = k_all[:, h * dk : (h + 1) * dk]
        s = (q @ k.T) / np.sqrt(dk)
        # row 0 attends only to itself; row 1 is a 2-way softmax
        e = np.exp(s[1] - s[1].max())
        np.testing.assert_allclose(attn[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(attn[1], e / e.sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# importance pooling


def test_importance_is_half_when_w2_zero():
    rng = np.random.default_rng(7)
    model = AttentionPredictor(4, rng)
    model.params["pool_w2"] = ad.Tensor(np.zeros((model.pool_dim, 1)))
    x = rng.normal(size=(5, 4))
    _, z, _ = model.forward_full(ad.constant(x))
    np.testing.assert_array_equal(z.data, np.full((5, 1), 0.5))


def test_vanishing_importance_pins_output_to_head_bias():
    rng = np.random.default_rng(8)
    model = AttentionPredictor(4, rng)
    model.params["pool_w2"] = ad.Tensor(np.full((model.pool_dim, 1), -500.0))
    x = rng.normal(size=(5, 4))
    rhat, z, _ = model.forward_full(ad.constant(x))
    assert z.data.max() < 1e-8
    np.testing.assert_allclose(
        rhat.data, np.full((5, 1), model.params["head_b"].item()), atol=1e-6
    )


def test_importance_matches_hand_computation():
    rng = np.random.default_rng(9)
    model = AttentionPredictor(4, rng)
    x = rng.normal(size=(6, 4))
    hs, _ = model.encode(model.embed(ad.constant(x)))
    z = model.importance(hs).data
    want = 1.0 / (
        1.0
        + np.exp(-(np.tanh(hs.data @ model.params["pool_w1"].data) @ model.params["pool_w2"].data))
    )
    np.testing.assert_allclose(z, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# full forward as one numpy re-implementation


def numpy_attention_forward(model, x):
    """Independent full re-computation of the attention predictor."""
    p = {k: t.data for k, t in model.params.items()}
    v = np.tanh(x @ p["embed_w"] + p["embed_b"])
    if model.positional:
        v = v + nn.sinusoidal_positions(len(x), model.embed_dim)
    t_len = len(x)
    heads = []
    for h in range(model.n_heads):
        q = (v @ p["wq"])[:, h * model.qk_dim : (h + 1) * model.qk_dim]
        k = (v @ p["wk"])[:, h * model.qk_dim : (h + 1) * model.qk_dim]
        val = (v @ p["wv"])[:, h * model.head_dim : (h + 1) * model.head_dim]
        s = q @ k.T / np.sqrt(model.qk_dim)
        s = np.where(np.tril(np.ones((t_len, t_len), dtype=bool)), s, -np.inf)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        heads.append(attn @ val)
    mixed = np.concatenate(heads, axis=1) @ p["wo"] + p["bo"]

    def layer_norm(h, g, b):
        mu = h.mean(axis=1, keepdims=True)
        sd = np.sqrt(((h - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
        return (h - mu) / sd * g + b

    u = layer_norm(v + mixed, p["ln1_g"], p["ln1_b"])
    ff = np.tanh(u @ p["ff1_w"] + p["ff1_b"]) @ p["ff2_w"] + p["ff2_b"]
    hs = layer_norm(u + ff, p["ln2_g"], p["ln2_b"])
    z = 1.0 / (1.0 + np.exp(-(np.tanh(hs @ p["pool_w1"]) @ p["pool_w2"])))
    return (z * hs) @ p["head_w"] + p["head_b"]


def test_attention_forward_matches_numpy_reimplementation():
    rng = np.random.default_rng(10)
    model = AttentionPredictor(6, rng)
    x = rng.normal(size=(8, 6))
    got = model.reward_sequence(ad.constant(x)).data
    want = numpy_attention_forward(model, x)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# predict and decomposition bookkeeping


def test_bias_only_model_predicts_constant():
    rng = np.random.default_rng(11)
    model = make_predictor("ff", 5, rng)
    model.params = {k: ad.Tensor(np.zeros(p.shape)) for k, p in model.params.items()}
    model.params["head_b"] = ad.Tensor(np.array([1.25]))
    traj = toy_trajectory(np.random.default_rng(12), t_len=4, ret=7.0)
    dec = predict(model, traj, IntervalSet("singletons"))
    np.testing.assert_array_equal(dec.per_interval, np.full(4, 1.25))
    assert dec.composite == 4 * 1.25
    assert dec.residual == 7.0 - 5.0


def test_ff_is_markov_per_step():
    rng = np.random.default_rng(13)
    model = make_predictor("ff", 5, rng)
    x = np.random.default_rng(14).normal(size=(6, 5))
    x[4] = x[1]
    traj = Trajectory(states=x[:, :3], actions=x[:, 3:], episodic_return=0.0)
    dec = predict(model, traj, IntervalSet("singletons"))
    assert dec.per_interval[4] == dec.per_interval[1]


def test_ff_rejects_prefix_intervals():
    model = make_predictor("ff", 5, np.random.default_rng(15))
    traj = toy_trajectory(np.random.default_rng(16))
    with pytest.raises(ValueError, match="does not support"):
        predict(model, traj, IntervalSet("prefixes"))


def test_composite_is_ascending_sum_of_outputs():
    rng = np.random.default_rng(17)
    model = AttentionPredictor(5, rng)
    traj = toy_trajectory(np.random.default_rng(18), t_len=3)
    dec = predict(model, traj, IntervalSet("prefixes"))
    vals = model.reward_sequence(ad.constant(traj.input_matrix())).data.reshape(-1)
    assert dec.composite == (float(vals[0]) + float(vals[1])) + float(vals[2])
    assert dec.residual == traj.episodic_return - dec.composite


def test_interval_set_contract():
    with pytest.raises(ValueError, match="interval kind"):
        IntervalSet("pairs")
    singles, prefixes = IntervalSet("singletons"), IntervalSet("prefixes")
    assert singles.members(3) == [3] and prefixes.members(3) == [0, 1, 2, 3]
    assert singles.max_index(3) == prefixes.max_index(3) == 3
    assert singles.count(7) == prefixes.count(7) == 7


# ---------------------------------------------------------------------------
# regression


def test_exact_model_has_zero_loss_and_zero_gradient():
    rng = np.random.default_rng(19)
    model = make_predictor("ff", 5, rng)
    model.params = {k: ad.Tensor(np.zeros(p.shape)) for k, p in model.params.items()}
    model.params["head_b"] = ad.Tensor(np.array([0.5]))
    traj = toy_trajectory(np.random.default_rng(20), t_len=4, ret=2.0)  # 4 * 0.5 == 2
    loss = regression_loss(model, [traj], IntervalSet("singletons"))
    assert loss.item() == 0.0
    grads = ad.backward(loss)
    for p in model.params.values():
        assert np.array_equal(grads.of(p), np.zeros(p.shape))


def test_bias_only_regression_reaches_mean_target():
    # single trajectory, only the head bias is free: optimum is R / T
    rng = np.random.default_rng(21)
    model = make_predictor("ff", 5, rng)
    frozen = {k: ad.Tensor(np.zeros(p.shape)) for k, p in model.params.items()}
    model.params = frozen
    traj = toy_trajectory(np.random.default_rng(22), t_len=5, ret=3.0)
    iset = IntervalSet("singletons")
    for _ in range(400):
        regression_step(model, [traj], iset, optimizer=nn.SgdOptimizer(1e-2))
        # freeze everything except the bias to keep the problem 1-D
        keep = model.params["head_b"]
        model.params = dict(frozen)
        model.params["head_b"] = keep
    assert model.params["head_b"].item() == pytest.approx(3.0 / 5.0, abs=1e-6)


def test_full_batch_loss_non_increasing_at_tiny_lr():
    rng = np.random.default_rng(23)
    model = AttentionPredictor(5, rng)
    batch = [toy_trajectory(np.random.default_rng(100 + i), t_len=4) for i in range(6)]
    iset = IntervalSet("prefixes")
    opt = nn.SgdOptimizer(1e-5)
    losses = [regression_step(model, batch, iset, optimizer=opt) for _ in range(100)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_non_finite_loss_aborts_without_update():
    rng = np.random.default_rng(24)
    model = make_predictor("ff", 5, rng)
    model.params["head_b"] = ad.Tensor(np.array([np.inf]))
    before = {k: p.data.copy() for k, p in model.params.items()}
    traj = toy_trajectory(np.random.default_rng(25))
    with pytest.raises(FloatingPointError, match="non-finite"):
        regression_step(model, [traj], IntervalSet("singletons"), optimizer=nn.SgdOptimizer(1e-3))
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_empty_batch_rejected():
    model = make_predictor("ff", 5, np.random.default_rng(26))
    with pytest.raises(ValueError, match="empty"):
        regression_step(model, [], IntervalSet("singletons"), optimizer=nn.SgdOptimizer(1e-3))


# ---------------------------------------------------------------------------
# order sensitivity


def _order_probe(arch):
    rng = np.random.default_rng(27)
    model = make_predictor(arch, 4, rng, scale="desk")
    x = np.random.default_rng(28).normal(size=(5, 4))
    swapped = x.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    a = model.reward_sequence(ad.constant(x), "prefixes") if arch == "recurrent" else model.reward_sequence(ad.constant(x))
    b = model.reward_sequence(ad.constant(swapped), "prefixes") if arch == "recurrent" else model.reward_sequence(ad.constant(swapped))
    return float(np.abs(a.data[4, 0] - b.data[4, 0]))


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_sequence_models_are_order_sensitive(arch):
    assert _order_probe(arch) > 1e-9


def test_order_dependent_target_is_learnable():
    """Two trajectories with the same steps in different order and opposite
    returns: any order-invariant predictor is stuck at loss >= 2."""
    steps = np.random.default_rng(29).normal(size=(4, 4))
    fwd = Trajectory(states=steps[:, :2], actions=steps[:, 2:], episodic_return=1.0)
    rev = Trajectory(states=steps[::-1, :2], actions=steps[::-1, 2:], episodic_return=-1.0)
    model = make_predictor("attention", 4, np.random.default_rng(30), scale="desk")
    iset = IntervalSet("prefixes")
    opt = nn.AdamOptimizer(3e-3)
    loss = None
    for _ in range(300):
        loss = regression_step(model, [fwd, rev], iset, optimizer=opt)
    assert loss < 0.5


# ---------------------------------------------------------------------------
# target normalization


def test_normalizer_tracks_mean_and_std():
    norm = ReturnNormalizer()
    data = np.random.default_rng(31).normal(3.0, 2.0, size=200)
    norm.update(data)
    assert norm.mean == pytest.approx(data.mean(), rel=1e-12)
    assert norm.std == pytest.approx(data.std(), rel=1e-9)
    restored = ReturnNormalizer.from_state(norm.state())
    assert restored.normalize(5.0) == norm.normalize(5.0)


def test_destandardized_prediction_keeps_identities():
    rng = np.random.default_rng(32)
    model = AttentionPredictor(5, rng)
    norm = ReturnNormalizer()
    norm.update(np.random.default_rng(33).normal(10.0, 4.0, size=100))
    traj = toy_trajectory(np.random.default_rng(34), t_len=5, ret=12.0)
    dec = predict(model, traj, IntervalSet("prefixes"), normalizer=norm)
    total = 0.0
    for v in dec.per_interval:
        total += float(v)
    assert dec.composite == total
    assert dec.residual == 12.0 - dec.composite
    raw = predict(model, traj, IntervalSet("prefixes"))
    # de-standardization scales the raw outputs and adds the whole mean at
    # interval 0, a constant, so no interval reads the episode length
    want = norm.std * raw.per_interval
    want[0] += norm.mean
    np.testing.assert_allclose(dec.per_interval, want, rtol=1e-12)


def test_decomposition_from_values_identities():
    values = np.random.default_rng(35).normal(size=9)
    dec = RewardDecomposition.from_values(values, 4.0)
    total = 0.0
    for v in values:
        total += float(v)
    assert dec.composite == total and dec.residual == 4.0 - total


# ---------------------------------------------------------------------------
# one batched tape against the per-trajectory reference


BATCHED_SPECS = [
    ("ff", "singletons", True),
    ("recurrent", "singletons", True),
    ("recurrent", "prefixes", True),
    ("attention", "prefixes", True),
    ("attention", "prefixes", False),
]
BATCH_LENGTHS = {"ragged": [5, 1, 9, 3, 1, 7], "equal": [4, 4, 4], "one": [6]}


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("lengths", list(BATCH_LENGTHS), ids=list(BATCH_LENGTHS))
@pytest.mark.parametrize("arch,kind,positional", BATCHED_SPECS,
                         ids=[f"{a}-{k}-pos{int(p)}" for a, k, p in BATCHED_SPECS])
def test_batched_loss_and_gradients_match_reference(arch, kind, positional, lengths):
    rng = np.random.default_rng(40)
    model = make_predictor(arch, 5, rng, positional=positional)
    batch = [toy_trajectory(rng, t_len=t) for t in BATCH_LENGTHS[lengths]]
    iset = IntervalSet(kind)
    norm = ReturnNormalizer()
    norm.update(rng.normal(2.0, 3.0, size=20))

    loss = regression_loss(model, batch, iset, norm)
    want = reference.regression_loss(model, batch, iset, norm)
    assert _close(loss.data, want.data)
    grads, want_grads = ad.backward(loss), ad.backward(want)
    for name, param in model.params.items():
        assert _close(grads.of(param), want_grads.of(param)), name

    for traj, dec in zip(batch, predict_batch(model, batch, iset)):
        ref = reference.reward_sequence(model, ad.constant(traj.input_matrix()), kind)
        assert _close(dec.per_interval, ref.data.reshape(-1))


def test_batched_attention_weights_match_reference():
    rng = np.random.default_rng(41)
    model = AttentionPredictor(5, rng)
    trajs = [toy_trajectory(rng, t_len=t) for t in (3, 1, 5)]
    x = np.concatenate([t.input_matrix() for t in trajs])
    _, _, attn = model.forward_full(ad.constant(x), [3, 1, 5])
    assert attn.shape == (3, model.n_heads, 5, 5)
    for b, traj in enumerate(trajs):
        _, heads = reference.attention_encode(model, ad.constant(traj.input_matrix()))
        t_len = traj.length
        for h, head in enumerate(heads):
            assert _close(attn[b, h, :t_len, :t_len], head.data)
            assert np.array_equal(attn[b, h, :t_len, t_len:], np.zeros((t_len, 5 - t_len)))


@pytest.mark.parametrize("arch,kind", [("ff", "singletons"), ("recurrent", "prefixes"),
                                       ("attention", "prefixes")])
def test_n_actions_inferred_from_model_width(arch, kind):
    # 4 actions, but the trajectory never takes the last one
    model = make_predictor(arch, 3 + 4, np.random.default_rng(42))
    rng = np.random.default_rng(43)
    traj = Trajectory(states=rng.normal(size=(5, 3)), actions=[0, 2, 1, 0, 2],
                      episodic_return=1.0)
    iset = IntervalSet(kind)
    implicit = predict(model, traj, iset)
    explicit = predict(model, traj, iset, n_actions=4)
    assert np.array_equal(implicit.per_interval, explicit.per_interval)
    assert regression_loss(model, [traj], iset).item() == regression_loss(
        model, [traj], iset, n_actions=4
    ).item()
