import numpy as np
import pytest
import reference_predictors as reference
import tape_ops as tape
from sgd import SgdOptimizer

from rdecomp import autodiff as ad
from rdecomp import decomposer, nn
from rdecomp.decomposer import (
    AttentionPredictor,
    RewardDecomposition,
    ReturnNormalizer,
    make_predictor,
    predict,
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
    model = AttentionPredictor(5, rng)
    x = np.random.default_rng(1).normal(size=(6, 5))
    x[5] = x[0]  # duplicate the (s, a) pair at two distant steps
    v = model.forward(x)["embed"]
    np.testing.assert_array_equal(v[0], v[5])


def test_embed_zero_parameters_give_zero():
    rng = np.random.default_rng(0)
    model = AttentionPredictor(4, rng)
    model.params["embed_w"] = np.zeros((4, model.embed_dim))
    model.params["embed_b"] = np.zeros(model.embed_dim)
    v = model.forward(np.random.default_rng(2).normal(size=(3, 4)))["embed"]
    assert np.array_equal(v, np.zeros((3, model.embed_dim)))


def test_embed_matches_hand_matrix_arithmetic():
    rng = np.random.default_rng(3)
    model = AttentionPredictor(4, rng)
    x = rng.normal(size=(5, 4))
    v = model.forward(x)["embed"]
    want = np.tanh(x @ model.params["embed_w"] + model.params["embed_b"])
    np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# causal encoding


def test_causality_exact_zero_difference():
    rng = np.random.default_rng(4)
    for arch in ("recurrent", "attention"):
        model = make_predictor(arch, 5, np.random.default_rng(10))
        x = rng.normal(size=(7, 5))
        base = model.reward_sequence(x, "prefixes")
        for t_perturb in range(1, 7):
            bumped = x.copy()
            bumped[t_perturb:] += rng.normal(size=(7 - t_perturb, 5))
            out = model.reward_sequence(bumped, "prefixes")
            np.testing.assert_array_equal(out[:t_perturb], base[:t_perturb])


def test_single_token_encoding_matches_prefix():
    rng = np.random.default_rng(5)
    model = AttentionPredictor(5, rng)
    x = rng.normal(size=(4, 5))
    h_full = model.forward(x)["hs"]
    h_one = model.forward(x[:1])["hs"]
    np.testing.assert_allclose(h_full[0], h_one[0], rtol=0, atol=1e-12)


def test_two_token_attention_matches_hand_softmax():
    rng = np.random.default_rng(6)
    model = AttentionPredictor(3, rng)
    x = rng.normal(size=(2, 3))
    out = model.forward(x)
    v = out["embed"] + nn.sinusoidal_positions(2, model.embed_dim)
    attn_block = out["attn"]
    q_all = v @ model.params["wq"]
    k_all = v @ model.params["wk"]
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
    model.params["pool_w2"] = np.zeros((model.pool_dim, 1))
    x = rng.normal(size=(5, 4))
    z = model.forward(x)["z"]
    np.testing.assert_array_equal(z, np.full((5, 1), 0.5))


def test_vanishing_importance_pins_output_to_head_bias():
    rng = np.random.default_rng(8)
    model = AttentionPredictor(4, rng)
    model.params["pool_w2"] = np.full((model.pool_dim, 1), -500.0)
    x = rng.normal(size=(5, 4))
    out = model.forward(x)
    assert out["z"].max() < 1e-8
    np.testing.assert_allclose(
        out["rhat"], np.full((5, 1), model.params["head_b"].item()), atol=1e-6
    )


def test_importance_matches_hand_computation():
    rng = np.random.default_rng(9)
    model = AttentionPredictor(4, rng)
    x = rng.normal(size=(6, 4))
    out = model.forward(x)
    hs, z = out["hs"], out["z"]
    want = 1.0 / (
        1.0
        + np.exp(-(np.tanh(hs @ model.params["pool_w1"]) @ model.params["pool_w2"]))
    )
    np.testing.assert_allclose(z, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# full forward as one numpy re-implementation


def numpy_attention_forward(model, x):
    """Independent full re-computation of the attention predictor."""
    p = model.params
    v = np.tanh(x @ p["embed_w"] + p["embed_b"])
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
    got = model.reward_sequence(x)
    want = numpy_attention_forward(model, x)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# predict and decomposition bookkeeping


def test_bias_only_model_predicts_constant():
    rng = np.random.default_rng(11)
    model = make_predictor("ff", 5, rng)
    model.params = {k: np.zeros(p.shape) for k, p in model.params.items()}
    model.params["head_b"] = np.array([1.25])
    traj = toy_trajectory(np.random.default_rng(12), t_len=4, ret=7.0)
    dec = predict(model, [traj], "singletons")[0]
    np.testing.assert_array_equal(dec.per_interval, np.full(4, 1.25))
    assert dec.composite == 4 * 1.25
    assert dec.residual == 7.0 - 5.0


def test_ff_is_markov_per_step():
    rng = np.random.default_rng(13)
    model = make_predictor("ff", 5, rng)
    x = np.random.default_rng(14).normal(size=(6, 5))
    x[4] = x[1]
    traj = Trajectory(states=x[:, :3], actions=x[:, 3:], episodic_return=0.0)
    dec = predict(model, [traj], "singletons")[0]
    assert dec.per_interval[4] == dec.per_interval[1]


def test_ff_rejects_prefix_intervals():
    model = make_predictor("ff", 5, np.random.default_rng(15))
    traj = toy_trajectory(np.random.default_rng(16))
    with pytest.raises(ValueError, match="does not support"):
        predict(model, [traj], "prefixes")
    with pytest.raises(ValueError, match="does not support 'pairs'"):
        predict(AttentionPredictor(5, np.random.default_rng(15)), [traj], "pairs")


def test_composite_is_ascending_sum_of_outputs():
    rng = np.random.default_rng(17)
    model = AttentionPredictor(5, rng)
    traj = toy_trajectory(np.random.default_rng(18), t_len=3)
    dec = predict(model, [traj], "prefixes")[0]
    vals = model.reward_sequence(traj.input_matrix()).reshape(-1)
    assert dec.composite == (float(vals[0]) + float(vals[1])) + float(vals[2])
    assert dec.residual == traj.episodic_return - dec.composite


# ---------------------------------------------------------------------------
# regression


def test_exact_model_has_zero_loss_and_zero_gradient():
    rng = np.random.default_rng(19)
    model = make_predictor("ff", 5, rng)
    model.params = {k: np.zeros(p.shape) for k, p in model.params.items()}
    model.params["head_b"] = np.array([0.5])
    traj = toy_trajectory(np.random.default_rng(20), t_len=4, ret=2.0)  # 4 * 0.5 == 2
    loss, grad = model.loss_grad(*reference.stacked(model, [traj]), "singletons")
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(grad.shape))


def test_bias_only_regression_reaches_mean_target():
    # single trajectory, only the head bias is free: optimum is R / T
    rng = np.random.default_rng(21)
    model = make_predictor("ff", 5, rng)
    frozen = {k: np.zeros(p.shape) for k, p in model.params.items()}
    model.params = frozen
    traj = toy_trajectory(np.random.default_rng(22), t_len=5, ret=3.0)
    for _ in range(400):
        regression_step(model, *reference.stacked(model, [traj]), "singletons",
                        SgdOptimizer(1e-2))
        # freeze everything except the bias to keep the problem 1-D
        keep = model.params["head_b"]
        model.params = dict(frozen)
        model.params["head_b"] = keep
    assert model.params["head_b"].item() == pytest.approx(3.0 / 5.0, abs=1e-6)


def test_full_batch_loss_non_increasing_at_tiny_lr():
    rng = np.random.default_rng(23)
    model = AttentionPredictor(5, rng)
    batch = [toy_trajectory(np.random.default_rng(100 + i), t_len=4) for i in range(6)]
    opt = SgdOptimizer(1e-5)
    rows = reference.stacked(model, batch)
    losses = [regression_step(model, *rows, "prefixes", opt) for _ in range(100)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_non_finite_loss_aborts_without_update():
    rng = np.random.default_rng(24)
    model = make_predictor("ff", 5, rng)
    model.params["head_b"] = np.array([np.inf])
    before = {k: p.copy() for k, p in model.params.items()}
    traj = toy_trajectory(np.random.default_rng(25))
    with pytest.raises(FloatingPointError, match="non-finite"):
        regression_step(model, *reference.stacked(model, [traj]), "singletons",
                        SgdOptimizer(1e-3))
    for k, p in model.params.items():
        np.testing.assert_array_equal(p, before[k])


def test_empty_batch_rejected():
    model = make_predictor("ff", 5, np.random.default_rng(26))
    with pytest.raises(ValueError, match="empty"):
        regression_step(model, np.zeros((0, 5)), [], np.zeros(0), "singletons",
                        SgdOptimizer(1e-3))


# ---------------------------------------------------------------------------
# order sensitivity


def _order_probe(arch):
    rng = np.random.default_rng(27)
    model = make_predictor(arch, 4, rng)
    x = np.random.default_rng(28).normal(size=(5, 4))
    swapped = x.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    a = model.reward_sequence(x, "prefixes")
    b = model.reward_sequence(swapped, "prefixes")
    return float(np.abs(a[4, 0] - b[4, 0]))


@pytest.mark.parametrize("arch", ["recurrent", "attention"])
def test_sequence_models_are_order_sensitive(arch):
    assert _order_probe(arch) > 1e-9


def test_order_dependent_target_is_learnable():
    """Two trajectories with the same steps in different order and opposite
    returns: any order-invariant predictor is stuck at loss >= 2."""
    steps = np.random.default_rng(29).normal(size=(4, 4))
    fwd = Trajectory(states=steps[:, :2], actions=steps[:, 2:], episodic_return=1.0)
    rev = Trajectory(states=steps[::-1, :2], actions=steps[::-1, 2:], episodic_return=-1.0)
    model = make_predictor("attention", 4, np.random.default_rng(30))
    opt = nn.AdamOptimizer(3e-3)
    rows = reference.stacked(model, [fwd, rev])
    loss = None
    for _ in range(300):
        loss = regression_step(model, *rows, "prefixes", opt)
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
    dec = predict(model, [traj], "prefixes", normalizer=norm)[0]
    total = 0.0
    for v in dec.per_interval:
        total += float(v)
    assert dec.composite == total
    assert dec.residual == 12.0 - dec.composite
    raw = predict(model, [traj], "prefixes")[0]
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
# rebuilding from a checkpoint


@pytest.mark.parametrize("arch", ["ff", "recurrent", "attention"])
def test_predictor_from_checkpoint_rebuilds_the_model(arch):
    model = make_predictor(arch, 5, np.random.default_rng(36))
    # checkpoints of earlier versions also record scale and positional
    for hp in (model.hyperparams(), {**model.hyperparams(), "scale": "desk", "positional": True}):
        meta = {"architecture": arch, "hyperparams": hp}
        rebuilt = decomposer.predictor_from_checkpoint(model.params, meta)
        assert type(rebuilt) is type(model) and rebuilt.params is model.params


@pytest.mark.parametrize("retired", [{"positional": False}, {"scale": "paper"},
                                     {"positional": 1}])
def test_predictor_from_checkpoint_rejects_retired_models(retired):
    model = make_predictor("attention", 5, np.random.default_rng(37))
    meta = {"architecture": "attention", "hyperparams": {**model.hyperparams(), **retired}}
    with pytest.raises(ValueError, match=next(iter(retired))):
        decomposer.predictor_from_checkpoint(model.params, meta)


# ---------------------------------------------------------------------------
# one batched tape against the per-trajectory reference


BATCHED_SPECS = [
    ("ff", "singletons"),
    ("recurrent", "singletons"),
    ("recurrent", "prefixes"),
    ("attention", "prefixes"),
]


def spec_ids(specs):
    """Test ids of (architecture, kind) specs. The "-pos1" suffix is from
    when attention could run without positions; it keeps the ids stable."""
    return [f"{a}-{k}-pos1" for a, k in specs]

BATCH_LENGTHS = {"ragged": [5, 1, 9, 3, 1, 7], "equal": [4, 4, 4], "one": [6]}


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("lengths", list(BATCH_LENGTHS), ids=list(BATCH_LENGTHS))
@pytest.mark.parametrize("arch,kind", BATCHED_SPECS, ids=spec_ids(BATCHED_SPECS))
def test_batched_loss_and_gradients_match_reference(arch, kind, lengths):
    rng = np.random.default_rng(40)
    model = make_predictor(arch, 5, rng)
    batch = [toy_trajectory(rng, t_len=t) for t in BATCH_LENGTHS[lengths]]
    norm = ReturnNormalizer()
    norm.update(rng.normal(2.0, 3.0, size=20))

    loss, grad = model.loss_grad(*reference.stacked(model, batch, norm), kind)
    want, leaves = reference.regression_loss(model, batch, kind, norm)
    assert _close(np.array(loss), want.data)
    grads, want_grads = nn.assign_flat(model.params, grad), ad.backward(want)
    for name, leaf in leaves.items():
        assert _close(grads[name], want_grads.of(leaf)), name

    for traj, dec in zip(batch, predict(model, batch, kind), strict=True):
        ref = reference.reward_sequence(model, tape.constant(traj.input_matrix()), kind)
        assert _close(dec.per_interval, ref.data.reshape(-1))


def test_batched_attention_weights_match_reference():
    rng = np.random.default_rng(41)
    model = AttentionPredictor(5, rng)
    trajs = [toy_trajectory(rng, t_len=t) for t in (3, 1, 5)]
    x = np.concatenate([t.input_matrix() for t in trajs])
    attn = model.forward(x, [3, 1, 5])["attn"]
    assert attn.shape == (3, model.n_heads, 5, 5)
    for b, traj in enumerate(trajs):
        _, heads = reference.attention_encode(model, tape.constant(traj.input_matrix()))
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
    want = model.reward_sequence(traj.input_matrix(4), kind).reshape(-1)
    np.testing.assert_array_equal(predict(model, [traj], kind)[0].per_interval, want)
    loss = model.loss_grad(*reference.stacked(model, [traj]), kind)[0]
    assert loss == pytest.approx((want.sum() - 1.0) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form regression gradients against the batched tape, bit for bit


BITWISE_SPECS = [
    ("attention", "prefixes"),
    ("attention", "singletons"),
    ("ff", "singletons"),
    ("recurrent", "prefixes"),
    ("recurrent", "singletons"),
]
# ragged minibatches like the trainer's, a batch of one, length-1 trajectories
BITWISE_LENGTHS = [[5, 1, 9, 3, 1, 16, 7], [6], [1], [1, 1, 1], [16] * 4]


def _bitwise_case(arch, lengths, seed, scale):
    rng = np.random.default_rng(seed)
    model = make_predictor(arch, 7, rng)
    # x50 parameters saturate the tanh and sigmoid gates, as the blown-up
    # predictors of `make_verify_predictors` do
    model.params = {k: p * scale for k, p in model.params.items()}
    batch = [toy_trajectory(rng, t_len=t, d_s=4, d_a=3) for t in lengths]
    norm = ReturnNormalizer()
    norm.update(rng.normal(2.0, 3.0, size=20))
    return model, batch, norm


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("arch,kind", BITWISE_SPECS, ids=spec_ids(BITWISE_SPECS))
def test_loss_grad_is_bitwise_the_tape(arch, kind, scale):
    for seed, lengths in enumerate(BITWISE_LENGTHS):
        model, batch, norm = _bitwise_case(arch, lengths, seed, scale)
        x, lengths, targets = reference.stacked(model, batch, norm)
        loss, grad = model.loss_grad(x, lengths, targets, kind)
        want_loss, want_grad = reference.loss_grad(model, x, lengths, targets, kind)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad), (seed, lengths)


@pytest.mark.parametrize("arch,kind", BITWISE_SPECS, ids=spec_ids(BITWISE_SPECS))
def test_regression_step_applies_the_tape_gradient(arch, kind):
    model, batch, norm = _bitwise_case(arch, BITWISE_LENGTHS[0], 7, 1.0)
    x, lengths, targets = reference.stacked(model, batch, norm)
    want_loss, want_grad = reference.loss_grad(model, x, lengths, targets, kind)
    want = nn.flatten_params(model.params) - 1e-2 * want_grad
    loss = regression_step(model, x, lengths, targets, kind, SgdOptimizer(1e-2))
    assert loss == want_loss
    assert np.array_equal(nn.flatten_params(model.params), want)


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("arch,kind", BITWISE_SPECS, ids=spec_ids(BITWISE_SPECS))
def test_predict_is_bitwise_the_tape_forward(arch, kind, scale):
    for seed, lengths in enumerate(BITWISE_LENGTHS):
        model, batch, _ = _bitwise_case(arch, lengths, seed, scale)
        x, lengths, _ = reference.stacked(model, batch)
        rhat, z, attn = reference.batched_rewards(model, tape.constant(x), lengths, kind)
        got = np.concatenate([d.per_interval for d in predict(model, batch, kind)])
        assert np.array_equal(got, rhat.data.reshape(-1))
        if arch == "attention":
            out = model.forward(x, lengths)
            assert np.array_equal(out["z"], z.data) and np.array_equal(out["attn"], attn)
