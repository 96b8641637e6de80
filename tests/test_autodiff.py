import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
import tape_ops as tape

from fdcheck import numeric_gradient, relative_error
from sgd import SgdOptimizer
import rdecomp
from rdecomp import nn
from rdecomp import autodiff as ad
from rdecomp.autodiff import ShapeError, Tensor


def scalarize(out, rng):
    """Contract an op output to a scalar with a fixed random cotangent."""
    cot = tape.constant(rng.normal(size=out.shape))
    return tape.sum_all(tape.mul(out, cot))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(tape.matmul(a, eye).data, a.data)


def test_sigmoid_symmetry_point():
    assert tape.sigmoid(Tensor([[0.0]])).item() == 0.5


def test_softmax_uniform_rows():
    out = tape.softmax(Tensor([[2.5, 2.5, 2.5]]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_product_rule():
    x, y = Tensor([[3.0]]), Tensor([[5.0]])
    grads = ad.backward(tape.mul(x, y))
    assert grads.of(x) == pytest.approx(5.0)
    assert grads.of(y) == pytest.approx(3.0)


def test_tanh_derivative_at_zero():
    x = Tensor([[0.0]])
    grads = ad.backward(tape.tanh(x))
    assert grads.of(x)[0, 0] == 1.0


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(Tensor([[1.0, 2.0]]))


def test_seeded_backward_equals_backward_of_the_contraction():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 2)))
    out = tape.tanh(tape.matmul(x, w))
    seed = rng.normal(size=(4, 2))
    seeded = ad.backward(out, seed)
    contracted = ad.backward(tape.sum_all(tape.mul(out, tape.constant(seed))))
    for t in (x, w):
        assert np.array_equal(seeded.of(t), contracted.of(t))
    with pytest.raises(ShapeError, match="seed"):
        ad.backward(out, seed.T)


def test_matmul_shape_error_reports_dimensions():
    with pytest.raises(ShapeError) as err:
        tape.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_add_shape_error():
    with pytest.raises(ShapeError):
        tape.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_unreachable_leaf_reads_zero():
    x = Tensor([[1.0]])
    orphan = Tensor([[2.0]])
    grads = ad.backward(tape.sum_all(tape.square(x)))
    assert np.array_equal(grads.of(orphan), np.zeros((1, 1)))
    assert orphan not in grads


def test_gradient_of_constant_is_exactly_zero():
    leaf = Tensor(np.ones((2, 2)))
    loss = tape.sum_all(tape.constant(np.ones((2, 2))))
    assert np.array_equal(ad.backward(loss).of(leaf), np.zeros((2, 2)))


def test_tensors_are_immutable():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.data[0] = 2.0


def test_grad_accumulates_over_reuse():
    x = Tensor([[2.0]])
    # x*x + 3x: derivative 2x + 3 = 7
    loss = tape.sum_all(tape.add(tape.mul(x, x), tape.scale(x, 3.0)))
    assert ad.backward(loss).of(x)[0, 0] == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# finite-difference checks for every primitive


UNARY_CASES = [
    ("tanh", tape.tanh, (3, 4)),
    ("sigmoid", tape.sigmoid, (3, 4)),
    ("exp", tape.exp, (3, 4)),
    ("square", tape.square, (3, 4)),
    ("neg", tape.neg, (3, 4)),
    ("transpose", tape.transpose, (3, 4)),
    ("sum_all", tape.sum_all, (3, 4)),
    ("mean_all", tape.mean_all, (3, 4)),
    ("softmax", tape.softmax, (4, 4)),
    ("softmax_causal", lambda t: tape.softmax(t, np.tril(np.ones((4, 4), dtype=bool))), (4, 4)),
    ("log_softmax", tape.log_softmax, (4, 5)),
    ("scale", lambda t: tape.scale(t, -1.7), (3, 4)),
    ("shift", lambda t: tape.shift(t, 0.3), (3, 4)),
    ("sum_rows", lambda t: tape.sum_axis(t, 0), (3, 4)),
    ("sum_cols", lambda t: tape.sum_axis(t, 1), (3, 4)),
    ("reshape", lambda t: tape.reshape(t, (4, 3)), (3, 4)),
    ("narrow_rows", lambda t: tape.narrow(t, 0, 1, 3), (4, 4)),
    ("narrow_cols", lambda t: tape.narrow(t, 1, 0, 2), (4, 4)),
    ("clip", lambda t: tape.clip(t, -0.9, 0.9), (3, 4)),
]


@pytest.mark.parametrize("name,op,shape", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_op_gradients(name, op, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.normal(size=shape) * 2.0
    if name == "clip":
        # keep entries away from the clip thresholds so FD sees a smooth fn
        x = np.where(np.abs(np.abs(x) - 0.9) < 0.05, x + 0.2, x)

    def f(tensors):
        return scalarize(op(tensors[0]), np.random.default_rng(99)).item()

    x_t = Tensor(x)
    auto = ad.backward(scalarize(op(x_t), np.random.default_rng(99))).of(x_t)
    fd = numeric_gradient(f, [x])[0]
    assert relative_error(auto, fd).max() < 1e-5


BINARY_CASES = [
    ("add", tape.add, (3, 4), (3, 4)),
    ("add_row", tape.add, (3, 4), (4,)),
    ("sub", tape.sub, (3, 4), (3, 4)),
    ("mul", tape.mul, (3, 4), (3, 4)),
    ("mul_row", tape.mul, (3, 4), (4,)),
    ("matmul", tape.matmul, (3, 4), (4, 2)),
    ("minimum", tape.minimum, (3, 4), (3, 4)),
    ("maximum", tape.maximum, (3, 4), (3, 4)),
    ("scale_rows", tape.scale_rows, (3, 4), (3,)),
]


@pytest.mark.parametrize(
    "name,op,sa,sb", BINARY_CASES, ids=[c[0] for c in BINARY_CASES]
)
def test_binary_op_gradients(name, op, sa, sb):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    if name in ("minimum", "maximum"):
        b = b + np.sign(b - a) * 0.2  # keep the two operands separated

    def f(tensors):
        return scalarize(op(tensors[0], tensors[1]), np.random.default_rng(5)).item()

    a_t, b_t = Tensor(a), Tensor(b)
    grads = ad.backward(scalarize(op(a_t, b_t), np.random.default_rng(5)))
    fd = numeric_gradient(f, [a, b])
    assert relative_error(grads.of(a_t), fd[0]).max() < 1e-5
    assert relative_error(grads.of(b_t), fd[1]).max() < 1e-5


def test_log_gradient():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 2.0, size=(3, 3))

    def f(tensors):
        return scalarize(tape.log(tensors[0]), np.random.default_rng(5)).item()

    x_t = Tensor(x)
    grads = ad.backward(scalarize(tape.log(x_t), np.random.default_rng(5)))
    fd = numeric_gradient(f, [x])[0]
    assert relative_error(grads.of(x_t), fd).max() < 1e-5


def test_concat_gradients():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))

    def f(tensors):
        return scalarize(tape.concat(tensors, axis=0), np.random.default_rng(5)).item()

    a_t, b_t = Tensor(a), Tensor(b)
    grads = ad.backward(scalarize(tape.concat([a_t, b_t], axis=0), np.random.default_rng(5)))
    fd = numeric_gradient(f, [a, b])
    assert relative_error(grads.of(a_t), fd[0]).max() < 1e-5
    assert relative_error(grads.of(b_t), fd[1]).max() < 1e-5


def test_causal_attention_gradients_on_ragged_segments():
    rng = np.random.default_rng(19)
    lengths, n_heads = [3, 1, 4], 2
    q, k, v = rng.normal(size=(8, 6)), rng.normal(size=(8, 6)), rng.normal(size=(8, 4))

    def out(tensors):
        return scalarize(tape.causal_attention(*tensors, lengths, n_heads)[0],
                         np.random.default_rng(5))

    tensors = [Tensor(q), Tensor(k), Tensor(v)]
    grads = ad.backward(out(tensors))
    fd = numeric_gradient(lambda ts: out(ts).item(), [q, k, v])
    for t, want in zip(tensors, fd):
        assert relative_error(grads.of(t), want).max() < 1e-5


def _tanh_mlp(rng, sizes, heads):
    """An `nn.TanhMlp` on sizes[0] inputs with layers of sizes[1:], every
    parameter redrawn from a normal so no bias sits at its zero init."""
    mlp = nn.TanhMlp(rng, sizes[0], sizes[1:], heads)
    mlp.params = {k: nn.read_only(rng.normal(size=p.shape)) for k, p in mlp.params.items()}
    return mlp


@pytest.mark.parametrize("sizes", [(3, 4), (3, 4, 2)])
def test_tanh_mlp_matches_finite_differences(sizes):
    rng = np.random.default_rng(29)
    mlp = _tanh_mlp(rng, sizes, {"mean": 2, "aux": 1})
    x = rng.normal(size=(5, sizes[0]))
    cots = {"mean": rng.normal(size=(5, 2)), "aux": rng.normal(size=(5, 1))}
    names = sorted(mlp.params)
    grads = mlp.backward(mlp.forward(x), cots)
    arrays = [mlp.params[k] for k in names]

    def out(ts):
        mlp.params = {k: t.data for k, t in zip(names, ts)}
        a = mlp.forward(x)
        return float(sum((a[head] * cot).sum() for head, cot in cots.items()))

    fd = numeric_gradient(out, arrays)
    assert sorted(grads) == names
    for k, want in zip(names, fd, strict=True):
        assert relative_error(grads[k], want).max() < 1e-5, k


def test_tanh_mlp_is_bitwise_the_layer_chain():
    rng = np.random.default_rng(31)
    mlp = _tanh_mlp(rng, (3, 5, 4), {"head": 2})
    x = rng.normal(size=(6, 3))
    leaves = tape.leaves(mlp.params)
    chain = tape.constant(x)
    for name in mlp.layers:
        chain = tape.tanh(tape.linear(chain, leaves[f"{name}_w"], leaves[f"{name}_b"]))
    head = tape.linear(chain, leaves["head_w"], leaves["head_b"])
    cot = rng.normal(size=(6, 2))
    a = mlp.forward(x)
    assert np.array_equal(a["head"], head.data)
    grads = mlp.backward(a, {"head": cot})
    g_chain = ad.backward(tape.sum_all(tape.mul(head, tape.constant(cot))))
    assert sorted(grads) == sorted(leaves)
    for k, t in leaves.items():
        assert np.array_equal(grads[k], g_chain.of(t)), k
    mlp.params = dict(mlp.params, t1_w=mlp.params["t1_w"].T)
    with pytest.raises(ShapeError, match="t1"):
        mlp.forward(x)


def test_no_package_module_imports_the_tape_engine():
    # Only tests build tapes: every package module, the CLI first, imports
    # without loading the engine.
    code = (
        "import pkgutil, sys\n"
        "import rdecomp, rdecomp.cli\n"
        "names = [m.name for m in pkgutil.iter_modules(rdecomp.__path__)]\n"
        "assert 'autodiff' in names and 'cli' in names, names\n"
        "for name in names:\n"
        "    if name != 'autodiff':\n"
        "        __import__(f'rdecomp.{name}')\n"
        "assert 'rdecomp.autodiff' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(rdecomp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_causal_attention_weights_stay_inside_segments():
    rng = np.random.default_rng(23)
    lengths = [2, 1, 3]
    q, k, v = (Tensor(rng.normal(size=(6, 4))) for _ in range(3))
    out, attn = tape.causal_attention(q, k, v, lengths, 2)
    assert out.shape == (6, 4) and attn.shape == (3, 2, 3, 3)
    for b, t_len in enumerate(lengths):
        inside = np.tril(np.ones((t_len, t_len), dtype=bool))
        np.testing.assert_allclose(attn[b, :, :t_len].sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(attn[b, :, :t_len, :t_len][:, ~inside] == 0.0)
        assert np.all(attn[b, :, :t_len, t_len:] == 0.0)
    # the single-row segment attends to itself: its output is its own value row
    np.testing.assert_array_equal(out.data[2], v.data[2])
    with pytest.raises(ShapeError):
        tape.causal_attention(q, k, v, [2, 3], 2)
    with pytest.raises(ShapeError):
        tape.causal_attention(q, k, v, [6, 0], 2)


def test_take_per_row_gradient():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 3))
    idx = np.array([0, 2, 1, 1])

    def f(tensors):
        return scalarize(tape.take_per_row(tensors[0], idx), np.random.default_rng(5)).item()

    x_t = Tensor(x)
    grads = ad.backward(scalarize(tape.take_per_row(x_t, idx), np.random.default_rng(5)))
    fd = numeric_gradient(f, [x])[0]
    assert relative_error(grads.of(x_t), fd).max() < 1e-5


def test_layer_norm_gradients():
    rng = np.random.default_rng(19)
    x, g, b = rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)

    def f(tensors):
        return scalarize(
            tape.layer_norm(tensors[0], tensors[1], tensors[2]), np.random.default_rng(5)
        ).item()

    xs = [Tensor(x), Tensor(g), Tensor(b)]
    grads = ad.backward(scalarize(tape.layer_norm(*xs), np.random.default_rng(5)))
    fd = numeric_gradient(f, [x, g, b])
    for t, ref in zip(xs, fd):
        assert relative_error(grads.of(t), ref).max() < 1e-4


def test_three_layer_net_matches_finite_differences():
    """Composed model gradcheck with the h=1e-5 oracle, several seeds."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        shapes = {"w1": (6, 8), "b1": (8,), "w2": (8, 8), "b2": (8,), "w3": (8, 1), "b3": (1,)}
        arrays = [rng.normal(size=s) * 0.5 for s in shapes.values()]
        x = rng.normal(size=(4, 6))

        def net(tensors):
            w1, b1, w2, b2, w3, b3 = tensors
            h = tape.tanh(tape.add(tape.matmul(tape.constant(x), w1), b1))
            h = tape.sigmoid(tape.add(tape.matmul(h, w2), b2))
            out = tape.add(tape.matmul(h, w3), b3)
            return tape.sum_all(tape.square(out))

        tensors = [Tensor(a) for a in arrays]
        grads = ad.backward(net(tensors))
        fd = numeric_gradient(lambda ts: net(ts).item(), arrays, h=1e-5)
        for t, ref in zip(tensors, fd):
            assert relative_error(grads.of(t), ref).max() < 1e-4


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        w, b = (Tensor(a) for a in nn.init_linear(rng, 5, 3))
        x = tape.constant(rng.normal(size=(4, 5)))
        loss = tape.sum_all(tape.square(tape.tanh(tape.linear(x, w, b))))
        grads = ad.backward(loss)
        return loss.item(), grads.of(w).copy(), grads.of(b).copy()

    l1, gw1, gb1 = run()
    l2, gw2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gb1, gb2)


def test_forward_values_stay_finite():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(5, 5)) * 3)
    causal = np.tril(np.ones((5, 5), dtype=bool))
    for op in (tape.tanh, tape.sigmoid, lambda t: tape.softmax(t, causal), tape.log_softmax):
        assert np.all(np.isfinite(op(x).data))


# ---------------------------------------------------------------------------
# optimizers


def quadratic_tanh_loss(params, x):
    return tape.sum_all(tape.square(tape.tanh(tape.linear(x, params["w"], params["b"]))))


def test_adam_matches_textbook_per_tensor_adam():
    rng = np.random.default_rng(11)
    x = tape.constant(rng.normal(size=(6, 5)))
    w, b = nn.init_linear(rng, 5, 3)
    params = {"w": w, "b": rng.normal(size=3)}
    lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = nn.AdamOptimizer(lr, beta1, beta2, eps)
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(p.shape) for k, p in params.items()}
    v = {k: np.zeros(p.shape) for k, p in params.items()}
    for t in range(1, 4):
        leaves = tape.leaves(params)
        grads = ad.backward(quadratic_tanh_loss(leaves, x))
        (params,) = opt.step([params], tape.flatten_grads(leaves, grads))
        ref_params = tape.leaves(ref)
        grads = ad.backward(quadratic_tanh_loss(ref_params, x))
        for k in ref:
            g = grads.of(ref_params[k])
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            # Kingma & Ba's efficient form (arXiv 1412.6980, end of section 2)
            alpha = lr * math.sqrt(1 - beta2**t) / (1 - beta1**t)
            eps_hat = eps * math.sqrt(1 - beta2**t)
            ref[k] = ref[k] - m[k] * alpha / (np.sqrt(v[k]) + eps_hat)
        assert opt.t == t
        for k in ref:
            assert np.array_equal(params[k], ref[k])
        assert np.array_equal(opt.m, np.concatenate([m["b"], m["w"].reshape(-1)]))
        assert np.array_equal(opt.v, np.concatenate([v["b"], v["w"].reshape(-1)]))


def test_optimizer_steps_return_read_only_views_of_one_vector():
    rng = np.random.default_rng(12)
    x = tape.constant(rng.normal(size=(4, 5)))
    w, b = nn.init_linear(rng, 5, 3)
    params = {"w": w, "b": b}
    for opt in (SgdOptimizer(0.1), nn.AdamOptimizer(0.1)):
        leaves = tape.leaves(params)
        grads = ad.backward(quadratic_tanh_loss(leaves, x))
        (new,) = opt.step([params], tape.flatten_grads(leaves, grads))
        assert {k: p.shape for k, p in new.items()} == {k: p.shape for k, p in params.items()}
        base = new["b"].base
        assert base is not None and all(p.base is base for p in new.values())
        assert not base.flags.writeable
        assert not any(p.flags.writeable for p in new.values())
        assert all(type(p) is np.ndarray and p.dtype == np.float64 for p in new.values())
        assert np.array_equal(nn.layout(new).flatten(new), base)
