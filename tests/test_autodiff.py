import zlib

import numpy as np
import pytest

from fdcheck import numeric_gradient, relative_error
from rdecomp import autodiff as ad
from rdecomp import nn
from rdecomp.autodiff import ShapeError, Tensor


def scalarize(out, rng):
    """Contract an op output to a scalar with a fixed random cotangent."""
    cot = ad.constant(rng.normal(size=out.shape))
    return ad.sum_all(ad.mul(out, cot))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(a, eye).data, a.data)


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(Tensor([[0.0]])).item() == 0.5


def test_softmax_uniform_rows():
    out = ad.softmax(Tensor([[2.5, 2.5, 2.5]]))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_product_rule():
    x, y = Tensor([[3.0]]), Tensor([[5.0]])
    grads = ad.backward(ad.mul(x, y))
    assert grads.of(x) == pytest.approx(5.0)
    assert grads.of(y) == pytest.approx(3.0)


def test_tanh_derivative_at_zero():
    x = Tensor([[0.0]])
    grads = ad.backward(ad.tanh(x))
    assert grads.of(x)[0, 0] == 1.0


def test_backward_rejects_non_scalar_root():
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(Tensor([[1.0, 2.0]]))


def test_matmul_shape_error_reports_dimensions():
    with pytest.raises(ShapeError) as err:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_add_shape_error():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_unreachable_leaf_reads_zero():
    x = Tensor([[1.0]])
    orphan = Tensor([[2.0]])
    grads = ad.backward(ad.sum_all(ad.square(x)))
    assert np.array_equal(grads.of(orphan), np.zeros((1, 1)))
    assert orphan not in grads


def test_gradient_of_constant_is_exactly_zero():
    leaf = Tensor(np.ones((2, 2)))
    loss = ad.sum_all(ad.constant(np.ones((2, 2))))
    assert np.array_equal(ad.backward(loss).of(leaf), np.zeros((2, 2)))


def test_tensors_are_immutable():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.data[0] = 2.0


def test_grad_accumulates_over_reuse():
    x = Tensor([[2.0]])
    # x*x + 3x: derivative 2x + 3 = 7
    loss = ad.sum_all(ad.add(ad.mul(x, x), ad.scale(x, 3.0)))
    assert ad.backward(loss).of(x)[0, 0] == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# finite-difference checks for every primitive


UNARY_CASES = [
    ("tanh", ad.tanh, (3, 4)),
    ("sigmoid", ad.sigmoid, (3, 4)),
    ("exp", ad.exp, (3, 4)),
    ("square", ad.square, (3, 4)),
    ("neg", ad.neg, (3, 4)),
    ("transpose", ad.transpose, (3, 4)),
    ("sum_all", ad.sum_all, (3, 4)),
    ("mean_all", ad.mean_all, (3, 4)),
    ("softmax", ad.softmax, (4, 4)),
    ("softmax_causal", lambda t: ad.softmax(t, causal=True), (4, 4)),
    ("log_softmax", ad.log_softmax, (4, 5)),
    ("scale", lambda t: ad.scale(t, -1.7), (3, 4)),
    ("shift", lambda t: ad.shift(t, 0.3), (3, 4)),
    ("sum_rows", lambda t: ad.sum_axis(t, 0), (3, 4)),
    ("sum_cols", lambda t: ad.sum_axis(t, 1), (3, 4)),
    ("reshape", lambda t: ad.reshape(t, (4, 3)), (3, 4)),
    ("narrow_rows", lambda t: ad.narrow(t, 0, 1, 3), (4, 4)),
    ("narrow_cols", lambda t: ad.narrow(t, 1, 0, 2), (4, 4)),
    ("clip", lambda t: ad.clip(t, -0.9, 0.9), (3, 4)),
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
    ("add", ad.add, (3, 4), (3, 4)),
    ("add_row", ad.add, (3, 4), (4,)),
    ("sub", ad.sub, (3, 4), (3, 4)),
    ("mul", ad.mul, (3, 4), (3, 4)),
    ("mul_row", ad.mul, (3, 4), (4,)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
    ("minimum", ad.minimum, (3, 4), (3, 4)),
    ("maximum", ad.maximum, (3, 4), (3, 4)),
    ("scale_rows", ad.scale_rows, (3, 4), (3,)),
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
        return scalarize(ad.log(tensors[0]), np.random.default_rng(5)).item()

    x_t = Tensor(x)
    grads = ad.backward(scalarize(ad.log(x_t), np.random.default_rng(5)))
    fd = numeric_gradient(f, [x])[0]
    assert relative_error(grads.of(x_t), fd).max() < 1e-5


def test_concat_gradients():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))

    def f(tensors):
        return scalarize(ad.concat(tensors, axis=0), np.random.default_rng(5)).item()

    a_t, b_t = Tensor(a), Tensor(b)
    grads = ad.backward(scalarize(ad.concat([a_t, b_t], axis=0), np.random.default_rng(5)))
    fd = numeric_gradient(f, [a, b])
    assert relative_error(grads.of(a_t), fd[0]).max() < 1e-5
    assert relative_error(grads.of(b_t), fd[1]).max() < 1e-5


def test_take_per_row_gradient():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 3))
    idx = np.array([0, 2, 1, 1])

    def f(tensors):
        return scalarize(ad.take_per_row(tensors[0], idx), np.random.default_rng(5)).item()

    x_t = Tensor(x)
    grads = ad.backward(scalarize(ad.take_per_row(x_t, idx), np.random.default_rng(5)))
    fd = numeric_gradient(f, [x])[0]
    assert relative_error(grads.of(x_t), fd).max() < 1e-5


def test_layer_norm_gradients():
    rng = np.random.default_rng(19)
    x, g, b = rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)

    def f(tensors):
        return scalarize(
            ad.layer_norm(tensors[0], tensors[1], tensors[2]), np.random.default_rng(5)
        ).item()

    xs = [Tensor(x), Tensor(g), Tensor(b)]
    grads = ad.backward(scalarize(ad.layer_norm(*xs), np.random.default_rng(5)))
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
            h = ad.tanh(ad.add(ad.matmul(ad.constant(x), w1), b1))
            h = ad.sigmoid(ad.add(ad.matmul(h, w2), b2))
            out = ad.add(ad.matmul(h, w3), b3)
            return ad.sum_all(ad.square(out))

        tensors = [Tensor(a) for a in arrays]
        grads = ad.backward(net(tensors))
        fd = numeric_gradient(lambda ts: net(ts).item(), arrays, h=1e-5)
        for t, ref in zip(tensors, fd):
            assert relative_error(grads.of(t), ref).max() < 1e-4


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        w, b = nn.init_linear(rng, 5, 3)
        x = ad.constant(rng.normal(size=(4, 5)))
        loss = ad.sum_all(ad.square(ad.tanh(nn.linear(x, w, b))))
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
    for op in (ad.tanh, ad.sigmoid, lambda t: ad.softmax(t, causal=True), ad.log_softmax):
        assert np.all(np.isfinite(op(x).data))
