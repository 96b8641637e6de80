"""`nn.AdamOptimizer` writes its moments in place and starts each step from
the flat vector behind the parameters it returned last; these tests hold it
to the out-of-place formula in tests/reference_adam.py, bit for bit, on one
parameter dict and on a pair laid end to end."""

import numpy as np
import pytest
from reference_adam import ReferenceAdam

from rdecomp import decomposer, envs, nn
from rdecomp.policies import ValueNetwork, make_policy


def grid_policy_params():
    env = envs.make_env("grid", {"size": 4, "horizon": 16})
    return make_policy(np.random.default_rng(0), env, (64, 64)).params


def grid_value_params():
    return ValueNetwork(np.random.default_rng(7), 16, (64, 64)).params


def attention_params():
    return decomposer.make_predictor("attention", 20, np.random.default_rng(1)).params


MODELS = {"grid-policy": grid_policy_params, "attention": attention_params}


def n_params(params):
    return sum(p.size for p in params.values())


def gradients(size, n, seed):
    """n gradients of varied scale, with some exact zeros."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        g = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 2, size=size)
        g[rng.random(size) < 0.05] = 0.0
        yield g


def assert_same_state(opt, ref, params, want):
    assert opt.t == ref.t
    assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)
    assert params.keys() == want.keys()
    assert all(np.array_equal(params[k], want[k]) for k in want)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_in_place_steps_are_bitwise_the_out_of_place_formula(model):
    params = want = MODELS[model]()
    opt, ref = nn.AdamOptimizer(3e-3), ReferenceAdam(3e-3)
    size = n_params(params)
    for i, g in enumerate(gradients(size, 24, seed=2)):
        if i == 12:
            # a dict the optimizer did not return, as after an abort or a restore
            params = dict(params)
        (params,), want = opt.step([params], g), ref.step(want, g)
        assert_same_state(opt, ref, params, want)


def test_a_pair_step_is_bitwise_two_steps_of_the_reference():
    # the policy and the value net of the PPO update: one Adam, one gradient
    # laid end to end, against one reference Adam per network
    pair = want = (grid_policy_params(), grid_value_params())
    opt, refs = nn.AdamOptimizer(3e-3), (ReferenceAdam(3e-3), ReferenceAdam(3e-3))
    split = n_params(pair[0])
    for i, g in enumerate(gradients(split + n_params(pair[1]), 24, seed=8)):
        if i == 12:
            pair = (pair[0], dict(pair[1]))
        pair = opt.step(pair, g)
        want = [ref.step(w, part) for ref, w, part in zip(refs, want, (g[:split], g[split:]))]
        assert opt.t == refs[0].t == refs[1].t
        assert np.array_equal(opt.m, np.concatenate([ref.m for ref in refs]))
        assert np.array_equal(opt.v, np.concatenate([ref.v for ref in refs]))
        for params, w in zip(pair, want, strict=True):
            assert params.keys() == w.keys()
            assert all(np.array_equal(params[k], w[k]) for k in w)


def test_returned_parameters_never_change_or_share_memory():
    params = attention_params()
    opt = nn.AdamOptimizer(1e-2)
    returned = []
    for g in gradients(n_params(params), 20, seed=3):
        (params,) = opt.step([params], g)
        returned.append((params, {k: p.copy() for k, p in params.items()}))
    bases = [next(iter(p.values())).base for p, _ in returned]
    assert len({id(b) for b in bases}) == len(bases)
    assert not any(np.shares_memory(b, opt.m) or np.shares_memory(b, opt.v) for b in bases)
    for params, copies in returned:
        assert not any(p.flags.writeable for p in params.values())
        assert all(np.array_equal(params[k], copies[k]) for k in copies)


def test_a_rebound_entry_of_a_returned_dict_is_read():
    params = grid_policy_params()
    opt, ref = nn.AdamOptimizer(1e-2), ReferenceAdam(1e-2)
    g = next(gradients(n_params(params), 1, seed=4))
    (params,), want = opt.step([params], g), ref.step(params, g)
    params["head_b"] = want["head_b"] = nn.read_only(np.ones(params["head_b"].shape))
    assert_same_state(opt, ref, opt.step([params], g)[0], ref.step(want, g))


def test_wrong_size_gradient_leaves_a_fresh_optimizer_untouched():
    params = grid_policy_params()
    size = n_params(params)
    opt, ref = nn.AdamOptimizer(1e-3), ReferenceAdam(1e-3)
    with pytest.raises(ValueError) as exc:
        opt.step([params], np.ones(size + 1))
    assert opt.t == 0 and opt.m.size == 0 and opt.v.size == 0
    assert f"(size {size + 1}) for {size} parameters" in str(exc.value)
    g = next(gradients(size, 1, seed=5))
    assert_same_state(opt, ref, opt.step([params], g)[0], ref.step(params, g))


@pytest.mark.parametrize("shape", [(3,), (1, "size"), ("size", 1)])
def test_wrong_size_gradient_leaves_a_running_optimizer_untouched(shape):
    params = want = attention_params()
    size = n_params(params)
    opt, ref = nn.AdamOptimizer(1e-3), ReferenceAdam(1e-3)
    grads = list(gradients(size, 3, seed=6))
    for g in grads[:2]:
        (params,), want = opt.step([params], g), ref.step(want, g)
    t, m, v = opt.t, opt.m.copy(), opt.v.copy()
    bad = np.ones([size if n == "size" else n for n in shape])
    with pytest.raises(ValueError) as exc:
        opt.step([params], bad)
    assert opt.t == t and np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    assert f"{bad.shape} (size {bad.size}) for {size} parameters" in str(exc.value)
    assert_same_state(opt, ref, opt.step([params], grads[2])[0], ref.step(want, grads[2]))


def test_layout_flattens_vectors_and_writes_row_blocks():
    params = attention_params()
    lay = nn.layout(params)
    assert lay is nn.layout(dict(params)) and lay.size == n_params(params)
    flat = np.concatenate([params[k].reshape(-1) for k in sorted(params)])
    assert np.array_equal(lay.flatten(params), flat)
    views = lay.views(flat.copy())
    assert all(np.array_equal(views[k], params[k]) for k in params)
    out = np.empty((3, lay.size))
    blocks = lay.blocks(out)
    for k, p in params.items():
        blocks[k][...] = np.stack([p, 2.0 * p, -p])
    assert np.array_equal(out, np.stack([flat, 2.0 * flat, -flat]))
    row = np.empty(lay.size)
    for k, block in lay.blocks(row).items():
        block[...] = params[k]
    assert np.array_equal(row, flat)
    with pytest.raises(ValueError, match=f"parameters need {lay.size}"):
        lay.views(np.zeros(lay.size - 1))


def test_folded_steps_agree_with_algorithm_1_as_printed():
    # Algorithm 1 of Kingma & Ba (arXiv 1412.6980) divides by both bias
    # corrections; the folded form differs from it by rounding alone. The
    # gradients never depend on the parameters and keep one sign per
    # coordinate, so from 0 both runs move each coordinate one way and
    # agree to a relative 1e-12. Coordinates 0-9 always see 0 (v stays 0:
    # the update is 0 over eps), and 10-19 see ~1e-9, where eps is as
    # large as sqrt(v_hat).
    lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
    size = 300
    rng = np.random.default_rng(9)
    signs = rng.choice([-1.0, 1.0], size=size)
    opt, params = nn.AdamOptimizer(lr, beta1, beta2, eps), {"x": np.zeros(size)}
    want, m, v = np.zeros(size), np.zeros(size), np.zeros(size)
    for t, g in enumerate(gradients(size, 200, seed=10), start=1):
        g = np.abs(g) * signs
        g[:10] = 0.0
        g[10:20] = np.abs(rng.normal(size=10)) * 1e-9 * signs[10:20]
        (params,) = opt.step([params], g)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        want = want - lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(params["x"], want, rtol=1e-12, atol=0)
    assert not params["x"][:10].any() and np.abs(params["x"][10:]).min() > 1e-3
