"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is CPU-only and the heaviest item is the
learning-improvement comparison (criterion 8).
"""

import csv
import json
import os

import numpy as np
import pytest

import reference_estimators
import reference_predictors as reference
from fdcheck import relative_error
from rdecomp import cli, decomposer, envs, nn, oracle, recipes
from rdecomp.buffers import ReplayBuffer
from rdecomp.decomposer import RewardDecomposition
from rdecomp.policies import CategoricalPolicy, GaussianPolicy, ValueNetwork, make_policy
from rdecomp.trainer import rollout, train
from rdecomp.trajectory import Trajectory
from test_estimators import grad_composite_by_interval


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def uniform_policy(env, hidden=(8,)):
    policy = make_policy(np.random.default_rng(0), env, hidden)
    policy.params["head_w"] = np.zeros(policy.params["head_w"].shape)
    policy.params["head_b"] = np.zeros(policy.params["head_b"].shape)
    return policy


# ---------------------------------------------------------------------------
# 1. algebraic identities, per sample, 1000 random triples


def test_criterion_1_algebraic_identities():
    worst_corr, worst_comp = 0.0, 0.0
    policies = [
        CategoricalPolicy(np.random.default_rng(s), 3, 2, hidden=(6,)) for s in range(8)
    ]
    rng = np.random.default_rng(2024)
    for case in range(1000):
        t_len = int(rng.integers(1, 33))
        traj = Trajectory(
            states=rng.normal(size=(t_len, 3)),
            actions=rng.integers(0, 2, size=t_len),
            episodic_return=float(rng.normal() * rng.choice([0.1, 1.0, 10.0])),
        )
        dec = RewardDecomposition.from_values(
            rng.normal(size=t_len) * rng.choice([0.1, 1.0, 10.0]), traj.episodic_return
        )
        policy = policies[case % len(policies)]
        a = reference_estimators.grad_bias_corrected([traj], policy, [dec]).grad
        b = reference_estimators.grad_control_variate([traj], policy, [dec]).grad
        scale = np.abs(a).max() + np.abs(b).max() + 1e-300
        worst_corr = max(worst_corr, float(np.abs(a - b).max() / scale))
        c = reference_estimators.grad_composite([traj], policy, [dec]).grad
        d = grad_composite_by_interval([traj], policy, [dec])
        scale = np.abs(c).max() + np.abs(d).max() + 1e-300
        worst_comp = max(worst_comp, float(np.abs(c - d).max() / scale))
    ok = worst_corr <= 1e-12 and worst_comp <= 1e-12
    report(
        1,
        ok,
        f"1000 triples: corrected-vs-control-variate rel {worst_corr:.2e}, "
        f"composite-forms rel {worst_comp:.2e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# 2 + 3. oracle checks, shared across both criteria


@pytest.fixture(scope="module")
def oracle_reports():
    all_reports = {}
    for name, factory in oracle.BUILTIN_MDPS.items():
        mdp = factory()
        policy = CategoricalPolicy(
            np.random.default_rng(11), mdp.state_dim, mdp.n_actions, hidden=(8,)
        )
        ctx = oracle.OracleContext(mdp, policy)
        reports = []
        for label, fn in cli.make_verify_predictors(mdp, n_inits=20, seed=3):
            rep = oracle.verify_identities(ctx, fn, tol=1e-8)
            rep["predictor"] = label
            reports.append(rep)
        all_reports[name] = reports
    return all_reports


def test_criterion_2_unbiasedness(oracle_reports):
    worst = 0.0
    count = 0
    for name, reports in oracle_reports.items():
        for rep in reports:
            count += 1
            worst = max(worst, rep["checks"]["corrected_matches_true_gradient"]["max_abs_error"])
    ok = worst <= 1e-8 and len(oracle_reports) >= 3
    report(
        2,
        ok,
        f"{len(oracle_reports)} MDPs x {count // len(oracle_reports)} predictors "
        f"(incl. badly fit): corrected estimator vs exact gradient, max err {worst:.2e} (tol 1e-8)",
    )


def test_criterion_3_zero_mean_control_variate(oracle_reports):
    worst_a = worst_d = 0.0
    for reports in oracle_reports.values():
        for rep in reports:
            worst_a = max(worst_a, rep["checks"]["interval_score_orthogonality"]["max_abs_error"])
            worst_d = max(worst_d, rep["checks"]["complement_zero_mean"]["max_abs_error"])
    ok = worst_a <= 1e-8 and worst_d <= 1e-8
    report(
        3,
        ok,
        f"interval/score orthogonality max {worst_a:.2e}, "
        f"complement zero-mean max {worst_d:.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 4. gradient correctness, 100 seeds across the five model families


def _probe_coordinates(params, rng, per_tensor=3):
    coords = []
    for name in sorted(params):
        size = params[name].size
        picks = rng.choice(size, size=min(per_tensor, size), replace=False)
        coords.extend((name, int(i)) for i in picks)
    return coords


def _fd_check(params, loss_grad, rng, h=1e-5):
    """Compare a flat gradient against central differences on probed
    coordinates; loss_grad(params) returns the loss and that gradient."""
    grads = nn.layout(params).views(loss_grad(params)[1])
    worst = 0.0
    for name, flat_idx in _probe_coordinates(params, rng):
        base = params[name]
        bump = np.zeros(base.size)
        bump[flat_idx] = h
        bump = bump.reshape(base.shape)
        up = dict(params)
        up[name] = base + bump
        down = dict(params)
        down[name] = base - bump
        fd = (loss_grad(up)[0] - loss_grad(down)[0]) / (2 * h)
        auto = grads[name].reshape(-1)[flat_idx]
        worst = max(worst, float(relative_error(auto, fd, floor=1e-6)))
    return worst


def test_criterion_4_gradient_correctness():
    worst = 0.0
    n_runs = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data_rng = np.random.default_rng(1000 + seed)
        t_len = 5

        for arch in ("ff", "recurrent", "attention"):
            model = decomposer.make_predictor(arch, 5, rng)
            traj = Trajectory(
                states=data_rng.normal(size=(t_len, 3)),
                actions=data_rng.normal(size=(t_len, 2)),
                episodic_return=float(data_rng.normal()),
            )

            def loss_grad(params, model=model, traj=traj):
                model.params = params
                return decomposer.loss_grad(model, *reference.stacked(model, [traj]))

            worst = max(worst, _fd_check(model.params, loss_grad, data_rng))
            n_runs += 1

        # PPO minibatch losses with ratios near e^-0.5, 1 and e^0.5, well
        # away from the clip range's kinks at 0.8 and 1.2
        states = data_rng.normal(size=(t_len, 4))
        adv = data_rng.normal(size=t_len)
        offsets = data_rng.choice([-0.5, 0.0, 0.5], size=t_len)
        offsets += data_rng.uniform(-0.05, 0.05, size=t_len)
        cat = CategoricalPolicy(rng, 4, 3, hidden=(8, 8))
        gauss = GaussianPolicy(rng, 4, 2, hidden=(8, 8))
        for policy, actions in ((cat, data_rng.integers(0, 3, size=t_len)),
                                (gauss, data_rng.normal(size=(t_len, 2)))):
            old_logp = policy.log_prob_np(states, actions) - offsets

            def ppo_loss(params, policy=policy, actions=actions, old_logp=old_logp):
                policy.params = params
                return policy.ppo_loss_grad(states, actions, old_logp, adv, 0.2, 0.01)

            worst = max(worst, _fd_check(policy.params, ppo_loss, data_rng))

        value = ValueNetwork(rng, 4, hidden=(8, 8))
        t_r = data_rng.normal(size=t_len)
        t_0 = data_rng.normal(size=t_len)

        def value_loss(params):
            value.params = params
            return value.loss_grad(states, t_r, t_0)

        worst = max(worst, _fd_check(value.params, value_loss, data_rng))
        n_runs += 3
    ok = worst < 1e-4
    report(
        4,
        ok,
        f"{n_runs} gradchecks (3 reward architectures, both policies' PPO losses and the "
        f"value loss, 20 seeds each): "
        f"max rel err vs central differences {worst:.2e} (tol 1e-4)",
    )


# ---------------------------------------------------------------------------
# 5. causality, fuzzed


def test_criterion_5_causality_fuzz():
    cases = 0
    rng = np.random.default_rng(7)
    archs = ["ff", "recurrent", "attention"]
    while cases < 200:
        arch = archs[cases % len(archs)]
        t_len = int(rng.integers(2, 10))
        model = decomposer.make_predictor(arch, 5, np.random.default_rng(cases))
        x = rng.normal(size=(t_len, 5))
        cut = int(rng.integers(1, t_len))
        bumped = x.copy()
        bumped[cut:] += rng.normal(size=(t_len - cut, 5)) * rng.choice([1e-6, 1.0, 1e3])

        base, after = (model.forward(rows, [t_len])["rhat"] for rows in (x, bumped))
        if not np.array_equal(base[:cut], after[:cut]):
            report(5, False, f"case {cases}: {arch} leaked future inputs at cut {cut}")
        cases += 1
    report(5, True, f"{cases} fuzz cases, outputs before the perturbed step exactly unchanged")


def test_batch_isolation_fuzz():
    """Criterion 5 across a minibatch: trajectories share one tape, so
    perturbing any step of trajectory j must leave every other
    trajectory's rewards bit-identical."""
    cases = 0
    rng = np.random.default_rng(8)
    archs = ["ff", "recurrent", "attention"]
    while cases < 80:
        arch = archs[cases % len(archs)]
        lengths = rng.integers(1, 10, size=int(rng.integers(2, 6)))
        model = decomposer.make_predictor(arch, 5, np.random.default_rng(cases))
        x = rng.normal(size=(int(lengths.sum()), 5))
        j = int(rng.integers(len(lengths)))
        row = int(lengths[:j].sum() + rng.integers(lengths[j]))
        bumped = x.copy()
        bumped[row] += rng.normal(size=5) * rng.choice([1e-6, 1.0, 1e3])
        base = model.forward(x, lengths)["rhat"]
        after = model.forward(bumped, lengths)["rhat"]
        others = np.repeat(np.arange(len(lengths)), lengths) != j
        assert np.array_equal(base[others], after[others]), (
            f"case {cases}: {arch} lengths {lengths.tolist()}: "
            f"perturbing trajectory {j} moved another trajectory's rewards"
        )
        cases += 1


# ---------------------------------------------------------------------------
# 6 + 7. regression convergence, then variance ordering with the fit model


@pytest.fixture(scope="module")
def converged_chain_decomposer():
    env = envs.ChainMdp(5, 8)
    policy = uniform_policy(env)
    rng = np.random.default_rng(42)
    trajs = []
    while len(trajs) < 250:
        trajs.extend(rollout(policy, env, 200, rng))
    buffered, held_out = trajs[:200], trajs[200:250]

    model = decomposer.make_predictor("attention", env.state_dim + 2, np.random.default_rng(1))
    norm = decomposer.ReturnNormalizer()
    norm.update([t.episodic_return for t in buffered])
    opt = nn.AdamOptimizer(1e-3)  # the published reward-predictor rate

    def full_loss():
        return decomposer.loss_grad(model, *reference.stacked(model, buffered, norm))[0]

    initial = full_loss()
    steps = 0
    reg_rng = np.random.default_rng(2)
    while steps < 3000:
        order = reg_rng.permutation(len(buffered))
        for s in range(0, len(buffered), 16):
            chunk = [buffered[i] for i in order[s : s + 16]]
            decomposer.regression_step(model, *reference.stacked(model, chunk, norm), opt)
            steps += 1
            if steps >= 3000:
                break
    return {
        "env": env,
        "policy": policy,
        "model": model,
        "norm": norm,
        "initial": initial,
        "final": full_loss(),
        "held_out": held_out,
        "steps": steps,
    }


def test_criterion_6_regression_convergence(converged_chain_decomposer):
    fit = converged_chain_decomposer
    ratio = fit["initial"] / max(fit["final"], 1e-300)
    violations = 0
    worst = 0.0
    held_out = fit["held_out"]
    decomps = decomposer.predict(fit["model"], held_out, fit["norm"])
    for traj, dec in zip(held_out, decomps, strict=True):
        err = abs(dec.composite - traj.episodic_return)
        bound = 0.05 * abs(traj.episodic_return) + 0.05
        worst = max(worst, err)
        violations += err >= bound
    ok = ratio >= 100.0 and violations == 0 and fit["steps"] <= 5000
    report(
        6,
        ok,
        f"loss {fit['initial']:.1f} -> {fit['final']:.4f} ({ratio:.0f}x in {fit['steps']} steps, "
        f"need >=100x within 5000); held-out worst |R_hat - R| {worst:.4f}, {violations}/50 violations",
    )


def test_criterion_7_variance_ordering(converged_chain_decomposer):
    fit = converged_chain_decomposer
    env, policy = fit["env"], fit["policy"]
    wins = 0
    details = []
    for seed in range(5):
        batch_rng = np.random.default_rng(9000 + seed)
        cv_total = rf_total = 0.0
        for _ in range(200):
            batch = rollout(policy, env, 40, batch_rng)
            decomps = decomposer.predict(fit["model"], batch, fit["norm"])
            cv_total += reference_estimators.grad_control_variate(batch, policy, decomps).variance
            rf_total += reference_estimators.grad_reinforce(batch, policy).variance
        wins += cv_total < rf_total
        details.append(f"seed {seed}: {cv_total / 200:.3e} vs {rf_total / 200:.3e}")
    ok = wins >= 4
    report(7, ok, f"control-variate variance below REINFORCE on {wins}/5 seeds (need >=4); " + "; ".join(details))


# ---------------------------------------------------------------------------
# 8. learning improvement over the episodic baseline


def _final_window_scores(curves, fraction=0.1):
    scores = []
    for curve in curves:
        window = max(1, int(len(curve) * fraction))
        scores.append(float(np.mean(curve[-window:])))
    return np.array(scores)


def _whole_curve_scores(curves):
    """Mean return over every iteration: the normalized area under the
    learning curve, which measures how fast a method learns."""
    return np.array([float(np.mean(curve)) for curve in curves])


def _run_learning_comparison(env_name, env_params, seeds, iterations):
    """The `learning-curves` recipe's runs on one env, which must be the
    given one at the given length."""
    experiments = dict(recipes.learning_curves(seeds))
    curves = {"full": [], "baseline": []}
    for mode in ("full", "baseline"):
        config = experiments[f"{env_name}-{mode}"].train
        assert (config.env_params, config.iterations) == (env_params, iterations)
        for seed in seeds:
            result = train(config, seed=seed)
            curves[mode].append([row["return_mean"] for row in result.metrics])
    return curves


@pytest.mark.parametrize(
    "env_name,env_params,iterations",
    [("grid", {"size": 4, "horizon": 16}, 60), ("chain", {"n_states": 8, "horizon": 12}, 60)],
)
def test_criterion_8_learning_improvement(env_name, env_params, iterations):
    """Learning efficiency: the return is 0 or 1 (goal reached within the
    horizon), and the baseline reaches 1 well before the last iteration, so
    the comparison is on the whole learning curve rather than its end."""
    seeds = [1, 2, 3, 4, 5]
    curves = _run_learning_comparison(env_name, env_params, seeds, iterations)
    full = _whole_curve_scores(curves["full"])
    base = _whole_curve_scores(curves["baseline"])
    final_full = _final_window_scores(curves["full"])
    final_base = _final_window_scores(curves["baseline"])
    lower_full = full.mean() - full.std()
    upper_base = base.mean() + base.std()
    ok = full.mean() > base.mean() and lower_full > upper_base
    report(
        8,
        ok,
        f"{env_name}: whole-curve mean return full {full.mean():.3f}+-{full.std():.3f} vs "
        f"baseline {base.mean():.3f}+-{base.std():.3f} over {len(seeds)} seeds "
        f"(need non-overlapping mean+-1std); final-window return full "
        f"{final_full.mean():.3f}+-{final_full.std():.3f} vs baseline "
        f"{final_base.mean():.3f}+-{final_base.std():.3f}",
    )


# ---------------------------------------------------------------------------
# 9. ablation harness completes and bias-corrected runs stay finite


def test_criterion_9_ablation_harness(tmp_path, monkeypatch):
    monkeypatch.setenv("RDECOMP_OUTPUT_ROOT", str(tmp_path))
    code = cli.main(
        ["bench", "--recipe", "ablation-grid", "--seeds", "1", "--iterations", "2",
         "--ppo-batch", "60"]
    )
    pairs = recipes.expand("ablation-grid")
    completed = 0
    diverged = []
    for name, _ in pairs:
        metrics = tmp_path / "ablation-grid" / name / "metrics_seed1.csv"
        if not metrics.exists():
            continue
        rows = list(csv.DictReader(metrics.open()))
        if len(rows) == 2:
            completed += 1
        if "-bias-" in name or name.endswith("bias-lr0.01") or name.endswith("bias-lr0.001"):
            for row in rows:
                if not np.isfinite(float(row["regression_loss"])):
                    diverged.append(name)
    ok = code == 0 and completed == len(pairs) and not diverged
    report(
        9,
        ok,
        f"{completed}/{len(pairs)} grid configurations completed "
        f"(schemes x architectures x bias, reward lr 1e-2 and 1e-3); diverged: {diverged or 'none'}",
    )


# ---------------------------------------------------------------------------
# 10. buffer scheme properties


def _traj_with_return(ret, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        states=rng.normal(size=(2, 3)),
        actions=rng.integers(0, 2, size=2),
        episodic_return=float(ret),
    )


def test_criterion_10_buffer_properties():
    # FIFO order
    buf = ReplayBuffer("O", capacity=3)
    items = [_traj_with_return(i, seed=i) for i in range(6)]
    buf.insert(items)
    fifo_ok = buf.contents() == items[3:]

    # top-K equals a naive full sort after every insert
    rng = np.random.default_rng(1)
    buf = ReplayBuffer("HO", capacity=5)
    seen = []
    topk_ok = True
    for i in range(40):
        t = _traj_with_return(float(rng.normal()), seed=100 + i)
        seen.append(t)
        buf.insert([t])
        want = sorted((x.episodic_return for x in seen), reverse=True)[: min(5, len(seen))]
        got = sorted((x.episodic_return for _, _, x in buf.historical), reverse=True)
        topk_ok = topk_ok and got == want

    # stratified sampling histogram within 10% of uniform
    rng = np.random.default_rng(2)
    buf = ReplayBuffer("S", reservoir_capacity=500, seed=3)
    buf.insert([_traj_with_return(rng.uniform(0, 100), seed=i) for i in range(500)])
    edges = np.linspace(0, 100, 6)
    counts = np.zeros(5)
    for _ in range(1000):
        rets = np.array([t.episodic_return for t in buf.sample(50)])
        counts += np.bincount(
            np.clip(np.searchsorted(edges, rets, side="right") - 1, 0, 4), minlength=5
        )
    deviation = float(np.abs(counts / counts.sum() - 0.2).max() / 0.2)
    strat_ok = deviation < 0.10

    ok = fifo_ok and topk_ok and strat_ok
    report(
        10,
        ok,
        f"FIFO {'ok' if fifo_ok else 'BROKEN'}, top-K vs naive sort {'ok' if topk_ok else 'BROKEN'}, "
        f"stratified histogram deviation {deviation:.1%} (need <10%)",
    )
