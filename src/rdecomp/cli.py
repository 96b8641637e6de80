"""Command-line entry points.

  rdecomp train --config exp.json [--resume]
  rdecomp verify [--mdp NAME | --spec PATH] [--inits N] [--tol T] [--out report.json]
  rdecomp export-attention --ckpt model.json --traj rollouts.jsonl --out attn.csv
  rdecomp bench --recipe NAME [--seeds 1,2,3] [--iterations N] ...

A relative run directory of `train` or `bench` (its `output_dir` or
`--output-root`) resolves under $RDECOMP_OUTPUT_ROOT (default ./runs).
Every other path, `verify --out` and `export-attention --out` among them,
is an ordinary path: a relative one resolves against the working directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import zlib

import numpy as np

from rdecomp import config as config_mod
from rdecomp import decomposer, nn, oracle, recipes, trainer
from rdecomp.checkpoint import CheckpointError, load as load_checkpoint, write_atomic
from rdecomp.policies import CategoricalPolicy
from rdecomp.trajectory import read_jsonl


def _output_root():
    return os.environ.get("RDECOMP_OUTPUT_ROOT", "runs")


def _resolve(path):
    return path if os.path.isabs(path) else os.path.join(_output_root(), path)


# ---------------------------------------------------------------------------
# train


# The fields that shape a run's models, env and buffer: a resume keeps them.
_RESUME_FIXED = ("env", "env_params", "architecture", "hidden", "use_decomposer",
                "buffer_scheme", "buffer_capacity", "reservoir_capacity")


def _check_resumable(config_path, train):
    """CheckpointError unless the run's saved config has every _RESUME_FIXED
    field of `train`."""
    try:
        saved = config_mod.load(config_path).train
    except (OSError, config_mod.ConfigError) as exc:
        raise CheckpointError(f"the run's config.json does not load: {exc}") from exc
    for name in _RESUME_FIXED:
        was, now = getattr(saved, name), getattr(train, name)
        if was != now:
            raise CheckpointError(f"{name} is {was!r} in the run's config.json, {now!r} here")


def _run_training(experiment, resume=False):
    out_dir = _resolve(experiment.output_dir)
    config_path = os.path.join(out_dir, "config.json")
    if resume and os.path.exists(config_path):
        _check_resumable(config_path, experiment.train)
    os.makedirs(out_dir, exist_ok=True)
    config_mod.save(config_path, experiment)
    for seed in experiment.seeds:
        run = trainer.Trainer(experiment.train, seed)
        suffix = f"_seed{seed}"
        state_file = os.path.join(out_dir, f"state{suffix}.json")
        resuming = resume and os.path.exists(state_file)
        if resuming:
            run.restore(out_dir, suffix)
        writer = trainer.MetricsWriter(
            os.path.join(out_dir, f"metrics{suffix}.csv"), run.iteration if resuming else None
        )
        # Save at iteration boundaries only, so --resume after a crash is exact.
        if not resuming:
            run.save(out_dir, suffix)
        try:
            while run.iteration < experiment.train.iterations:
                row, _ = run.step()
                writer.write(row)
                run.save(out_dir, suffix)
                print(
                    f"[{experiment.name} seed {seed}] iter {row['iteration']}"
                    f" return {row['return_mean']:.3f}"
                    f" regression {row['regression_loss']:.4f}"
                )
        finally:
            writer.close()
    return out_dir


def cmd_train(args):
    try:
        experiment = config_mod.load(args.config)
    except config_mod.ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        _run_training(experiment, resume=args.resume)
    except CheckpointError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify


# What reading a user's file can raise: a missing or unreadable file, bad
# JSON, a missing key, a value of the wrong type or shape.
_BAD_FILE = (OSError, KeyError, TypeError, ValueError)


def _spec_mdp(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rewards = np.asarray(doc["step_rewards"], dtype=np.float64)
    if rewards.shape != (doc["n_states"], doc["n_actions"]):
        raise ValueError(f"step_rewards has shape {rewards.shape},"
                         f" expected ({doc['n_states']}, {doc['n_actions']})")
    return oracle.TabularMdp(
        doc["n_states"],
        doc["n_actions"],
        doc["horizon"],
        transition=np.asarray(doc["transition"], dtype=np.float64),
        initial_dist=np.asarray(doc["initial_dist"], dtype=np.float64),
        step_rewards=lambda s, a, s2: float(rewards[s, a]),
        terminal=frozenset(doc.get("terminal", [])),
        name=doc.get("name", os.path.basename(path)),
    )


def _chaotic_predictor(base):
    """A batch function of the chaotic adversary: value t is a normal draw
    (std 25) seeded by a running CRC over steps 0..t, seeded itself by
    `base`, so the adversary stays causal. The draws are kept by digest in
    this closure, so a prefix that many trajectories share draws once."""
    drawn = {}

    def predict(batch):
        out = []
        for traj in batch:
            digest = zlib.crc32(bytes([base % 256]))
            values = np.empty(traj.length)
            for t in range(traj.length):
                digest = zlib.crc32(traj.states[t].tobytes() + traj.actions[t].tobytes(), digest)
                if digest not in drawn:
                    drawn[digest] = np.random.default_rng(digest).normal(0.0, 25.0)
                values[t] = drawn[digest]
            out.append(decomposer.RewardDecomposition.from_values(values, traj.episodic_return))
        return out

    return predict


def make_verify_predictors(mdp, n_inits, seed=0):
    """Reward predictors to throw at the oracle: freshly initialized
    decomposer models of every architecture, plus deliberately badly fit
    variants (parameters blown up 50x, and a causal pseudo-random function
    of the trajectory prefix that ignores the return entirely: its value
    for interval t depends on steps 0..t alone).

    Each predictor is a batch function, as `oracle.verify_identities`
    takes: a list of trajectories in, their decompositions out. A model
    predicts a whole chunk in one forward pass; the chaotic adversary
    hashes each trajectory's prefixes, drawing once per distinct prefix
    over all the calls made to it."""
    input_dim = mdp.n_states + mdp.n_actions
    rotation = ["attention", "recurrent", "ff"]
    fns = []
    for i in range(n_inits):
        rng = np.random.default_rng(seed * 1000 + i)
        arch = rotation[i % len(rotation)]
        model = decomposer.make_predictor(arch, input_dim, rng)
        if i % 4 == 3:
            model.params = {k: nn.read_only(p * 50.0) for k, p in model.params.items()}

        def fn(batch, model=model):
            return decomposer.predict(model, batch)

        fns.append((f"{arch}-{model.kind}{'-blown' if i % 4 == 3 else ''}-{i}", fn))
        if i % 5 == 4:
            fns.append((f"chaotic-{i}", _chaotic_predictor(i)))
    return fns


def run_verification(mdps, n_inits=6, tol=1e-8, seed=0):
    """Identity checks for each MDP; returns the machine-readable report."""
    results = {}
    for mdp in mdps:
        policy = CategoricalPolicy(
            np.random.default_rng(seed + 7), mdp.state_dim, mdp.n_actions, hidden=(16,)
        )
        ctx = oracle.OracleContext(mdp, policy)
        reports = []
        for label, fn in make_verify_predictors(mdp, n_inits, seed):
            report = oracle.verify_identities(ctx, fn, tol)
            report["predictor"] = label
            reports.append(report)
        results[mdp.name] = reports
    overall = all(r["pass"] for rs in results.values() for r in rs)
    return {"pass": overall, "tolerance": tol, "mdps": results}


def cmd_verify(args):
    if args.inits < 1:
        print(f"--inits must be at least 1, got {args.inits}", file=sys.stderr)
        return 2
    if args.spec:
        try:
            mdps = [_spec_mdp(args.spec)]
        except _BAD_FILE as exc:
            print(f"cannot load the MDP spec {args.spec}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
    elif args.mdp:
        if args.mdp not in oracle.BUILTIN_MDPS:
            print(
                f"unknown MDP {args.mdp!r}; builtin: {sorted(oracle.BUILTIN_MDPS)}",
                file=sys.stderr,
            )
            return 2
        mdps = [oracle.BUILTIN_MDPS[args.mdp]()]
    else:
        mdps = [factory() for factory in oracle.BUILTIN_MDPS.values()]
    report = run_verification(mdps, n_inits=args.inits, tol=args.tol)
    for mdp_name, reports in report["mdps"].items():
        for rep in reports:
            for check, payload in rep["checks"].items():
                status = "PASS" if payload["pass"] else "FAIL"
                print(
                    f"{status}  {mdp_name:8s} {rep['predictor']:28s} {check:32s}"
                    f" max_err={payload['max_abs_error']:.3e}"
                )
    if args.out:
        write_atomic(args.out, json.dumps(report, indent=1))
        print(f"report written to {args.out}")
    print(""
          f"overall: {'PASS' if report['pass'] else 'FAIL'} (tolerance {report['tolerance']})")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# export-attention


def cmd_export_attention(args):
    try:
        params, meta = load_checkpoint(args.ckpt)
    except _BAD_FILE as exc:
        print(f"cannot load the checkpoint {args.ckpt}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if meta.get("architecture") != "attention":
        print(
            f"checkpoint holds a {meta.get('architecture')!r} predictor;"
            " only the attention architecture has attention maps to export",
            file=sys.stderr,
        )
        return 2
    try:
        model = decomposer.predictor_from_checkpoint(params, meta)
    except ValueError as exc:
        print(f"cannot rebuild the predictor: {exc}", file=sys.stderr)
        return 2
    try:
        trajectories = read_jsonl(args.traj)
    except _BAD_FILE as exc:
        print(f"cannot load the trajectories {args.traj}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    if not 0 <= args.index < len(trajectories):
        print(
            f"--index {args.index} is out of range: the trajectory file holds"
            f" {len(trajectories)} trajectories",
            file=sys.stderr,
        )
        return 2
    traj = trajectories[args.index]
    out = model.forward(decomposer.input_rows(model, [traj]), [traj.length])
    z, attn = out["z"], out["attn"]
    values = out["rhat"].reshape(-1)
    norm_state = meta.get("normalizer")
    if norm_state:
        normalizer = decomposer.ReturnNormalizer.from_state(norm_state)
        values = decomposer.destandardize(values, [traj.length], normalizer)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["t", "z", "r_hat"])
    for t in range(traj.length):
        writer.writerow([t, float(z[t, 0]), float(values[t])])
    write_atomic(args.out, text.getvalue())
    stem = os.path.splitext(args.out)[0]
    for h, head in enumerate(attn[0]):
        text = io.StringIO()
        np.savetxt(text, head, delimiter=",")
        write_atomic(f"{stem}_head{h}.csv", text.getvalue())
    print(f"wrote {args.out} and {len(attn[0])} attention matrices")
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args):
    overrides = {}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.ppo_batch is not None:
        overrides["ppo_batch"] = args.ppo_batch
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    except ValueError:
        print(f"--seeds takes comma-separated integers, got {args.seeds!r}", file=sys.stderr)
        return 2
    try:
        pairs = recipes.expand(args.recipe, seeds=seeds, **overrides)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # relative: _run_training resolves it against the output root
    root = args.output_root or args.recipe
    failures = []
    for name, experiment in pairs:
        experiment.output_dir = os.path.join(root, name)
        print(f"=== {args.recipe}/{name} ===")
        try:
            _run_training(experiment)
        except Exception as exc:  # a diverged run should not kill the sweep
            failures.append((name, repr(exc)))
            print(f"FAILED {name}: {exc}", file=sys.stderr)
    print(f"completed {len(pairs) - len(failures)}/{len(pairs)} configurations")
    for name, err in failures:
        print(f"  failed: {name}: {err}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rdecomp",
        description="Episodic-return decomposition and policy-gradient training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--resume", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="exact-enumeration identity checks")
    p_verify.add_argument("--mdp", help="builtin MDP name")
    p_verify.add_argument("--spec", help="path to a JSON MDP spec")
    p_verify.add_argument("--inits", type=int, default=6)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export-attention", help="dump importance weights and attention maps"
    )
    p_export.add_argument("--ckpt", required=True)
    p_export.add_argument("--traj", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--index", type=int, default=0)
    p_export.set_defaults(func=cmd_export_attention)

    p_bench = sub.add_parser("bench", help="run a named comparison recipe")
    p_bench.add_argument("--recipe", required=True)
    p_bench.add_argument("--output-root")
    p_bench.add_argument("--seeds", help="comma-separated seed list")
    p_bench.add_argument("--iterations", type=int)
    p_bench.add_argument("--ppo-batch", type=int, dest="ppo_batch")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
