"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed and hands the package only a
`TrainConfig` or the builtin oracle MDPs. The unit of work is a repetition:

  train-*  a fresh `Trainer` (seed = workload seed) stepped ITERATIONS
           times; one iteration is one `Trainer.step`.
  verify   one `cli.run_verification` sweep over the three builtin MDPs
           (predictor seed = workload seed); one iteration is one sweep.

A run repeats the same repetition, so every repetition of a run must
produce bit-identical outputs; `fingerprint` is what gets compared. The
runners call `between()` before the first iteration and after each one,
outside the timed region; it times the reference loop and returns that
time, which the report uses to rescale the iteration beside it.
"""

from __future__ import annotations

import json
import math
import time

# Why each workload is there; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "train-full": "20 Trainer.steps per repetition on grid 4x4/h16, ppo_batch 512,"
    " minibatch 64, attention on prefixes, HO buffer 50, bias correction:"
    " reward regression is ~82% of a step",
    "train-baseline": "train-full with use_decomposer=False, the episodic-PPO baseline:"
    " no regression or buffer sampling; PPO ~60%, rollout ~20%, grad-variance"
    " diagnostic ~16% of a step",
    "verify": "cli.run_verification over the 3 builtin MDPs, 6 inits (the CLI default)"
    " at tol 1e-8: thousands of tiny predict tapes and backward passes, no"
    " regression or PPO",
}

# The criterion-8 grid configuration; architecture, intervals, buffer and
# bias correction equal the TrainConfig defaults and are spelled out so the
# workload does not move if a default does.
TRAIN_CONFIG = {
    "env": "grid",
    "env_params": {"size": 4, "horizon": 16},
    "ppo_batch": 512,
    "minibatch": 64,
    "buffer_capacity": 50,
    "regression_minibatch": 16,
    "policy_lr": 3e-4,
    "entropy_coef": 0.01,
    "architecture": "attention",
    "interval_kind": "prefixes",
    "buffer_scheme": "HO",
    "bias_correction": True,
}
# Steps per training repetition. By step 20 both methods have left the
# random-policy phase on every seed tried, so final_return is the plateau.
ITERATIONS = 20
# Predictor initializations per MDP: the `rdecomp verify` default, which
# includes one chaotic adversary per MDP.
VERIFY_INITS = 6
VERIFY_TOL = 1e-8

# A short run for the benchmark's own tests: same code paths, tiny sizes.
SMOKE_TRAIN = {"ppo_batch": 64, "minibatch": 32, "buffer_capacity": 8}
SMOKE_ITERATIONS = 2


def settings(workload, smoke=False):
    """The recorded configuration of a workload."""
    if workload == "verify":
        return {"n_inits": VERIFY_INITS, "tol": VERIFY_TOL}
    config = dict(TRAIN_CONFIG, use_decomposer=workload == "train-full")
    if smoke:
        config.update(SMOKE_TRAIN)
    return {"config": config, "iterations": SMOKE_ITERATIONS if smoke else ITERATIONS}


class Repetition:
    """Timings and outputs of one repetition."""

    def __init__(self):
        self.construct_s = 0.0  # building the Trainer or the MDPs
        self.wall = []  # seconds per iteration
        self.cpu = []  # process CPU seconds per iteration
        self.ref = []  # reference-loop seconds before the first iteration and after each
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.env_steps = 0
        self.final_return = None
        self.fingerprint = None

    @property
    def iterations(self):
        return len(self.wall)


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def build(workload, seed, spec):
    """The objects a repetition runs on: a Trainer, or the oracle MDPs."""
    if workload == "verify":
        from rdecomp import oracle

        return [factory() for factory in oracle.BUILTIN_MDPS.values()]
    from rdecomp.trainer import TrainConfig, Trainer

    return Trainer(TrainConfig(**spec["config"]), seed=seed)


def run_train(trainer, seed, spec, between, tracer=None, first_iteration=0):
    """Step a fresh trainer. A step fails if it raises, aborts its PPO update
    or returns a non-finite metrics row; a raised step ends the repetition,
    because the trainer is then half-updated. Returns (repetition, [])."""
    rep = Repetition()
    rep.ref.append(between())
    outputs = []
    for i in range(spec["iterations"]):
        if tracer is not None:
            tracer.iteration = first_iteration + i
        rep.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            row, ppo = trainer.step()
        except Exception as exc:  # counted into fail_share, never dropped
            rep.failed += 1
            rep.errors.append(f"step {i}: {exc!r}")
            break
        rep.cpu.append(time.process_time() - c0)
        rep.wall.append(time.perf_counter() - w0)
        rep.ref.append(between())
        values = list(row.values()) + [ppo["policy_loss"], ppo["value_loss"]]
        if ppo["aborted"] or not _finite(values):
            rep.failed += 1
            rep.errors.append(f"step {i}: aborted={ppo['aborted']} row={row}")
        outputs.append((row, ppo))
    rep.env_steps = trainer.env_steps
    returns = [row["return_mean"] for row, _ in outputs]
    if returns:
        window = max(1, len(returns) // 10)
        rep.final_return = sum(returns[-window:]) / window
    rep.fingerprint = repr(outputs)
    return rep, []


def run_verify(mdps, seed, spec, between, tracer=None, first_iteration=0):
    """One identity sweep. Each identity check is one operation and fails
    above tolerance. Returns the repetition and a list of defects in the
    report itself (a pass flag that disagrees with its error, or a causal
    predictor failing)."""
    from rdecomp import cli

    rep = Repetition()
    rep.ref.append(between())
    if tracer is not None:
        tracer.iteration = first_iteration
    w0, c0 = time.perf_counter(), time.process_time()
    report = cli.run_verification(mdps, n_inits=spec["n_inits"], tol=spec["tol"], seed=seed)
    rep.cpu.append(time.process_time() - c0)
    rep.wall.append(time.perf_counter() - w0)
    rep.ref.append(between())
    defects = check_verify_report(report, [m.name for m in mdps], spec["tol"])
    for mdp_name, reports in report["mdps"].items():
        for r in reports:
            for check, payload in r["checks"].items():
                rep.attempted += 1
                if not payload["pass"]:
                    rep.failed += 1
                    rep.errors.append(
                        f"{mdp_name} {r['predictor']} {check}"
                        f" max_err={payload['max_abs_error']:.3e}"
                    )
    rep.fingerprint = json.dumps(report, sort_keys=True)
    return rep, defects


RUNNERS = {"train-full": run_train, "train-baseline": run_train, "verify": run_verify}


def check_verify_report(report, mdp_names, tol):
    """Structural checks of a verification report; returns defect strings.

    The chaotic adversary is not causal (its value for interval i depends
    on later steps), so the identities need not hold for it and its
    failures are expected. Every other predictor is causal and must pass.
    """
    defects = []
    if sorted(report["mdps"]) != sorted(mdp_names):
        defects.append(f"report covers {sorted(report['mdps'])}, expected {sorted(mdp_names)}")
    all_pass = True
    for mdp_name, reports in report["mdps"].items():
        if not reports:
            defects.append(f"{mdp_name}: no predictor reports")
        for r in reports:
            if len(r["checks"]) != 4:
                defects.append(f"{mdp_name} {r['predictor']}: {len(r['checks'])} checks, expected 4")
            for check, payload in r["checks"].items():
                err = payload["max_abs_error"]
                if not math.isfinite(err) or payload["pass"] != (err <= tol):
                    defects.append(f"{mdp_name} {r['predictor']} {check}: pass flag vs error {err}")
            if r["pass"] != all(c["pass"] for c in r["checks"].values()):
                defects.append(f"{mdp_name} {r['predictor']}: report pass flag")
            if not r["pass"] and not r["predictor"].startswith("chaotic-"):
                defects.append(f"{mdp_name} {r['predictor']}: causal predictor failed")
            all_pass = all_pass and r["pass"]
    if report["pass"] != all_pass:
        defects.append("overall pass flag disagrees with the reports")
    return defects
