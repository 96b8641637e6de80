"""Seconds and minor page faults per Trainer.step, and per phase.

    python3 scripts/step_faults.py --workload train-full --seed 11 --steps 40 [--unpinned]
        [--warmup 5]

Builds a Trainer on the workload's config (`perfbench.workloads.settings`)
at the seed, steps it --warmup times (default WARMUP) unmeasured, then
--steps times, and prints one JSON line: for the whole step and for each
phase, the wall seconds and the process's `ru_minflt` delta of every
measured step, and their medians. The phases are wrapped from outside, on the entry points
that perfbench's tracer wraps, so the package carries no hook; a phase
that runs more than once in a step is summed within it. With --unpinned,
`trainer.pin_malloc_thresholds` is a no-op while the Trainer is built, so
glibc keeps its default, dynamic mmap and trim thresholds: the speed and
faults a host process that does not pin them would see. With --warmup 0
the first step is measured too, with the start of the Trainer's value-stream
worker; the faults counted are this process's alone, never the worker's.

BLAS runs one thread, as in perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP = 5  # unmeasured steps before the measured ones


def phases():
    """(owner, attribute, phase name) for each phase of a step."""
    from rdecomp import trainer

    return (
        (trainer, "rollout", "rollout"),
        (trainer.Trainer, "_regression_phase", "regression"),
        (trainer.Trainer, "decompose", "decompose"),
        (trainer, "compute_advantages", "advantages"),
        (trainer, "ppo_update", "ppo"),
        (trainer.Trainer, "_gradient_variance", "grad_variance"),
    )


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _summary(s, faults):
    return {"s": s, "minflt": faults, "median_s": statistics.median(s),
            "median_minflt": statistics.median(faults)}


def probe(config, seed, steps, pinned=True, warmup=WARMUP):
    """Per-step seconds and minor faults of `steps` Trainer.steps after
    `warmup` unmeasured ones, for the step and per phase, as the dict `main`
    prints. With
    pinned False, the Trainer is built with `pin_malloc_thresholds`
    replaced by a no-op; the pin is process-wide, so that measures the
    unpinned heap only in a process where no Trainer was built before."""
    from rdecomp import trainer as trainer_mod

    pin = trainer_mod.pin_malloc_thresholds
    if not pinned:
        trainer_mod.pin_malloc_thresholds = lambda: False
    try:
        trainer = trainer_mod.Trainer(trainer_mod.TrainConfig(**config), seed=seed)
    finally:
        trainer_mod.pin_malloc_thresholds = pin
    for _ in range(warmup):
        trainer.step()
    current = {}  # phase name -> [seconds, faults] of the step being measured

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            f0, t0 = minflt(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, f1 = time.perf_counter(), minflt()
                acc = current.setdefault(name, [0.0, 0])
                acc[0] += t1 - t0
                acc[1] += f1 - f0

        return wrapper

    points = phases()
    originals = [owner.__dict__[attr] for owner, attr, _ in points]
    per_step = {"step": ([], [])}
    per_step.update((name, ([], [])) for _, _, name in points)
    try:
        for (owner, attr, name), original in zip(points, originals):
            setattr(owner, attr, wrap(original, name))
        for _ in range(steps):
            current.clear()
            f0, t0 = minflt(), time.perf_counter()
            trainer.step()
            t1, f1 = time.perf_counter(), minflt()
            current["step"] = [t1 - t0, f1 - f0]
            for name, (s, faults) in per_step.items():
                got = current.get(name, (0.0, 0))
                s.append(got[0])
                faults.append(got[1])
    finally:
        for (owner, attr, _), original in zip(points, originals):
            setattr(owner, attr, original)
    step = per_step.pop("step")
    return {"steps": steps, "warmup": warmup, "pinned": pinned, "step": _summary(*step),
            "phases": {name: _summary(*v) for name, v in per_step.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-full", "train-baseline"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--warmup", type=int, default=WARMUP,
                        help="unmeasured steps before the measured ones")
    parser.add_argument("--unpinned", action="store_true",
                        help="build the Trainer without pinning glibc's malloc thresholds")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.warmup < 0:
        parser.error("--warmup must be at least 0")
    from perfbench import workloads

    result = probe(workloads.settings(args.workload)["config"], args.seed, args.steps,
                   pinned=not args.unpinned, warmup=args.warmup)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}), flush=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    main()
