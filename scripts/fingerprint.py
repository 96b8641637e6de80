"""Fingerprints of the benchmark's outputs: equal lines in two checkouts mean
the training rows and the verify report are bit-identical.

    python3 scripts/fingerprint.py

Prints one line per output, its name and a sha256:

  train-full, train-baseline  repr([trainer.step() for _ in range(8)]) of a
                              Trainer at seed 1 on the workload's config
                              (`perfbench.workloads.settings`)
  verify                      the `cli.run_verification` report at seed 3 over
                              the builtin MDPs, with the workload's inits and
                              tolerance, as JSON with sorted keys

BLAS runs one thread, as in perfbench/run.py. Run the script in each
checkout (it imports the package from that checkout's src/) and compare.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 8
TRAIN_SEED = 1
VERIFY_SEED = 3


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def train_fingerprint(config, steps=STEPS, seed=TRAIN_SEED):
    """sha256 of the (row, ppo metrics) pairs of `steps` Trainer.steps."""
    from rdecomp.trainer import TrainConfig, Trainer

    trainer = Trainer(TrainConfig(**config), seed=seed)
    return sha256(repr([trainer.step() for _ in range(steps)]))


def verify_fingerprint(n_inits, tol, seed=VERIFY_SEED):
    """sha256 of the verification report over the builtin MDPs."""
    from rdecomp import cli, oracle

    mdps = [factory() for factory in oracle.BUILTIN_MDPS.values()]
    report = cli.run_verification(mdps, n_inits=n_inits, tol=tol, seed=seed)
    return sha256(json.dumps(report, sort_keys=True))


def main():
    from perfbench import workloads

    for workload in ("train-full", "train-baseline"):
        print(workload, train_fingerprint(workloads.settings(workload)["config"]), flush=True)
    spec = workloads.settings("verify")
    print("verify", verify_fingerprint(spec["n_inits"], spec["tol"]), flush=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    main()
