"""Fingerprints of the benchmark's outputs: equal lines in two checkouts mean
the training rows and the verify report are bit-identical.

    python3 scripts/fingerprint.py [--drop-column NAME ...]

Prints one line per output, its name and a sha256:

  train-full, train-baseline  repr([trainer.step() for _ in range(8)]) of a
                              Trainer at seed 1 on the workload's config
                              (`perfbench.workloads.settings`); each
                              --drop-column removes that column from every
                              training row first, so two checkouts that
                              differ only in it print equal digests
  verify                      the `cli.run_verification` report at seed 3 over
                              the builtin MDPs, with the workload's inits and
                              tolerance, as JSON with sorted keys

BLAS runs one thread, as in perfbench/run.py. Run the script in each
checkout (it imports the package from that checkout's src/) and compare.
"""

from __future__ import annotations

import argparse
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


def train_fingerprint(config, steps=STEPS, seed=TRAIN_SEED, drop_columns=()):
    """sha256 of the (row, ppo metrics) pairs of `steps` Trainer.steps, with
    the columns in drop_columns removed from each row."""
    from rdecomp.trainer import TrainConfig, Trainer

    trainer = Trainer(TrainConfig(**config), seed=seed)
    outputs = []
    for _ in range(steps):
        row, ppo = trainer.step()
        outputs.append(({k: v for k, v in row.items() if k not in drop_columns}, ppo))
    return sha256(repr(outputs))


def verify_fingerprint(n_inits, tol, seed=VERIFY_SEED):
    """sha256 of the verification report over the builtin MDPs."""
    from rdecomp import cli, oracle

    mdps = [factory() for factory in oracle.BUILTIN_MDPS.values()]
    report = cli.run_verification(mdps, n_inits=n_inits, tol=tol, seed=seed)
    return sha256(json.dumps(report, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drop-column", action="append", default=[], metavar="NAME",
                        help="leave this column of the training rows out of the digest")
    args = parser.parse_args(argv)
    from perfbench import workloads
    from rdecomp.trainer import METRIC_COLUMNS

    unknown = sorted(set(args.drop_column) - set(METRIC_COLUMNS))
    if unknown:
        parser.error(f"unknown column(s) {unknown}; the rows hold {list(METRIC_COLUMNS)}")
    for workload in ("train-full", "train-baseline"):
        config = workloads.settings(workload)["config"]
        print(workload, train_fingerprint(config, drop_columns=args.drop_column), flush=True)
    spec = workloads.settings("verify")
    print("verify", verify_fingerprint(spec["n_inits"], spec["tol"]), flush=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    main()
