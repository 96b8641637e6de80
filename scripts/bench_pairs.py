"""Interleaved A/B runs of the benchmark, written as BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload train-baseline --pairs 10

--parent and --change are two checkouts of the repository (a clone of the
parent commit, and the change). Pair i runs `perfbench/run.py --trace 0`
for SECONDS with seed i in both, the parent first for odd i and the change
first for even i. Then one `--trace 1` run per side, with --traced-seed,
gives the per-layer numbers. Each run is one process in its checkout's
directory; a run that prints `correct: false` or exits non-zero stops the
script.

The output holds, per end-to-end metric and side, every run's value, the
median and the quartiles (linear interpolation, as numpy's default) with
their distance, the number of pairs the change won (ties count for
neither side, and the direction comes from the change's BENCHMARK.json),
and the relative change of the median. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 40


def git_sha(checkout):
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def run(checkout, workload, seed, trace):
    """The metrics of one perfbench run, and its recorded environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(cmd)} in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = Path(checkout, "perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    environment = json.loads(record.read_text())["environment"]
    return {name: m["value"] for name, m in result["metrics"].items()}, environment


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def compare(parent, change, better):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": summary(parent),
        "change": summary(change),
        "change_better_pairs": wins,
        "median_change": (c_med - p_med) / p_med if p_med else 0.0,
    }


def pair_count(text):
    """--pairs: quartiles need at least two runs per side."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 pairs for quartiles, got {pairs}")
    return pairs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--traced-seed", type=int, default=11,
                        help="seed of the one traced run per side")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    gates = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(1, args.pairs + 1))
    values = {side: [] for side in sides}
    environment = None
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            metrics, environment = run(sides[side], args.workload, seed, 0)
            values[side].append(metrics)
            print(f"seed {seed} {side}: iter_s_p50 {metrics['iter_s_p50']:.4f} s", flush=True)

    base = f"python3 perfbench/run.py --workload {args.workload} --seed <seed>" \
           f" --seconds {SECONDS}"
    out = {
        "workload": args.workload,
        "command": f"{base} --trace 0",
        "parent_sha": git_sha(sides["parent"]),
        "change_sha": git_sha(sides["change"]),
        "environment": {k: environment[k] for k in environment if k != "git_sha"},
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "interleaved pairs, one seed per pair; odd seeds run the parent first,"
                 " even seeds the change first",
        "timings": "perfbench's reference-speed seconds (see perfbench/run.py)",
        "end_to_end": {
            gate["name"]: compare([m[gate["name"]] for m in values["parent"]],
                                  [m[gate["name"]] for m in values["change"]], gate["better"])
            for gate in gates
        },
    }
    traced = {side: run(sides[side], args.workload, args.traced_seed, 1)[0] for side in sides}
    names = [n for n in traced["change"] if traced["parent"].get(n) or traced["change"][n]]
    out["traced"] = {
        "command": base.replace("<seed>", str(args.traced_seed)) + " --trace 1",
        "unit": "per iteration (seconds at the reference speed, or counts);"
                " metrics that read 0 on both sides are left out",
        **{side: {n: traced[side].get(n, 0.0) for n in names} for side in sides},
    }
    path = Path(f"BENCH_{args.workload}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    claim = out["end_to_end"]["iter_s_p50"]
    print(f"wrote {path}: iter_s_p50 median {claim['parent']['median']:.4f} ->"
          f" {claim['change']['median']:.4f} s, change better in"
          f" {claim['change_better_pairs']}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
