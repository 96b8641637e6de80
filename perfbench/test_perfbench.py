"""Smoke tests of the benchmark: every workload in both modes at tiny sizes.

    python3 -m pytest perfbench -q

They check the output contract against BENCHMARK.json, that every metric
the benchmark defines is printed by name with its unit on each workload it
applies to, and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TRAIN_LINES = {
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "env_steps_per_s": "steps/s",
    "final_return": "return",
}
VERIFY_LINES = {"verify_s": "s"}
COMMON_LINES = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_share": "share",
    "iter_wall_s_p50": "s",
    "iter_cpu_s_p50": "s",
    "reference_s_p50": "s",
}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    named = dict(COMMON_LINES, **(VERIFY_LINES if workload == "verify" else TRAIN_LINES))
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            printed[parts[0]] = (float(parts[2]), parts[3])
    for name, unit in named.items():
        assert printed[name][1] == unit, name
    share = result["failed"] / result["attempted"]
    assert printed["fail_share"][0] == pytest.approx(share, rel=1e-5)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = run(tmp_path, "verify", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
