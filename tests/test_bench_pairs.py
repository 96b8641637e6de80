import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def args(pairs):
    return ["--parent", ".", "--change", ".", "--workload", "verify", "--pairs", pairs]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_rejected_before_any_run(capsys, monkeypatch, pairs):
    bench_pairs = load_script()
    monkeypatch.setattr(bench_pairs, "run", lambda *a: pytest.fail("a benchmark ran"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args(pairs))
    assert exc.value.code == 2
    assert "at least 2 pairs" in capsys.readouterr().err


def test_two_pairs_accepted():
    assert load_script().parse_args(args("2")).pairs == 2


def test_environment_comes_from_the_runs_own_stdout(tmp_path, monkeypatch):
    """A smoke run's record of the same name on disk is never read."""
    bench_pairs = load_script()
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    (results / "verify-seed3-trace0.json").write_text(json.dumps({"environment": {"nproc": 64}}))
    environment = {"nproc": 2, "git_sha": "abc", "numpy": "2.0"}
    stdout = "\n".join([
        "workload verify seed 3: 10 operations, 0 failed, 10 bare + 0 traced repetitions",
        "  iter_s_p50 = 0.03 s",
        "  environment " + json.dumps(environment),
        json.dumps({"correct": True, "metrics": {"iter_s_p50": {"value": 0.03, "unit": "s"}}}),
    ]) + "\n"
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    def no_read(self, *a, **k):
        pytest.fail(f"read {self}")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(Path, "read_text", no_read)
    monkeypatch.setattr(Path, "read_bytes", no_read)
    metrics, got = bench_pairs.run(tmp_path, "verify", 3, 0)
    assert metrics == {"iter_s_p50": 0.03} and got == environment
    assert len(calls) == 1 and calls[0][1] == tmp_path
