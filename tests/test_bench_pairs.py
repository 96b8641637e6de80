import importlib.util
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
