import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "fingerprint.py"
SMALL = dict(env="chain", env_params={"n_states": 4, "horizon": 5}, ppo_batch=40,
             minibatch=20, buffer_capacity=8, regression_minibatch=4, hidden=(8,))


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_fingerprint_is_reproducible_and_tells_runs_apart():
    fingerprint = load_script()
    first = fingerprint.train_fingerprint(SMALL, steps=2)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert fingerprint.train_fingerprint(SMALL, steps=2) == first
    assert fingerprint.train_fingerprint(SMALL, steps=2, seed=2) != first
    assert fingerprint.train_fingerprint(dict(SMALL, use_decomposer=False), steps=2) != first


def test_verify_fingerprint_is_reproducible():
    fingerprint = load_script()
    first = fingerprint.verify_fingerprint(n_inits=1, tol=1e-8)
    assert fingerprint.verify_fingerprint(n_inits=1, tol=1e-8) == first
    assert fingerprint.verify_fingerprint(n_inits=1, tol=1e-8, seed=4) != first


def test_script_prints_one_digest_per_output():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["train-full", "train-baseline", "verify"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def test_dropped_column_digest_ignores_only_that_column(monkeypatch):
    fingerprint = load_script()
    from rdecomp.trainer import Trainer

    full = fingerprint.train_fingerprint(SMALL, steps=2)
    dropped = fingerprint.train_fingerprint(SMALL, steps=2, drop_columns=("grad_variance",))
    assert dropped != full
    # a trainer that differs only in its variance diagnostic
    monkeypatch.setattr(Trainer, "_gradient_variance", lambda self, *args: 123.0)
    assert fingerprint.train_fingerprint(SMALL, steps=2) != full
    assert fingerprint.train_fingerprint(SMALL, steps=2,
                                         drop_columns=("grad_variance",)) == dropped
    assert fingerprint.train_fingerprint(SMALL, steps=2,
                                         drop_columns=("return_mean",)) != dropped


def test_script_rejects_an_unknown_column():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--drop-column", "no_such_column"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "no_such_column" in proc.stderr
