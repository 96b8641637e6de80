import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "step_faults.py"
TINY_CHAIN = dict(env="chain", env_params={"n_states": 4, "horizon": 5}, ppo_batch=40,
                  minibatch=20, buffer_capacity=8, regression_minibatch=4, hidden=(8,))
PHASES = ["rollout", "regression", "decompose", "advantages", "ppo", "grad_variance"]


def load_script():
    spec = importlib.util.spec_from_file_location("step_faults", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_times_each_step_and_phase_and_unwraps():
    step_faults = load_script()

    before = [owner.__dict__[attr] for owner, attr, _ in step_faults.phases()]
    result = step_faults.probe(TINY_CHAIN, seed=1, steps=3)
    assert [owner.__dict__[attr] for owner, attr, _ in step_faults.phases()] == before
    assert result["steps"] == 3 and result["warmup"] == step_faults.WARMUP
    assert list(result["phases"]) == PHASES
    for part in [result["step"], *result["phases"].values()]:
        assert len(part["s"]) == len(part["minflt"]) == 3
        assert all(s >= 0.0 for s in part["s"]) and all(f >= 0 for f in part["minflt"])
    step_s, phases = result["step"]["s"], result["phases"]
    for i in range(3):
        assert sum(p["s"][i] for p in phases.values()) <= step_s[i]
        assert all(phases[name]["s"][i] > 0.0 for name in ("rollout", "ppo", "grad_variance"))


def test_unpinned_probe_builds_the_trainer_without_the_pin(monkeypatch):
    from rdecomp import trainer

    step_faults = load_script()
    calls = []

    def spy():
        calls.append(1)
        return True

    monkeypatch.setattr(trainer, "pin_malloc_thresholds", spy)
    assert step_faults.probe(TINY_CHAIN, seed=1, steps=1, pinned=False)["pinned"] is False
    assert calls == [] and trainer.pin_malloc_thresholds is spy
    assert step_faults.probe(TINY_CHAIN, seed=1, steps=1)["pinned"] is True
    assert calls == [1]


def test_inline_probe_starts_no_worker(monkeypatch):
    from rdecomp import trainer

    step_faults = load_script()
    calls = []

    def spy():
        calls.append(1)
        return 2

    monkeypatch.setattr(trainer, "usable_cpus", spy)
    assert step_faults.probe(TINY_CHAIN, seed=1, steps=1, inline=True)["inline"] is True
    assert calls == [] and trainer.usable_cpus is spy
    assert step_faults.probe(TINY_CHAIN, seed=1, steps=1)["inline"] is False
    assert calls == [1]


def test_script_prints_one_json_line():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", "train-baseline",
                           "--seed", "2", "--steps", "1", "--unpinned", "--inline",
                           "--warmup", "0"],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["workload"] == "train-baseline" and result["seed"] == 2
    assert result["pinned"] is False and result["inline"] is True and result["warmup"] == 0
    assert len(result["step"]["minflt"]) == 1 and list(result["phases"]) == PHASES
