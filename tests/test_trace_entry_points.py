"""The benchmark tracer wraps named entry points of the package; a renamed
or deleted one makes `Tracer.install` raise KeyError."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_entry_point():
    tracer_mod = load_tracer()
    points = tracer_mod.entry_points()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in points]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for (owner, attr, _, _), original in zip(points, originals):
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in points] == originals
