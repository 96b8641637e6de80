"""Experiment configuration: a strict, versioned JSON schema.

Unknown keys are rejected so typos fail loudly instead of silently running
with defaults. The defaults themselves are the published hyperparameters
(PPO batch 2048, minibatch 64, 5 epochs, policy lr 1e-4, clip 0.2,
GAE gamma 0.99 / lambda 0.95, reward lr 1e-3, buffer size 50).
"""

from __future__ import annotations

import dataclasses
import json

from rdecomp import checkpoint
from rdecomp.trainer import TrainConfig

SCHEMA_VERSION = 1

# keys handled at the experiment level rather than inside TrainConfig
_RUN_KEYS = {"schema_version", "seeds", "output_dir", "name"}

# Switches of earlier versions, each at the one value the trainer still
# implements. Every config.json those versions wrote holds all five, so they
# load at that value (type-strict, like the bool fields) and at no other.
RETIRED_KEYS = {
    "model_scale": "desk",
    "positional": True,
    "two_value_heads": True,
    "normalize_targets": True,
    "reward_optimizer": "adam",
}

_TYPE_CHECKS = {
    int: (int,),
    float: (int, float),
    str: (str,),
    bool: (bool,),
    dict: (dict,),
    tuple: (list, tuple),
}


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentConfig:
    train: TrainConfig
    seeds: list
    output_dir: str
    name: str = "experiment"

    def __post_init__(self):
        # each seed's run writes its own files; a repeat would rerun into them
        if (not isinstance(self.seeds, list) or not all(_is_int(s) for s in self.seeds)
                or not self.seeds or len(set(self.seeds)) != len(self.seeds)):
            raise ConfigError(f"seeds must be a non-empty list of distinct integers,"
                              f" got {self.seeds!r}")

    def to_dict(self):
        d = dataclasses.asdict(self.train)
        d["hidden"] = list(d["hidden"])
        d.update(
            {
                "schema_version": SCHEMA_VERSION,
                "seeds": list(self.seeds),
                "output_dir": self.output_dir,
                "name": self.name,
            }
        )
        return d


def _is_int(value):
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_field(name, value, default):
    if default is None:  # interval_kind: TrainConfig checks it against the architecture
        return
    expected = _TYPE_CHECKS.get(type(default))
    if isinstance(default, bool) and not isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be a boolean, got {value!r}")
    if (expected is not None and not isinstance(value, expected)
            or isinstance(value, bool) and not isinstance(default, bool)):
        raise ConfigError(
            f"field {name!r} expects {type(default).__name__}, got {type(value).__name__}"
        )
    if name == "hidden" and not all(_is_int(n) and n > 0 for n in value):
        raise ConfigError(f"field 'hidden' must hold positive integers, got {value!r}")


def from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    field_defaults = {f.name: f.default if f.default is not dataclasses.MISSING
                      else f.default_factory()
                      for f in dataclasses.fields(TrainConfig)}
    unknown = set(doc) - _RUN_KEYS - set(RETIRED_KEYS) - set(field_defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, fixed in RETIRED_KEYS.items():
        value = doc.get(name, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ConfigError(
                f"field {name!r} is retired and only accepts {json.dumps(fixed)}, got {value!r}"
            )
    kwargs = {}
    for name, default in field_defaults.items():
        if name in doc:
            _check_field(name, doc[name], default)
            value = doc[name]
            kwargs[name] = tuple(value) if isinstance(default, tuple) else value
    try:
        train = TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output_dir = doc.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    name = doc.get("name", "experiment")
    if not isinstance(name, str):
        raise ConfigError("name must be a string")
    return ExperimentConfig(train=train, seeds=doc.get("seeds", [0]), output_dir=output_dir,
                            name=name)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return from_dict(doc)


def save(path, experiment):
    checkpoint.write_atomic(path, json.dumps(experiment.to_dict(), indent=1, sort_keys=True) + "\n")
