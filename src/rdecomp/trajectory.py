"""Trajectory container and its JSON-lines record format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from rdecomp import checkpoint


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: (state, action) pairs plus the terminal episodic return.

    `actions` is (T,) int for discrete environments or (T, d_a) float for
    continuous ones. Only the episodic return is stored; per-step rewards
    are never visible at this layer.
    """

    states: np.ndarray
    actions: np.ndarray
    episodic_return: float

    def __post_init__(self):
        # np.asarray copies only where the dtype differs
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.float64))
        actions = np.asarray(self.actions)
        actions = np.asarray(actions, dtype=np.int64 if actions.dtype.kind in "iu" else np.float64)
        object.__setattr__(self, "actions", actions)
        if len(self.states) != len(actions):
            raise ValueError(
                f"states length {len(self.states)} != actions length {len(actions)}"
            )
        if len(self.states) < 1:
            raise ValueError("trajectory must have at least one step")
        if not np.isfinite(self.episodic_return):
            raise ValueError("episodic return must be finite")

    @property
    def length(self):
        return len(self.states)

    @property
    def discrete(self):
        return self.actions.dtype.kind in "iu"


def to_record(traj):
    return {
        "states": traj.states.tolist(),
        "actions": traj.actions.tolist(),
        "return": traj.episodic_return,
    }


def from_record(rec):
    """The trajectory of a record; other keys (earlier versions wrote "seed"
    and "iteration", always null) are ignored."""
    return Trajectory(
        states=np.array(rec["states"], dtype=np.float64),
        actions=np.array(rec["actions"]),
        episodic_return=float(rec["return"]),
    )


def write_jsonl(path, trajectories):
    checkpoint.write_atomic(path, "".join(json.dumps(to_record(traj)) + "\n" for traj in trajectories))


def read_jsonl(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(from_record(json.loads(line)))
    return out
