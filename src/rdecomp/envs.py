"""Desk-scale episodic environments.

Environments here are pure transition functions: `step(state, action, rng)`
does not mutate the environment, so the exact-enumeration oracle can walk
the full trajectory tree. The discrete ones additionally expose an integer
state index view (`n_cells`, `transition`, `state_vector`) for tabular
enumeration.

The agent sees episodic rewards only: every visible reward is 0 until the
episode ends, at which point the sum of the hidden dense rewards is paid
out in one lump. `EpisodicWrapper` pays them so for any env; on the
one-hot cell envs, `trainer.rollout` walks cell indices through
`transition` and pays the same sum itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class StepResult:
    next_state: np.ndarray
    dense_reward: float
    done: bool


class _OneHotCells:
    """A finite set of cells seen as one-hot state vectors. Subclasses pass
    `n_cells` and `initial_index` to `__init__` and define
    `transition(index, action)`, which returns (next index, reward, done).

    Each cell's state is one read-only vector, built at its first use (an
    identity table up front would hold n_cells^2 floats) and handed out
    again at every later one: a step allocates no state, and writing into a
    state raises instead of changing every later state of that cell."""

    def __init__(self, n_cells, initial_index):
        self.n_cells = n_cells
        self.initial_index = initial_index
        self._vectors = [None] * n_cells

    def state_vector(self, index):
        v = self._vectors[index]
        if v is None:
            v = np.zeros(self.n_cells)
            v[index] = 1.0
            v.flags.writeable = False
            self._vectors[index] = v
        return v

    def state_index(self, state):
        return int(state.argmax())

    def reset(self, rng):
        return self.state_vector(self.initial_index)

    def step(self, state, action, rng):
        nxt, reward, done = self.transition(self.state_index(state), int(action))
        return StepResult(self.state_vector(nxt), reward, done)


def _check_int(name, value, least):
    """ValueError unless value is an integer (not a bool) of at least `least`:
    sizes and horizons come from JSON config files."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class ChainMdp(_OneHotCells):
    """Left/right walk on a line of states; +1 when the right end is reached.

    Action 0 moves left (floored at 0), action 1 moves right. Reaching the
    rightmost state ends the episode.
    """

    def __init__(self, n_states=8, horizon=12):
        _check_int("n_states", n_states, 2)
        _check_int("horizon", horizon, 1)
        super().__init__(n_states, 0)
        self.n_states = n_states
        self.horizon = horizon
        self.state_dim = n_states
        self.n_actions = 2

    def transition(self, index, action):
        nxt = min(index + 1, self.n_states - 1) if action == 1 else max(index - 1, 0)
        reached_goal = nxt == self.n_states - 1
        return nxt, 1.0 if reached_goal else 0.0, reached_goal


class SparseGridworld(_OneHotCells):
    """N x N grid, 4 moves, +1 on reaching the far corner from the near one."""

    ACTIONS = ((-1, 0), (0, 1), (1, 0), (0, -1))  # up, right, down, left

    def __init__(self, size=4, horizon=16):
        _check_int("size", size, 2)
        _check_int("horizon", horizon, 1)
        super().__init__(size * size, 0)
        self.size = size
        self.horizon = horizon
        self.state_dim = self.n_cells
        self.n_actions = 4
        self.goal_index = self.n_cells - 1

    def transition(self, index, action):
        r, c = divmod(index, self.size)
        dr, dc = self.ACTIONS[action]
        nr, nc = r + dr, c + dc
        if 0 <= nr < self.size and 0 <= nc < self.size:
            index = nr * self.size + nc
        reached_goal = index == self.goal_index
        return index, 1.0 if reached_goal else 0.0, reached_goal


class PointMass:
    """2-D point mass with bounded acceleration, reward -|position - goal|.

    Actions above unit Euclidean norm are clipped to the unit ball (not
    rejected). Integration is explicit Euler on velocity then position with
    dt fixed at 0.05; episodes run to the horizon.
    """

    DT = 0.05
    GOAL = np.array([1.0, 1.0])

    def __init__(self, horizon=32):
        _check_int("horizon", horizon, 1)
        self.horizon = horizon
        self.state_dim = 4
        self.action_dim = 2

    def reset(self, rng):
        return np.zeros(4)

    def step(self, state, action, rng):
        a = np.asarray(action, dtype=np.float64)
        norm = float(np.sqrt((a * a).sum()))
        if norm > 1.0:
            a = a / norm
        vel = state[2:] + self.DT * a
        pos = state[:2] + self.DT * vel
        reward = -float(np.sqrt(((pos - self.GOAL) ** 2).sum()))
        return StepResult(np.concatenate([pos, vel]), reward, False)


class EpisodicWrapper:
    """Hides dense rewards: pays the accumulated return once, at episode end.

    Also enforces the horizon, since inner environments are stateless pure
    functions and cannot count steps themselves. Drives one episode at a
    time; `reset` starts a fresh one.
    """

    def __init__(self, env):
        self.env = env
        self.accumulated_return = 0.0
        self._t = 0

    def reset(self, rng):
        self.accumulated_return = 0.0
        self._t = 0
        return self.env.reset(rng)

    def step(self, state, action, rng):
        inner = self.env.step(state, action, rng)
        self.accumulated_return += inner.dense_reward
        self._t += 1
        done = inner.done or self._t >= self.env.horizon
        visible = self.accumulated_return if done else 0.0
        return StepResult(inner.next_state, visible, done)


_REGISTRY = {"chain": ChainMdp, "grid": SparseGridworld, "point_mass": PointMass}


def make_env(name, params=None):
    """Build an environment from its config name and JSON parameter object:
    the class's keyword arguments, each absent one at the class's default.
    ValueError for an unknown name, parameter or value."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown environment {name!r}; choices: {sorted(_REGISTRY)}")
    try:
        return _REGISTRY[name](**(params or {}))
    except TypeError as exc:  # a parameter the class does not take
        raise ValueError(f"{name}: {exc}") from exc
