"""Trajectory buffers for reward-predictor training.

Three update schemes:

  O  (online)             FIFO queue of the K most recent trajectories.
  HO (historical+online)  the FIFO queue plus a second queue holding the K
                          highest-return trajectories ever inserted (ties
                          go to the more recent one).
  S  (stratified)         a reservoir of up to L trajectories; eviction is
                          uniform at random; sampling draws as evenly as
                          possible across five equal-width return bins.

Stored trajectories are immutable and sampling returns references to them,
never copies.
"""

from __future__ import annotations

from collections import deque

import numpy as np

SCHEMES = ("O", "HO", "S")
N_BINS = 5


class ReplayBuffer:
    def __init__(self, scheme, capacity=50, reservoir_capacity=500, seed=0):
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        self.scheme = scheme
        self.capacity = capacity
        self.reservoir_capacity = reservoir_capacity
        self.rng = np.random.default_rng(seed)
        self.online = deque(maxlen=capacity)
        self.historical = []  # (return, insertion_index, trajectory), top-K
        self.reservoir = []
        self._inserted = 0

    def __len__(self):
        if self.scheme == "O":
            return len(self.online)
        if self.scheme == "HO":
            return len(self.online) + len(self.historical)
        return len(self.reservoir)

    def insert(self, trajectories):
        for traj in trajectories:
            self._insert_one(traj)

    def _insert_one(self, traj):
        idx = self._inserted
        self._inserted += 1
        if self.scheme in ("O", "HO"):
            self.online.append(traj)
        if self.scheme == "HO":
            self.historical.append((traj.episodic_return, idx, traj))
            # Sort by (return, recency): on equal returns the newer entry wins.
            self.historical.sort(key=lambda e: (e[0], e[1]), reverse=True)
            del self.historical[self.capacity :]
        if self.scheme == "S":
            if len(self.reservoir) < self.reservoir_capacity:
                self.reservoir.append(traj)
            else:
                evict = int(self.rng.integers(len(self.reservoir)))
                self.reservoir[evict] = traj
        return self

    def contents(self):
        """Everything stored, in a deterministic order."""
        if self.scheme == "O":
            return list(self.online)
        if self.scheme == "HO":
            return list(self.online) + [t for _, _, t in self.historical]
        return list(self.reservoir)

    def snapshot(self):
        """(trajectories, structure) for persistence; see restore_snapshot."""
        trajs = (
            list(self.online)
            + [t for _, _, t in self.historical]
            + list(self.reservoir)
        )
        meta = {
            "online_count": len(self.online),
            "historical_keys": [[r, i] for r, i, _ in self.historical],
            "inserted": self._inserted,
        }
        return trajs, meta

    def restore_snapshot(self, trajs, meta):
        """Rebuild the exact queue structure written by `snapshot`.

        Replaying the contents through `insert` would be wrong: it would
        duplicate historical entries into the online queue and reset the
        recency indices used for tie-breaking.
        """
        n_online = meta["online_count"]
        keys = meta["historical_keys"]
        self.online = deque(trajs[:n_online], maxlen=self.capacity)
        self.historical = [
            (r, i, t) for (r, i), t in zip(keys, trajs[n_online : n_online + len(keys)])
        ]
        self.reservoir = list(trajs[n_online + len(keys) :])
        self._inserted = meta["inserted"]

    def sample(self, k):
        """Draw a regression batch according to the scheme.

        O returns the whole queue; HO the union of both queues; S a
        stratified draw of up to k trajectories across five equal-width
        return bins (under-populated bins contribute everything they have
        and their deficit is spread uniformly over the rest).
        """
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        if self.scheme in ("O", "HO"):
            return self.contents()
        return self._stratified_sample(k)

    def _stratified_sample(self, k):
        stored = self.reservoir
        if len(stored) <= k:
            return list(stored)
        returns = np.array([t.episodic_return for t in stored])
        lo, hi = float(returns.min()), float(returns.max())
        if hi == lo:
            pick = self.rng.choice(len(stored), size=k, replace=False)
            return [stored[i] for i in sorted(pick)]
        # Equal-width bins over the current return range; top edge inclusive.
        edges = np.linspace(lo, hi, N_BINS + 1)
        which = np.clip(np.searchsorted(edges, returns, side="right") - 1, 0, N_BINS - 1)
        bins = [np.flatnonzero(which == b) for b in range(N_BINS)]
        quota = self._allocate([len(b) for b in bins], k)
        chosen = []
        for b, members in enumerate(bins):
            if quota[b] == 0:
                continue
            pick = self.rng.choice(members, size=quota[b], replace=False)
            chosen.extend(int(i) for i in pick)
        return [stored[i] for i in sorted(chosen)]

    def _allocate(self, sizes, k):
        """Spread k draws as evenly as possible across bins: every bin gets
        min(size, L) for the largest level L at which that totals at most k,
        and what is left of k goes one each to the first bins with more than
        L members."""
        level = 0
        while level < max(sizes) and sum(min(s, level + 1) for s in sizes) <= k:
            level += 1
        quota = [min(s, level) for s in sizes]
        for b in [b for b, s in enumerate(sizes) if s > level][: k - sum(quota)]:
            quota[b] += 1
        return quota
