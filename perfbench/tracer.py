"""Span tracer that wraps rdecomp's layer entry points from outside.

Each wrapped call records one span: name, start, end, parent span and the
id of the iteration (one `Trainer.step`, or one verification sweep) it ran
in. Spans live in flat in-memory columns and are written out once, when the
run ends. Exact counters (tape nodes, episodes, trajectories, ...) are kept
next to the spans. Wrappers are installed with `install` and removed with
`uninstall`; an untraced run never installs any.

Time spent in the tracer's own bookkeeping that is not part of a span (the
tape node count before each backward pass) is excluded from every span's
clock, so parent spans do not absorb it. It still shows in the traced run's
end-to-end time, which is how tracing overhead is reported.
"""

from __future__ import annotations

import collections
import time
from array import array

import numpy as np

KERNELS = (
    "matmul",
    "tanh_vjp",
    "sigmoid_vjp",
    "softmax_rows",
    "softmax_rows_vjp",
    "layer_norm_rows",
    "layer_norm_rows_vjp",
    "gae",
)

# Spans whose busy and self time are reported, in report order. The two
# root spans ("trainer.step", "cli.run_verification") mark one iteration.
LAYER_SPANS = (
    "trainer.rollout",
    "trainer.regression_phase",
    "trainer.decompose",
    "trainer.advantages",
    "trainer.ppo",
    "trainer.grad_variance",
    "policies.act",
    "policies.weighted_score_gradient",
    "policies.score_matrix",
    "buffers.insert",
    "buffers.sample",
    "decomposer.regression_step",
    "decomposer.regression_loss",
    "decomposer.predict",
    "autodiff.backward",
    "nn.optimizer_step",
    "oracle.context",
    "oracle.verify_identities",
    "oracle.exact_grad",
)
ROOT_SPANS = ("trainer.step", "cli.run_verification")


def count_tape_nodes(root):
    """Number of distinct tensors reachable from `root` through parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _tally_tape(tracer, args, result):
    tracer.pause_clock(count_tape_nodes, args[0], "autodiff.tape_nodes")


def _tally_len(counter):
    def tally(tracer, args, result):
        tracer.counts[counter] += len(result)

    return tally


def _tally_context(tracer, args, result):
    tracer.counts["oracle.trajectories"] += len(args[0].trajectories)


def _tally_aborted(tracer, args, result):
    tracer.counts["trainer.ppo_aborted"] += int(bool(result["aborted"]))


def entry_points():
    """(owner, attribute, span name, tally) for every wrapped entry point.

    Each attribute is looked up by its callers at call time, so replacing it
    on the module or class reroutes every call through the wrapper.
    """
    from rdecomp import _kernels, autodiff, buffers, cli, decomposer, nn, oracle, policies
    from rdecomp import trainer

    points = [
        (trainer.Trainer, "step", "trainer.step", None),
        (cli, "run_verification", "cli.run_verification", None),
        (trainer, "rollout", "trainer.rollout", _tally_len("trainer.episodes")),
        (trainer.Trainer, "_regression_phase", "trainer.regression_phase", None),
        (trainer.Trainer, "decompose", "trainer.decompose", None),
        (trainer, "compute_advantages", "trainer.advantages", None),
        (trainer, "ppo_update", "trainer.ppo", _tally_aborted),
        (trainer.Trainer, "_gradient_variance", "trainer.grad_variance", None),
        (buffers.ReplayBuffer, "insert", "buffers.insert", None),
        (buffers.ReplayBuffer, "sample", "buffers.sample", _tally_len("buffers.sample_size")),
        (decomposer, "regression_step", "decomposer.regression_step", None),
        (decomposer, "regression_loss", "decomposer.regression_loss", None),
        (decomposer, "predict", "decomposer.predict", None),
        (autodiff, "backward", "autodiff.backward", _tally_tape),
        (nn.AdamOptimizer, "step", "nn.optimizer_step", None),
        (oracle.OracleContext, "__init__", "oracle.context", _tally_context),
        (oracle, "verify_identities", "oracle.verify_identities", None),
        (oracle, "exact_grad_j", "oracle.exact_grad", None),
    ]
    for cls in (policies.CategoricalPolicy, policies.GaussianPolicy):
        points += [
            (cls, "act", "policies.act", None),
            (cls, "weighted_score_gradient", "policies.weighted_score_gradient", None),
            (cls, "score_matrix", "policies.score_matrix", None),
        ]
    points += [(_kernels, name, f"kernels.{name}", None) for name in KERNELS]
    return points


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.iter_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.iteration = -1
        self.counts = collections.Counter()
        self._stack = []
        self._paused = 0.0
        self._patches = []

    def clock(self):
        return time.perf_counter() - self._paused

    def pause_clock(self, fn, arg, counter):
        """Add fn(arg) to a counter without charging its time to any span."""
        t0 = time.perf_counter()
        self.counts[counter] += fn(arg)
        self._paused += time.perf_counter() - t0

    def _name_id(self, name):
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, original, name, tally):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start_col)
            stack = tracer._stack
            tracer.name_col.append(name_id)
            tracer.parent_col.append(stack[-1] if stack else -1)
            tracer.iter_col.append(tracer.iteration)
            tracer.end_col.append(0.0)
            stack.append(idx)
            tracer.start_col.append(tracer.clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end_col[idx] = tracer.clock()
                stack.pop()
            if tally is not None:
                tally(tracer, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, tally in entry_points():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, tally))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def mark(self):
        """Open a summary window: returns the position of the next span and
        restarts the counters."""
        self.counts = collections.Counter()
        return len(self.start_col)

    def summarize(self, first, iterations):
        """Per-iteration busy/self seconds and calls of the spans recorded
        since `first`, and the counters since the last `mark`.

        Busy time of a name sums its spans; self time subtracts the time
        covered by each span's direct children. Counts are exact.
        """
        names = np.frombuffer(self.name_col, dtype=np.int32)[first:]
        parents = np.frombuffer(self.parent_col, dtype=np.int32)[first:]
        dur = (
            np.frombuffer(self.end_col, dtype=np.float64)[first:]
            - np.frombuffer(self.start_col, dtype=np.float64)[first:]
        )
        child = np.zeros(len(dur))
        inside = parents >= first
        np.add.at(child, parents[inside] - first, dur[inside])
        busy = np.bincount(names, weights=dur, minlength=len(self.names))
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        spans = {
            name: {
                "s": busy[i] / iterations,
                "self_s": self_time[i] / iterations,
                "calls": int(calls[i]),
            }
            for i, name in enumerate(self.names)
        }
        return spans, dict(self.counts)

    def write(self, path):
        """Write every span recorded so far as compressed columns."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            iteration=np.frombuffer(self.iter_col, dtype=np.int32),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
        )
