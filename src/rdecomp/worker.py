"""The process that runs a Trainer's work on a second CPU: the value net's
half of each `trainer.ppo_update`, and the second group of trajectories of
each minibatch of `Trainer._regression_phase`.

`trainer.Trainer` imports this module only where it starts a worker: on
Linux, with two or more usable CPUs. Elsewhere both run inline, and neither
this module nor `multiprocessing` is loaded.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import os
import pickle
import select
import signal
import time
import traceback

import numpy as np

from rdecomp import decomposer, nn
from rdecomp.trainer import regression_minibatches, value_stream

# Fork, not spawn: the child starts in a few ms with the package and the
# networks already in memory, where a spawned one would import numpy and
# the package at the first phase of every Trainer. Windows has no fork,
# and on macOS a fork is unsafe once system libraries have started threads.
FORKS = "fork" in multiprocessing.get_all_start_methods()

# The one-byte signals of a regression phase: the caller's "the parameters
# are in place, run the next group", and the worker's answers, with the
# group's gradient or without it (the loss is not finite).
GO, GRAD, NO_GRAD = b"g", b"d", b"n"
# How long each side of a regression phase polls for the other's byte
# before it blocks. The worker waits ~0.2 ms per minibatch while the
# caller takes the Adam step, and the caller waits for the worker's last
# rows; on the 2-vCPU VM the benchmark runs on, waking from a blocked read
# cost 3-5% of the phase against polling.
SPIN_S = 0.002


class Worker:
    """One forked process that serves a Trainer's PPO updates and regression
    phases, one request at a time.

    A PPO update `submit`s the value net's parameters, its Adam and the
    batch, and reads the new ones as the `reply`, both pickled; `value_net`
    gives the network's shape. A regression phase sends its sample and
    epoch orders once (`start_regression`). Then, for each minibatch that
    is split, `start_group` writes the predictor's parameters into an
    anonymous shared mmap, made before the fork, and sends one byte;
    `group_result` waits for the one-byte answer and reads the second
    group's loss and gradient from the same mmap. `model`, the reward
    predictor (None for a Trainer without one), sizes that mmap. The
    worker's copies of the networks give their shapes only, so it keeps no
    state between requests.

    A fork is unsafe while another thread holds a lock; the training loop
    starts no thread. The child exits on EOF, on a None message, or when its
    parent changes (the parent died); `close` sends None and waits for it."""

    def __init__(self, value_net, model=None):
        # the predictor's layout, built once: `start_group` runs per minibatch
        self._layout = None if model is None else nn.layout(model.params)
        size = 0 if model is None else self._layout.size
        # the predictor's parameters, the second group's gradient and its loss
        flat = np.frombuffer(mmap.mmap(-1, 8 * (2 * size + 1)), dtype=np.float64)
        self._shared = (flat[:size], flat[size : 2 * size], flat[2 * size :])
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, name="rdecomp-worker",
                                   args=(child_end, self._conn, value_net, model, self._shared,
                                         os.getpid()),
                                   daemon=True)
        self.process.start()
        child_end.close()
        self._poller = _poller(self._conn)

    def _pipe(self, method, *args):
        """conn.method(*args); RuntimeError if the worker is gone."""
        try:
            return method(*args)
        except (EOFError, OSError) as exc:  # a closed connection, or a worker that is gone
            raise RuntimeError(f"worker {self.process.pid} is gone: {exc!r}") from exc

    def _raise(self, reply):
        raise RuntimeError(f"worker {self.process.pid} raised:\n{reply['error']}")

    def submit(self, request):
        """Start `value_stream` on a request of `trainer.ppo_update`."""
        self._pipe(self._conn.send, ("value_stream", request))

    def reply(self):
        """The reply to the last `submit`; RuntimeError if the worker raised or died."""
        reply = self._pipe(self._conn.recv)
        if "error" in reply:
            self._raise(reply)
        return reply

    def start_regression(self, job):
        """Start a regression phase on `job`, the arguments of
        `trainer.regression_minibatches`: the worker then runs the second
        group of each minibatch that has two."""
        self._pipe(self._conn.send, ("regression", job))

    def start_group(self, params):
        """Run the next second group at the predictor's parameters `params`."""
        self._layout.flatten(params, out=self._shared[0])
        self._pipe(self._conn.send_bytes, GO)

    def group_result(self):
        """The last started group's loss and flat gradient, or None for the
        gradient where the loss is not finite, as `decomposer.loss_grad`
        gives them. The gradient is a view of the shared mmap, which the next
        group overwrites. RuntimeError if the worker raised or died."""
        _spin(self._poller)
        answer = self._pipe(self._conn.recv_bytes)
        if answer not in (GRAD, NO_GRAD):
            self._raise(pickle.loads(answer))
        _, grad, loss = self._shared
        return float(loss[0]), (grad if answer == GRAD else None)

    def close(self):
        """Stop the process and wait for it, at most 5 s before it is
        terminated. A second call does nothing."""
        if self._conn.closed:
            return
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._conn.close()
        self.process.join(5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


def _serve(conn, parent_end, value_net, model, shared, parent_pid):
    """A `Worker`'s process: serve each request on conn, and answer a
    request that raised with its traceback."""
    # a child that kept the parent's end would never see EOF on its own
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # the collector leaves the inherited objects, and their pages, alone
    usable = os.sched_getaffinity(0)
    while _wait(conn, parent_pid):
        # A pipe's wakeup may run the woken process on the waker's CPU, and
        # the scheduler may not move either one to an idle CPU: on a 2-vCPU
        # VM the parent, which goes on with its own part, and this process
        # ran on one CPU, and the update took as long as inline. So with two
        # usable CPUs each request is served off the CPU the parent is on.
        # That was measured on two CPUs only; with more, the scheduler is
        # left alone.
        parent_cpu = _cpu_of(parent_pid) if len(usable) == 2 else None
        if parent_cpu is not None:
            os.sched_setaffinity(0, (usable - {parent_cpu}) or usable)
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        job, request = message
        try:
            if job == "regression":
                if not _serve_regression(conn, model, shared, request, parent_pid):
                    return
                continue
            reply = value_stream(value_net, request)
        except Exception:  # reported to the caller, which raises it
            reply = {"error": traceback.format_exc()}
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _serve_regression(conn, model, shared, job, parent_pid):
    """The second groups of one regression phase: for each, wait for GO,
    run `decomposer.loss_grad` at the parameters in shared memory, write
    the loss and gradient there and answer GRAD or NO_GRAD. False if the
    caller sent anything but GO (it is closing the worker) or is gone."""
    params, grad, loss = shared
    lay = nn.layout(model.params)
    model.params = lay.views(params)  # read-only views of what the caller writes
    blocks = lay.blocks(grad)
    poller = _poller(conn)
    for groups in regression_minibatches(*job):
        if len(groups) == 1:
            continue
        if not (_spin(poller) or _wait(conn, parent_pid)) or conn.recv_bytes() != GO:
            return False
        x, lengths, targets, at = groups[1]
        loss[0], g = decomposer.loss_grad(model, x, lengths, targets, grad, blocks, at)
        conn.send_bytes(NO_GRAD if g is None else GRAD)
    return True


def _poller(conn):
    """A `select.poll` on conn: a poll of it is one system call, where
    `conn.poll` builds a selector at each call."""
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    return poller


def _spin(poller):
    """Poll for at most SPIN_S until a message is there, or the other end
    is closed; whether one of those came."""
    end = time.perf_counter() + SPIN_S
    while not poller.poll(0):
        if time.perf_counter() >= end:
            return False
    return True


def _wait(conn, parent_pid):
    """Wait for the next message on conn; False if the parent is gone."""
    while not conn.poll(1.0):
        if os.getppid() != parent_pid:
            return False
    return True


def _cpu_of(pid):
    """The CPU that process pid last ran on, from Linux's /proc; None where
    that cannot be read."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # the fields after the parenthesized command name; "processor" is field 39
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None
