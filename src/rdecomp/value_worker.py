"""The process that runs the value net's half of `trainer.ppo_update`.

`trainer.Trainer` imports this module only where it starts a worker: on
Linux, with two or more usable CPUs. Elsewhere the value stream runs
inline, and neither this module nor `multiprocessing` is loaded.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import traceback

from rdecomp.trainer import value_stream

# Fork, not spawn: the child starts in a few ms with the package and the
# value net already in memory, where a spawned one would import numpy and
# the package at the first update of every Trainer. Windows has no fork,
# and on macOS a fork is unsafe once system libraries have started threads.
FORKS = "fork" in multiprocessing.get_all_start_methods()


class ValueWorker:
    """One forked process that runs `value_stream` on the requests of
    `ppo_update`, one at a time, for the value net it was forked with (its
    shape; the parameters come with each request).

    A fork is unsafe while another thread holds a lock; the training loop
    starts no thread. The child exits on EOF, on a None message, or when its
    parent changes (the parent died); `close` sends None and waits for it."""

    def __init__(self, value_net):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve_value_stream, name="rdecomp-value-stream",
                                   args=(child_end, self._conn, value_net, os.getpid()),
                                   daemon=True)
        self.process.start()
        child_end.close()

    def submit(self, request):
        try:
            self._conn.send(request)
        except OSError as exc:  # a closed connection, or a worker that is gone
            raise RuntimeError(f"value-stream worker {self.process.pid} is gone: {exc!r}") from exc

    def reply(self):
        """The reply to the last request; RuntimeError if the worker raised or died."""
        try:
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"value-stream worker {self.process.pid} died: {exc!r}") from exc
        if "error" in reply:
            raise RuntimeError(f"value-stream worker {self.process.pid} raised:\n{reply['error']}")
        return reply

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


def _serve_value_stream(conn, parent_end, value_net, parent_pid):
    """A `ValueWorker`'s process: reply to each request on conn with
    `value_stream`'s result, or with the traceback of what it raised."""
    # a child that kept the parent's end would never see EOF on its own
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # the collector leaves the inherited objects, and their pages, alone
    usable = os.sched_getaffinity(0)
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent_pid:
                return
        # A pipe's wakeup may run the woken process on the waker's CPU, and
        # the scheduler may not move either one to an idle CPU: on a 2-vCPU
        # VM the parent, which goes on with the policy stream, and this
        # process ran on one CPU, and the update took as long as inline. So
        # with two usable CPUs each request is served off the CPU the parent
        # is on. That was measured on two CPUs only; with more, the
        # scheduler is left alone.
        parent_cpu = _cpu_of(parent_pid) if len(usable) == 2 else None
        if parent_cpu is not None:
            os.sched_setaffinity(0, (usable - {parent_cpu}) or usable)
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        try:
            reply = value_stream(value_net, request)
        except Exception:  # reported to the caller, which raises it
            reply = {"error": traceback.format_exc()}
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _cpu_of(pid):
    """The CPU that process pid last ran on, from Linux's /proc; None where
    that cannot be read."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # the fields after the parenthesized command name; "processor" is field 39
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None
