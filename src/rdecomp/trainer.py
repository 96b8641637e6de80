"""Outer training loop: rollouts, buffer upkeep, reward regression, and a
PPO-style policy update driven by the decomposed rewards.

The gradient coefficients follow the residual-corrected estimator, split
into two advantage streams so each can get its own variance reduction:

  stream 1: the per-interval predictions as per-step rewards (for prefix
            intervals, the prediction for the prefix ending at t is
            treated as the reward emitted at t, which makes the
            undiscounted return-to-go equal the generalized Q-value);
  stream 2: the residual R - R_hat, paid at the final step.

Each stream runs through GAE against its own value head, and the summed
advantages feed a clipped-surrogate PPO update. With gamma = lambda = 1
and zero value baselines this reduces exactly to the estimator module's
corrected coefficients. Turning bias correction off drops stream 2;
disabling the decomposer entirely leaves only stream 2 carrying the raw
episodic return, which is the episodic-PPO baseline.

Regression draws from the (possibly stale) replay buffer; the policy
gradient only ever sees the freshest on-policy batch. Each minibatch's
loss and flat gradient come from one call: `ppo_loss_grad` on the policy,
`loss_grad` on the value net, `decomposer.loss_grad` on the reward
predictor, all closed forms in numpy.

Two phases run on two CPUs, in the calling process and in a
`worker.Worker`, one forked process per Trainer, on Linux with two or more
usable CPUs. The policy and the value net share no parameter, and each has
its own Adam, so a PPO update is two streams over the same minibatches:
the policy's in the caller, and the value net's at the same time in the
worker. The regression loss is a sum over trajectories, so each regression
minibatch of two or more trajectories is cut into two groups of whole
trajectories (`split_at`): the caller computes the first group's loss and
gradient while the worker computes the second's, and the caller takes one
Adam step on their sums. Without a worker, the value stream runs after the
policy's and the second group after the first, in the caller. The numbers
are bit for bit the same either way.
"""

from __future__ import annotations

import bisect
import copy
import csv
import ctypes
import functools
import io
import json
import operator
import os
import sys
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from rdecomp import _kernels
from rdecomp import buffers, checkpoint, decomposer, envs, estimators, nn
from rdecomp.policies import ValueNetwork, make_policy
from rdecomp.trajectory import Trajectory, read_jsonl, write_jsonl

METRIC_COLUMNS = (
    "iteration",
    "env_steps",
    "return_mean",
    "return_std",
    "regression_loss",
    "residual_abs_mean",
    "grad_variance",
    "ppo_aborted",
)


@dataclass
class TrainConfig:
    env: str = "grid"
    env_params: dict = field(default_factory=dict)
    iterations: int = 100
    # the architecture's interval kind, filled in from it; kept as a record
    interval_kind: str | None = None
    architecture: str = "attention"
    buffer_scheme: str = "HO"
    bias_correction: bool = True
    use_decomposer: bool = True
    ppo_batch: int = 2048
    minibatch: int = 64
    epochs: int = 5
    policy_lr: float = 1e-4
    clip: float = 0.2
    gamma: float = 0.99
    lam: float = 0.95
    reward_lr: float = 1e-3
    buffer_capacity: int = 50
    reservoir_capacity: int = 500
    regression_epochs: int = 5
    regression_minibatch: int = 16
    entropy_coef: float = 0.0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        for name in ("policy_lr", "reward_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("ppo_batch", "minibatch", "epochs", "buffer_capacity",
                     "reservoir_capacity", "regression_epochs", "regression_minibatch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("gamma", "lam"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not 0.0 < self.clip < 1.0:
            raise ValueError(f"clip must be in (0, 1), got {self.clip}")
        if self.buffer_scheme not in buffers.SCHEMES:
            raise ValueError(f"buffer_scheme must be one of {buffers.SCHEMES},"
                             f" got {self.buffer_scheme!r}")
        if not (self.bias_correction or self.use_decomposer):
            raise ValueError("bias_correction=False needs use_decomposer=True: without the"
                             " predictor the return reaches PPO only through the residual")
        envs.make_env(self.env, self.env_params)  # ValueError for a bad env or parameter
        if self.architecture not in decomposer.PREDICTORS:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        kind = decomposer.PREDICTORS[self.architecture].kind
        if self.interval_kind is None:
            self.interval_kind = kind
        elif self.interval_kind != kind:
            raise ValueError(
                f"interval_kind: {self.architecture} predictor does not support"
                f" {self.interval_kind!r} intervals, only {kind!r}"
            )


def rollout(policy, env, n_steps, rng):
    """Whole episodes until at least n_steps environment steps are collected.

    Each episode's return is paid at its end, as `envs.EpisodicWrapper`
    pays it, and the episode is cut at the env's horizon. On a one-hot cell
    env (chain, grid) the episodes walk cell indices: the fixed policy's
    cdf at each cell is computed at its first visit, each step draws one
    `rng.random()` and calls `env.transition`, and an episode's states are
    stacked once. Any other env runs through the wrapper with one
    `policy.act` per step, which gives a cell env the same batch.
    """
    if isinstance(env, envs._OneHotCells):
        return _walk_cells(policy, env, n_steps, rng)
    wrapper = envs.EpisodicWrapper(env)
    batch = []
    steps = 0
    while steps < n_steps:
        state = wrapper.reset(rng)
        states, actions = [], []
        final_reward = 0.0
        done = False
        while not done:
            action = policy.act(state, rng)
            result = wrapper.step(state, action, rng)
            states.append(state)
            actions.append(action)
            final_reward = result.dense_reward
            state = result.next_state
            done = result.done
        steps += len(states)
        batch.append(
            Trajectory(
                states=np.array(states),
                actions=np.array(actions),
                episodic_return=final_reward,
            )
        )
    return batch


def _walk_cells(policy, env, n_steps, rng):
    """`rollout` on an `envs._OneHotCells` env, by cell index."""
    cdfs = [None] * env.n_cells
    draw, transition, vector = rng.random, env.transition, env.state_vector
    batch = []
    steps = 0
    while steps < n_steps:
        cell, cells, actions, episodic_return = env.initial_index, [], [], 0.0
        for _ in range(env.horizon):
            cdf = cdfs[cell]
            if cdf is None:
                cdf = cdfs[cell] = policy.cdf(vector(cell))
            action = bisect.bisect_right(cdf, draw())
            cells.append(cell)
            actions.append(action)
            cell, reward, done = transition(cell, action)
            episodic_return += reward
            if done:
                break
        steps += len(cells)
        batch.append(Trajectory(np.array([vector(c) for c in cells]), np.array(actions),
                                episodic_return))
    return batch


def compute_advantages(batch, decomps, value_net, gamma, lam, states=None):
    """Per-step advantages and value targets for both streams.

    Returns (advantages, targets_r, targets_0), each one (N,) array over the
    batch's steps, episode after episode in batch order. Episodes are
    terminal by construction, so the bootstrap value after the last step is
    zero, and each stream is one GAE scan over the batch's zero-padded
    (B, T) block. The value net runs once, over the batch's stacked states:
    `states`, if the caller has stacked them. A row's value may then differ
    in its last bits from that of the same episode run alone, since BLAS
    blocks the matrix products by the batch's shape.
    """
    lengths = np.array([traj.length for traj in batch])
    for traj, dec in zip(batch, decomps):
        if len(dec.per_interval) != traj.length:
            raise ValueError(
                f"decomposition length {len(dec.per_interval)} != T {traj.length}"
            )
    b, t_len = lengths.size, int(lengths.max())
    at = _kernels.segment_index(lengths)
    # each stream's rewards and values, zero-padded to (B, T + 1); the
    # rewards' last column only pads
    r1, vr, r2, v0 = np.zeros((4, b, t_len + 1))
    r1[at] = np.concatenate([np.asarray(d.per_interval, dtype=np.float64) for d in decomps])
    r2[np.arange(b), lengths - 1] = [d.residual for d in decomps]
    if states is None:
        states = np.concatenate([traj.states for traj in batch])
    vr[at], v0[at] = value_net.values_np(states)
    adv1 = _kernels.gae(r1[:, :t_len], vr, gamma, lam)[at]
    adv2 = _kernels.gae(r2[:, :t_len], v0, gamma, lam)[at]
    return adv1 + adv2, adv1 + vr[at], adv2 + v0[at]


def ppo_update(policy, value_net, states, actions, advantages, targets_r, targets_0, config,
               rng, opts, old_logp, worker=None):
    """Clipped-surrogate update over epochs x minibatches.

    `states` and `actions` are the batch's steps stacked episode after
    episode, and `advantages`, `targets_r`, `targets_0` and `old_logp`
    (N,) arrays over them: the first three as `compute_advantages` returns
    them, `old_logp` log pi(a_t|s_t) under the policy that drew the batch,
    as `policy.log_prob_np` gives it. Advantages are normalized across the
    whole batch first. `opts` is the (policy, value net) pair of Adams.

    The two networks share no parameter, so the update is two streams over
    the same epoch permutations, drawn from `rng`: the policy's
    `ppo_stream` here, and `value_stream` in `worker` (a
    `worker.Worker`) while this one runs, or here after it where
    `worker` is None. Either way the numbers are bit for bit the same. If a
    loss or a probability ratio goes non-finite at some minibatch j of
    either stream (a gradient comes back None), the update is abandoned:
    both networks and both Adams keep their state from before it, the
    losses are summed over the minibatches before j, and `rng` is left after
    the permutation of j's epoch. RuntimeError if the worker raises or dies.
    """
    policy_opt, value_opt = opts
    adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    value_lay = nn.layout(value_net.params)
    request = {
        "params": value_lay.flatten(value_net.params),
        "adam": (value_opt.lr, value_opt.beta1, value_opt.beta2, value_opt.eps,
                 value_opt.t, value_opt.m, value_opt.v),
        "states": states, "targets_r": targets_r, "targets_0": targets_0,
        "rng_state": rng.bit_generator.state,
        "epochs": config.epochs, "minibatch": config.minibatch,
    }
    # A step returns fresh parameter arrays, so references to them suffice;
    # it writes the Adam moments in place, so those are copied.
    saved = (dict(policy.params), policy_opt.t, policy_opt.m.copy(), policy_opt.v.copy())

    def policy_loss_grad(s, a, logp, ad, out, blocks):
        return policy.ppo_loss_grad(s, a, logp, ad, config.clip, config.entropy_coef, out, blocks)

    policy_stream = (policy, policy_loss_grad, policy_opt, rng, (states, actions, old_logp, adv),
                     config.epochs, config.minibatch)
    if worker is None:
        policy_losses, policy_failed, drawn = ppo_stream(*policy_stream)
        reply = value_stream(value_net, request)
    else:
        worker.submit(request)
        try:
            policy_losses, policy_failed, drawn = ppo_stream(*policy_stream)
        finally:
            reply = worker.reply()  # read even if the policy stream raised
    failed = [j for j in (policy_failed, reply["failed_at"]) if j is not None]
    updates = min(failed, default=len(policy_losses))
    metrics = {
        # summed left to right from 0.0, as one loop over the minibatches would
        "policy_loss": functools.reduce(operator.add, policy_losses[:updates], 0.0),
        "value_loss": functools.reduce(operator.add, reply["losses"][:updates], 0.0),
        "updates": updates,
        "aborted": bool(failed),
    }
    if failed:
        policy.params, policy_opt.t, policy_opt.m, policy_opt.v = saved
        per_epoch = -(-len(adv) // config.minibatch)
        rng.bit_generator.state = drawn[updates // per_epoch]
        return metrics
    value_net.params = value_lay.views(reply["params"])
    value_opt.t, value_opt.m, value_opt.v = reply["adam"]
    return metrics


def ppo_stream(net, loss_grad, opt, rng, arrays, epochs, minibatch):
    """One network's half of `ppo_update`. Each epoch gathers the per-step
    `arrays` in a permutation drawn from `rng`; per minibatch,
    `loss_grad(*its rows of them, out, blocks)` gives the loss and the flat
    gradient at `net`'s parameters, and an `opt` step replaces them.
    Returns the per-minibatch losses, the index of the first minibatch whose
    gradient was None (or None; it stops there) and `rng`'s state after
    each draw."""
    # the gradient is written through views built once for the update
    lay = nn.layout(net.params)
    out = np.empty(lay.size)
    blocks = lay.blocks(out)
    n = len(arrays[0])
    losses, drawn = [], []
    for _ in range(epochs):
        # gathered once per epoch, so each minibatch is a contiguous slice
        order = rng.permutation(n)
        drawn.append(rng.bit_generator.state)
        gathered = [x[order] for x in arrays]
        for start in range(0, n, minibatch):
            mb = slice(start, start + minibatch)
            loss, grad = loss_grad(*(x[mb] for x in gathered), out, blocks)
            if grad is None:
                return losses, len(losses), drawn
            (net.params,) = opt.step((net.params,), grad)
            losses.append(loss)
    return losses, None, drawn


def value_stream(value_net, request):
    """The value net's half of `ppo_update`: `ppo_stream` over its
    `loss_grad`, drawing the policy stream's epoch permutations from a
    generator at the request's `rng_state`. `value_net` gives the network's
    shape only: its parameters and Adam come from the request, which
    `ppo_update` builds, and neither is changed in place (the parameter
    vector is made read-only). Returns the reply: the new flat parameters
    ("params"), the Adam's (t, m, v) ("adam"), the per-minibatch losses and
    the index of the first minibatch whose gradient was None ("failed_at",
    or None). Only numpy arrays and Python values go in and out, so a
    `worker.Worker` can pickle both."""
    lay = nn.layout(value_net.params)
    net = copy.copy(value_net)
    net.params = lay.views(request["params"])
    *hyper, t, m, v = request["adam"]
    opt = nn.AdamOptimizer(*hyper)
    opt.t, opt.m, opt.v = t, m.copy(), v.copy()  # a step writes its moments in place
    state = request["rng_state"]
    rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
    rng.bit_generator.state = state
    arrays = (request["states"], request["targets_r"], request["targets_0"])
    losses, failed_at, _ = ppo_stream(net, net.loss_grad, opt, rng, arrays, request["epochs"],
                                      request["minibatch"])
    return {"params": lay.flatten(net.params), "adam": (opt.t, opt.m, opt.v),
            "losses": losses, "failed_at": failed_at}


def split_at(lengths):
    """Where a regression minibatch of two or more trajectories with these
    lengths is cut into two groups of whole trajectories: the number of
    trajectories in the shortest prefix that holds at least half of the
    rows, at most all but the last, so that neither group is empty."""
    rows = np.cumsum(lengths)
    return min(int(np.argmax(2 * rows >= rows[-1])) + 1, len(lengths) - 1)


def regression_minibatches(rows, lengths, targets, orders, minibatch):
    """The minibatches of a regression phase, in order, over a sample of
    trajectories given by its stacked input `rows`, `lengths` and
    `targets`: per epoch, one permutation in `orders`, cut into slices of
    `minibatch` trajectories. Each is a list of its groups: one for a single
    trajectory, else two, cut at `split_at`. A group is (rows, lengths,
    targets, segment index), the arguments `decomposer.loss_grad` takes
    after the model and as `at`."""
    starts = np.cumsum(lengths) - lengths
    for order in orders:
        # the rows gathered once per epoch, trajectory by trajectory in
        # the permuted order, so each group is a contiguous slice
        e_lengths, e_targets = lengths[order], targets[order]
        # one segment index per epoch; a group takes its slice, with its
        # first trajectory as segment 0
        e_segment, e_positions = _kernels.segment_index(e_lengths)
        e_rows = rows[np.repeat(starts[order], e_lengths) + e_positions]
        bounds = np.concatenate([[0], np.cumsum(e_lengths)])
        for start in range(0, len(order), minibatch):
            stop = min(start + minibatch, len(order))
            cuts = [start, stop]
            if stop - start > 1:
                cuts.insert(1, start + split_at(e_lengths[start:stop]))
            groups = []
            for first, end in zip(cuts, cuts[1:]):
                span = slice(bounds[first], bounds[end])
                groups.append((e_rows[span], e_lengths[first:end], e_targets[first:end],
                               (e_segment[span] - first, e_positions[span])))
            yield groups


def usable_cpus():
    """The number of CPUs this process may run on; 1 where the platform has
    no affinity call (Windows, macOS), so that no worker is started there."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


# glibc's mallopt parameters (malloc.h) and the values a Trainer pins them to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 64 << 20))


@functools.cache
def pin_malloc_thresholds():
    """Pin glibc's mmap and trim thresholds, once per process; True if pinned.

    Every step allocates and frees a few MB of transient arrays, many of
    them above glibc's initial 128 KiB mmap threshold (the regression's
    attention blocks among them). glibc raises its thresholds only when it
    frees an mmapped block, so how those arrays are served depends on what
    earlier steps happened to free: mmapped, or trimmed off the heap top,
    their pages fault in again on every step. Pinned, they stay on the
    heap.

    A quiet no-op returning False where the process's C library is not
    glibc: where `ctypes.CDLL(None)` cannot load it (Windows), where it has
    no `gnu_get_libc_version` (musl, whose `mallopt` only returns 0; macOS)
    or no `mallopt`. On glibc, a value `mallopt` refuses is warned of and
    leaves its threshold as it was; the other is still pinned, and the
    result is False."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    pinned = True
    for param, value in MALLOC_THRESHOLDS:
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed", RuntimeWarning, stacklevel=2)
            pinned = False
    return pinned


# The thread-count setters of OpenBLAS builds, most likely first: the
# scipy-openblas build that numpy's wheels ship, then plain OpenBLAS, each
# with 64-bit integers and without
OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def pin_blas_threads():
    """Run the process's OpenBLAS on one thread, once per process; True if
    pinned.

    A Trainer's matrices are small, so a second BLAS thread gains little,
    and OpenBLAS's idle threads spin. With the `worker.Worker` on the
    second CPU they took its time: on a 2-vCPU box with OpenBLAS at its
    default two threads, a train-full regression phase took 88 ms against
    24 ms inline. One thread also makes the numbers independent of the
    host's CPU count: a train-baseline step's bits differ between one and
    two BLAS threads.

    The setter is looked up through the handle of numpy's core extension
    module, which also resolves the symbols of the BLAS it links. So this
    is a quiet no-op returning False where none of OPENBLAS_SETTERS
    resolves: another BLAS, or a loader that searches the module's own
    symbols only (Windows)."""
    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        lib = ctypes.cdll.LoadLibrary(core.__file__)  # the handle numpy's import opened
    except (AttributeError, OSError):
        return False
    for name in OPENBLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return True
    return False


class Trainer:
    """Owns the models, Adams and RNG streams of one seeded training run; with
    a decomposer, also the replay buffer and the reward Adam. On Linux with
    two or more usable CPUs, it also owns the `worker.Worker` that runs the
    value net's half of its PPO updates and the second group of each split
    regression minibatch. The worker lives from the Trainer's first
    regression phase or PPO update, whichever comes first, until the
    Trainer is collected or the interpreter exits, or until a step raises
    in or between those phases; the next phase then starts a fresh one."""

    def __init__(self, config, seed=0):
        pin_malloc_thresholds()
        pin_blas_threads()
        self.config = config
        self.seed = seed
        seqs = np.random.SeedSequence(seed).spawn(5)
        self.init_rng = np.random.default_rng(seqs[0])
        self.rollout_rng = np.random.default_rng(seqs[1])
        self.ppo_rng = np.random.default_rng(seqs[2])
        self.regression_rng = np.random.default_rng(seqs[3])

        self.env = envs.make_env(config.env, config.env_params)
        self.policy = make_policy(self.init_rng, self.env, config.hidden)
        self.value_net = ValueNetwork(self.init_rng, self.env.state_dim, config.hidden)
        self.model = self.normalizer = self.buffer = self.reward_opt = None
        if config.use_decomposer:
            n_actions = getattr(self.env, "n_actions", None)
            input_dim = self.env.state_dim + (n_actions if n_actions else self.env.action_dim)
            self.model = decomposer.make_predictor(config.architecture, input_dim, self.init_rng)
            self.normalizer = decomposer.ReturnNormalizer()
            # seqs[4] is spawned for the baseline too, so no stream moves
            self.buffer = buffers.ReplayBuffer(config.buffer_scheme, config.buffer_capacity,
                                               config.reservoir_capacity, seed=seqs[4])
            self.reward_opt = nn.AdamOptimizer(config.reward_lr)
            # the regression's flat gradients of a minibatch's two groups,
            # which every minibatch rewrites; the second only without a worker
            self._regression_grads = np.empty((2, nn.layout(self.model.params).size))
        self.policy_opt = nn.AdamOptimizer(config.policy_lr)
        self.value_opt = nn.AdamOptimizer(config.policy_lr)
        # the worker, started at the first phase that uses it, and its finalizer
        self._worker = self._close_worker = None
        self.iteration = 0
        self.env_steps = 0
        self.metrics = []

    def _start_worker(self):
        """This Trainer's `worker.Worker`, started at the first phase that
        asks for it, so that building a Trainer starts no process; None
        where fewer than two CPUs are usable or no process can be forked,
        and both phases run inline. A finalizer closes the worker when the
        Trainer is collected, or at exit."""
        if self._worker is None and usable_cpus() >= 2:
            from rdecomp import worker as worker_mod  # only where a worker starts

            if worker_mod.FORKS:
                self._worker = worker_mod.Worker(self.value_net, self.model)
                self._close_worker = weakref.finalize(self, self._worker.close)
        return self._worker

    def decompose(self, batch):
        """Per-interval rewards of every trajectory, in one forward pass. The
        baseline's are zero: views of one read-only zeros array, with
        composite 0.0 and the return as the residual."""
        if self.model is None:
            zeros = np.zeros(max(traj.length for traj in batch))
            zeros.flags.writeable = False
            return [decomposer.RewardDecomposition(zeros[: traj.length], 0.0, traj.episodic_return)
                    for traj in batch]
        return decomposer.predict(self.model, batch, self.normalizer)

    def _regression_phase(self):
        if self.model is None or len(self.buffer) == 0:
            return 0.0
        sample = self.buffer.sample(self.config.buffer_capacity)
        job = (decomposer.input_rows(self.model, sample),
               np.array([traj.length for traj in sample]),
               decomposer.regression_targets(sample, self.normalizer),
               # every epoch's order, drawn before the first epoch runs
               [self.regression_rng.permutation(len(sample))
                for _ in range(self.config.regression_epochs)],
               self.config.regression_minibatch)
        worker = self._start_worker()
        if worker is not None:
            worker.start_regression(job)
        lay = nn.layout(self.model.params)
        grad, rest_grad = self._regression_grads
        blocks, rest_blocks = lay.blocks(grad), lay.blocks(rest_grad)  # built once per phase
        losses = []
        for (x, lengths, targets, at), *rest in regression_minibatches(*job):
            if not rest:
                second = None
            elif worker is None:
                r_x, r_lengths, r_targets, r_at = rest[0]
                second = functools.partial(decomposer.loss_grad, self.model, r_x, r_lengths,
                                           r_targets, rest_grad, rest_blocks, r_at)
            else:
                worker.start_group(self.model.params)
                second = worker.group_result
            losses.append(decomposer.regression_step(
                self.model, x, lengths, targets, self.reward_opt, grad, blocks, at, second))
        return float(np.mean(losses))

    def _gradient_variance(self, batch, decomps, a, head_grads):
        """Variance diagnostic of the corrected-estimator coefficients at the
        policy that drew the batch, from its pass over the stacked steps."""
        return estimators.variance_bias_corrected(batch, self.policy, decomps, a, head_grads)

    def step(self):
        """One outer iteration; returns the metrics row."""
        config = self.config
        batch = rollout(self.policy, self.env, config.ppo_batch, self.rollout_rng)
        self.env_steps += sum(t.length for t in batch)
        returns = np.array([t.episodic_return for t in batch])

        if self.model is not None:
            self.buffer.insert(batch)
            self.normalizer.update(returns)
        try:
            regression_loss = self._regression_phase()
            decomps = self.decompose(batch)
            if not config.bias_correction:
                decomps = [
                    decomposer.RewardDecomposition(d.per_interval, d.composite, 0.0)
                    for d in decomps
                ]
            states = np.concatenate([t.states for t in batch])
            actions = np.concatenate([t.actions for t in batch])
            advantages, t_r, t_0 = compute_advantages(
                batch, decomps, self.value_net, config.gamma, config.lam, states
            )
            # one policy pass over the batch gives PPO's old log-probs and the
            # diagnostic, both before the update moves the policy
            a = self.policy.forward(states)
            logp, _, head_grads = self.policy.log_prob_head(a["head"], actions)
            grad_variance = self._gradient_variance(batch, decomps, a, head_grads)
            ppo_metrics = ppo_update(
                self.policy, self.value_net, states, actions, advantages, t_r, t_0, config,
                self.ppo_rng, (self.policy_opt, self.value_opt), logp.reshape(-1),
                worker=self._start_worker(),
            )
        except BaseException:
            # The worker may be gone, or a phase that raised or was
            # interrupted may have left a request half served, or a byte or
            # reply in the pipe for the next phase to read: it is closed,
            # and the next phase starts a fresh one.
            if self._worker is not None:
                self._close_worker()
                self._worker = None
            raise
        row = {
            "iteration": self.iteration,
            "env_steps": self.env_steps,
            "return_mean": float(returns.mean()),
            "return_std": float(returns.std()),
            "regression_loss": regression_loss,
            "residual_abs_mean": float(np.mean([abs(d.residual) for d in decomps])),
            "grad_variance": grad_variance,
            "ppo_aborted": int(ppo_metrics["aborted"]),
        }
        self.iteration += 1
        self.metrics.append(row)
        return row, ppo_metrics

    def run(self):
        while self.iteration < self.config.iterations:
            self.step()
        return self.metrics

    # -- persistence --------------------------------------------------------

    def save(self, out_dir, suffix=""):
        """Write every artifact of the run through `checkpoint.write_atomic`:
        the checkpoints, each with the iteration in its meta, then a
        decomposer run's buffer, and the state last. A crash inside a save
        thus leaves either the old set or a checkpoint whose iteration is
        not the state's, which `restore` refuses."""
        os.makedirs(out_dir, exist_ok=True)
        checkpoint.save(
            os.path.join(out_dir, f"policy{suffix}.json"),
            self.policy.params,
            meta={"kind": "policy", "seed": self.seed, "iteration": self.iteration},
        )
        checkpoint.save(
            os.path.join(out_dir, f"value{suffix}.json"),
            self.value_net.params,
            meta={"kind": "value", "iteration": self.iteration},
        )
        if self.model is not None:
            meta = {
                "kind": "reward_predictor",
                "architecture": self.model.architecture,
                "hyperparams": {"input_dim": self.model.input_dim},
                "interval_kind": self.config.interval_kind,
                "iteration": self.iteration,
                "normalizer": self.normalizer.state(),
            }
            checkpoint.save(
                os.path.join(out_dir, f"reward_model{suffix}.json"),
                self.model.params,
                meta=meta,
            )
        self._save_state(out_dir, suffix)

    def _optimizers(self):
        """(label, Adam) per model; the reward entry only with a reward model."""
        entries = (("policy", self.policy_opt), ("value", self.value_opt))
        if self.model is None:
            return entries
        return entries + (("reward", self.reward_opt),)

    def _save_state(self, out_dir, suffix):
        opt_arrays, steps = {}, {}
        for label, opt in self._optimizers():
            opt_arrays[f"{label}/m"], opt_arrays[f"{label}/v"] = opt.m, opt.v
            steps[label] = opt.t
        checkpoint.save(
            os.path.join(out_dir, f"optimizer{suffix}.json"),
            opt_arrays,
            meta={"steps": steps, "iteration": self.iteration},
        )
        state = {"iteration": self.iteration, "env_steps": self.env_steps, "seed": self.seed}
        if self.buffer is not None:
            buffer_trajs, state["buffer_meta"] = self.buffer.snapshot()
            write_jsonl(os.path.join(out_dir, f"buffer{suffix}.jsonl"), buffer_trajs)
            state["buffer_rng"] = self.buffer.rng.bit_generator.state
        state["rngs"] = {
            name: getattr(self, name).bit_generator.state
            for name in ("rollout_rng", "ppo_rng", "regression_rng")
        }
        checkpoint.write_atomic(os.path.join(out_dir, f"state{suffix}.json"),
                                json.dumps(state, indent=1))

    def restore(self, out_dir, suffix=""):
        """Resume from artifacts written by `save`. Every artifact is read and
        checked before any state is replaced, so a failure leaves the
        trainer as it was. CheckpointError for a checkpoint from another
        iteration than the state's (a save cut short), a model or Adam state
        whose parameter names or sizes are not those of the model it would
        replace, or policy and value Adam states at different step counts.
        A baseline ignores the buffer and reward Adam that older saves hold."""

        def path(name, ext=".json"):
            return os.path.join(out_dir, f"{name}{suffix}{ext}")

        names = ["policy", "value", "optimizer"] + ([] if self.model is None else ["reward_model"])
        loaded = {name: checkpoint.load(path(name)) for name in names}
        with open(path("state"), "r", encoding="utf-8") as fh:
            state = json.load(fh)
        for name, (_, meta) in loaded.items():
            if meta.get("iteration", state["iteration"]) != state["iteration"]:
                raise checkpoint.CheckpointError(
                    f"{path(name)} is from iteration {meta['iteration']} but"
                    f" {path('state')} from {state['iteration']}: a save was cut short"
                )
        buffer_trajs = None if self.buffer is None else read_jsonl(path("buffer", ".jsonl"))
        opt_arrays, opt_meta = loaded["optimizer"]
        adams = []
        models = (("policy", self.policy), ("value", self.value_net), ("reward_model", self.model))
        # a baseline lists no reward Adam, so the zip stops before its None model
        for (label, opt), (name, model) in zip(self._optimizers(), models):
            if f"{label}/m" not in opt_arrays or f"{label}/v" not in opt_arrays:
                raise checkpoint.CheckpointError(
                    f"{path('optimizer')} has no flat Adam state {label}/m, {label}/v"
                )
            t, m, v = opt_meta["steps"][label], opt_arrays[f"{label}/m"], opt_arrays[f"{label}/v"]
            got = {k: p.shape for k, p in loaded[name][0].items()}
            want = {k: p.shape for k, p in model.params.items()}
            bad = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            if bad:
                raise checkpoint.CheckpointError(
                    f"{path(name)} does not fit the model: parameters {bad} differ"
                    " in name or shape"
                )
            size = sum(p.size for p in model.params.values())
            # Adam's moments are empty until its first step
            if not m.shape == v.shape == ((size if t else 0),):
                raise checkpoint.CheckpointError(
                    f"{path('optimizer')} holds Adam moments of shapes {m.shape}, {v.shape}"
                    f" for {label}, which has {size} parameters"
                )
            adams.append((opt, t, m, v))
        # the two PPO Adams step together
        if opt_meta["steps"]["policy"] != opt_meta["steps"]["value"]:
            raise checkpoint.CheckpointError(
                f"{path('optimizer')}: policy Adam step {opt_meta['steps']['policy']},"
                f" value {opt_meta['steps']['value']}"
            )

        self.policy.params, self.value_net.params = loaded["policy"][0], loaded["value"][0]
        if self.model is not None:
            self.model.params, meta = loaded["reward_model"]
            self.normalizer = decomposer.ReturnNormalizer.from_state(meta["normalizer"])
            self.buffer.rng.bit_generator.state = state["buffer_rng"]
            self.buffer.restore_snapshot(buffer_trajs, state["buffer_meta"])
        self.iteration = state["iteration"]
        self.env_steps = state["env_steps"]
        for name, rng_state in state["rngs"].items():
            getattr(self, name).bit_generator.state = rng_state
        for opt, t, m, v in adams:
            # copies: loaded arrays are read-only, and a step writes the moments
            opt.t, opt.m, opt.v = t, m.copy(), v.copy()


class MetricsWriter:
    """CSV sink, flushed per row so partial runs keep their logs. Resuming at
    an iteration keeps the rows before it: a crash after a row was written
    but before its iteration was saved repeats that iteration. The header
    and the kept rows are written through `checkpoint.write_atomic`."""

    def __init__(self, path, resume_at=None):
        kept = []
        if resume_at is not None and os.path.exists(path):
            with open(path, "r", newline="", encoding="utf-8") as fh:
                kept = [row for row in csv.DictReader(fh) if int(row["iteration"]) < resume_at]
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        writer.writerows({k: row[k] for k in METRIC_COLUMNS} for row in kept)
        checkpoint.write_atomic(path, text.getvalue())
        self._fh = open(path, "a", newline="", encoding="utf-8")
        self._writer = csv.DictWriter(self._fh, fieldnames=METRIC_COLUMNS)

    def write(self, row):
        self._writer.writerow({k: row[k] for k in METRIC_COLUMNS})
        self._fh.flush()

    def close(self):
        self._fh.close()


def train(config, seed=0):
    """Run the full loop; returns the Trainer with models and metrics."""
    trainer = Trainer(config, seed)
    trainer.run()
    return trainer
