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
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import os
import warnings
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

    Episodic returns come from the wrapper: zero everywhere, the summed
    dense reward at the final step. The policy is fixed for the whole call,
    so its sampler may cache per state.
    """
    wrapper = envs.EpisodicWrapper(env)
    act = policy.sampler()
    batch = []
    steps = 0
    while steps < n_steps:
        state = wrapper.reset(rng)
        states, actions = [], []
        final_reward = 0.0
        done = False
        while not done:
            action = act(state, rng)
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


def compute_advantages(batch, decomps, value_net, gamma, lam):
    """Per-step advantages and value targets for both streams.

    Returns (advantages, targets_r, targets_0), each one (N,) array over the
    batch's steps, episode after episode in batch order. Episodes are
    terminal by construction, so the bootstrap value after the last step is
    zero, and each stream is one GAE scan over the batch's zero-padded
    (B, T) block. The value net runs once per episode: its rows then meet
    the same matrix products as an episode alone, which keeps the values'
    bits.
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
    values = [value_net.values_np(traj.states) for traj in batch]
    vr[at], v0[at] = (np.concatenate([v[i] for v in values]) for i in (0, 1))
    adv1 = _kernels.gae(r1[:, :t_len], vr, gamma, lam)[at]
    adv2 = _kernels.gae(r2[:, :t_len], v0, gamma, lam)[at]
    return adv1 + adv2, adv1 + vr[at], adv2 + v0[at]


def ppo_update(policy, value_net, states, actions, advantages, targets_r, targets_0, config,
               rng, opt, old_logp):
    """Clipped-surrogate update over epochs x minibatches.

    `states` and `actions` are the batch's steps stacked episode after
    episode, and `advantages`, `targets_r`, `targets_0` and `old_logp`
    (N,) arrays over them: the first three as `compute_advantages` returns
    them, `old_logp` log pi(a_t|s_t) under the policy that drew the batch,
    as `policy.log_prob_np` gives it. Advantages are normalized across the
    whole batch first. `opt` steps the policy and the value net as one
    vector. If a loss or a probability ratio goes non-finite (a gradient
    comes back None), the previous parameters and Adam state are restored
    and the update is abandoned for this iteration.
    """
    adv = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    # A step returns fresh parameter arrays, so references to them suffice;
    # it writes the Adam moments in place, so those are copied.
    saved = (dict(policy.params), dict(value_net.params), opt.t, opt.m.copy(), opt.v.copy())
    # Each net writes its gradient into its slice of one vector, through
    # views built once for the update: the layouts do not change.
    policy_lay, value_lay = nn.layout(policy.params), nn.layout(value_net.params)
    grad = np.empty(policy_lay.size + value_lay.size)
    policy_out, value_out = grad[: policy_lay.size], grad[policy_lay.size :]
    policy_blocks, value_blocks = policy_lay.blocks(policy_out), value_lay.blocks(value_out)
    n = len(adv)
    metrics = {"policy_loss": 0.0, "value_loss": 0.0, "updates": 0, "aborted": False}
    for _ in range(config.epochs):
        # gathered once per epoch, so each minibatch is a contiguous slice
        order = rng.permutation(n)
        e_states, e_actions, e_logp, e_adv, e_tr, e_t0 = (
            x[order] for x in (states, actions, old_logp, adv, targets_r, targets_0)
        )
        for start in range(0, n, config.minibatch):
            mb = slice(start, start + config.minibatch)
            policy_loss, policy_grad = policy.ppo_loss_grad(
                e_states[mb], e_actions[mb], e_logp[mb], e_adv[mb], config.clip,
                config.entropy_coef, policy_out, policy_blocks,
            )
            value_loss, value_grad = value_net.loss_grad(e_states[mb], e_tr[mb], e_t0[mb],
                                                         value_out, value_blocks)

            if policy_grad is None or value_grad is None:
                policy.params, value_net.params, opt.t, opt.m, opt.v = saved
                metrics["aborted"] = True
                return metrics
            policy.params, value_net.params = opt.step((policy.params, value_net.params), grad)
            metrics["policy_loss"] += policy_loss
            metrics["value_loss"] += value_loss
            metrics["updates"] += 1
    return metrics


def _zero_decomposition(traj):
    return decomposer.RewardDecomposition.from_values(
        np.zeros(traj.length), traj.episodic_return
    )


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


class Trainer:
    """Owns the models, Adams and RNG streams of one seeded training run; with
    a decomposer, also the replay buffer and the reward Adam."""

    def __init__(self, config, seed=0):
        pin_malloc_thresholds()
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
        # one Adam over the policy and the value net, laid end to end
        self.ppo_opt = nn.AdamOptimizer(config.policy_lr)
        self.iteration = 0
        self.env_steps = 0
        self.metrics = []

    def decompose(self, batch):
        """Per-interval rewards of every trajectory, in one forward pass."""
        if self.model is None:
            return [_zero_decomposition(traj) for traj in batch]
        return decomposer.predict(self.model, batch, self.normalizer)

    def _regression_phase(self):
        if self.model is None or len(self.buffer) == 0:
            return 0.0
        sample = self.buffer.sample(self.config.buffer_capacity)
        lengths = np.array([traj.length for traj in sample])
        rows = np.split(decomposer.input_rows(self.model, sample), np.cumsum(lengths)[:-1])
        targets = decomposer.regression_targets(sample, self.normalizer)
        losses = []
        mb = self.config.regression_minibatch
        for _ in range(self.config.regression_epochs):
            order = self.regression_rng.permutation(len(sample))
            for start in range(0, len(sample), mb):
                idx = order[start : start + mb]
                x = np.concatenate([rows[i] for i in idx])
                losses.append(decomposer.regression_step(
                    self.model, x, lengths[idx], targets[idx], self.reward_opt
                ))
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
        regression_loss = self._regression_phase()

        decomps = self.decompose(batch)
        if not config.bias_correction:
            decomps = [
                decomposer.RewardDecomposition(d.per_interval, d.composite, 0.0)
                for d in decomps
            ]
        advantages, t_r, t_0 = compute_advantages(
            batch, decomps, self.value_net, config.gamma, config.lam
        )
        # one policy pass over the batch gives PPO's old log-probs and the
        # diagnostic, both before the update moves the policy
        states = np.concatenate([t.states for t in batch])
        actions = np.concatenate([t.actions for t in batch])
        a = self.policy.forward(states)
        logp, _, head_grads = self.policy.log_prob_head(a["head"], actions)
        grad_variance = self._gradient_variance(batch, decomps, a, head_grads)
        ppo_metrics = ppo_update(
            self.policy, self.value_net, states, actions, advantages, t_r, t_0,
            config, self.ppo_rng, self.ppo_opt, logp.reshape(-1),
        )
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
        """(label, Adam, the label's slice of the Adam's moments); the reward
        entry only with a reward model."""
        n_policy = nn.layout(self.policy.params).size
        entries = (("policy", self.ppo_opt, slice(0, n_policy)),
                   ("value", self.ppo_opt, slice(n_policy, None)))
        if self.model is None:
            return entries
        return entries + (("reward", self.reward_opt, slice(None)),)

    def _save_state(self, out_dir, suffix):
        opt_arrays, steps = {}, {}
        for label, opt, part in self._optimizers():
            opt_arrays[f"{label}/m"], opt_arrays[f"{label}/v"] = opt.m[part], opt.v[part]
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
        adams = {}
        models = (("policy", self.policy), ("value", self.value_net), ("reward_model", self.model))
        # a baseline lists no reward Adam, so the zip stops before its None model
        for (label, opt, _), (name, model) in zip(self._optimizers(), models):
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
            t_pair, ms, vs = adams.setdefault(opt, (t, [], []))
            if t != t_pair:
                raise checkpoint.CheckpointError(
                    f"{path('optimizer')}: policy Adam step {t_pair}, value {t}"
                )
            ms.append(m)
            vs.append(v)

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
        for opt, (t, ms, vs) in adams.items():
            # copies: loaded arrays are read-only, and a step writes the moments
            opt.t, opt.m, opt.v = t, np.concatenate(ms), np.concatenate(vs)


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
