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
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from rdecomp import _kernels
from rdecomp import checkpoint, decomposer, envs, estimators, nn
from rdecomp.buffers import ReplayBuffer
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
        if not (self.bias_correction or self.use_decomposer):
            raise ValueError("bias_correction=False needs use_decomposer=True: without the"
                             " predictor the return reaches PPO only through the residual")
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

    Returns (advantages, targets_r, targets_0), each a list of per-episode
    arrays aligned with `batch`. Episodes are terminal by construction, so
    the bootstrap value after the last step is zero.
    """
    advantages, targets_r, targets_0 = [], [], []
    for traj, dec in zip(batch, decomps):
        if len(dec.per_interval) != traj.length:
            raise ValueError(
                f"decomposition length {len(dec.per_interval)} != T {traj.length}"
            )
        r1 = np.asarray(dec.per_interval, dtype=np.float64)
        r2 = np.zeros(traj.length)
        r2[-1] = dec.residual
        vr, v0 = value_net.values_np(traj.states)
        adv1 = _kernels.gae(r1, np.append(vr, 0.0), gamma, lam)
        adv2 = _kernels.gae(r2, np.append(v0, 0.0), gamma, lam)
        advantages.append(adv1 + adv2)
        targets_r.append(adv1 + vr)
        targets_0.append(adv2 + v0)
    return advantages, targets_r, targets_0


def ppo_update(policy, value_net, batch, advantages, targets_r, targets_0, config,
               rng, policy_opt, value_opt):
    """Clipped-surrogate update over epochs x minibatches.

    Advantages are normalized across the whole batch first. If a loss or a
    probability ratio goes non-finite (a gradient comes back None), the
    previous parameters and Adam states are restored and the update is
    abandoned for this iteration.
    """
    states = np.concatenate([t.states for t in batch])
    actions = np.concatenate([t.actions for t in batch])
    adv = np.concatenate(advantages)
    t_r = np.concatenate(targets_r)
    t_0 = np.concatenate(targets_0)
    old_logp = policy.log_prob_np(states, actions)

    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    saved_policy = dict(policy.params)
    saved_value = dict(value_net.params)
    # Optimizers rebind t, m and v on every step, so references suffice.
    saved_opts = [(opt, opt.t, opt.m, opt.v) for opt in (policy_opt, value_opt)]
    n = len(adv)
    metrics = {"policy_loss": 0.0, "value_loss": 0.0, "updates": 0, "aborted": False}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch):
            idx = order[start : start + config.minibatch]
            policy_loss, policy_grad = policy.ppo_loss_grad(
                states[idx], actions[idx], old_logp[idx], adv[idx], config.clip,
                config.entropy_coef,
            )
            value_loss, value_grad = value_net.loss_grad(states[idx], t_r[idx], t_0[idx])

            if policy_grad is None or value_grad is None:
                policy.params = saved_policy
                value_net.params = saved_value
                for opt, t, m, v in saved_opts:
                    opt.t, opt.m, opt.v = t, m, v
                metrics["aborted"] = True
                return metrics
            policy.params = policy_opt.step(policy.params, policy_grad)
            value_net.params = value_opt.step(value_net.params, value_grad)
            metrics["policy_loss"] += policy_loss
            metrics["value_loss"] += value_loss
            metrics["updates"] += 1
    return metrics


def _zero_decomposition(traj):
    return decomposer.RewardDecomposition.from_values(
        np.zeros(traj.length), traj.episodic_return
    )


class Trainer:
    """Owns the models, buffer, and RNG streams for one seeded training run."""

    def __init__(self, config, seed=0):
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
        self.model = None
        self.normalizer = None
        if config.use_decomposer:
            n_actions = getattr(self.env, "n_actions", None)
            input_dim = self.env.state_dim + (n_actions if n_actions else self.env.action_dim)
            self.model = decomposer.make_predictor(config.architecture, input_dim, self.init_rng)
            self.normalizer = decomposer.ReturnNormalizer()
        self.buffer = ReplayBuffer(
            config.buffer_scheme,
            config.buffer_capacity,
            config.reservoir_capacity,
            seed=seqs[4],
        )
        self.policy_opt = nn.AdamOptimizer(config.policy_lr)
        self.value_opt = nn.AdamOptimizer(config.policy_lr)
        self.reward_opt = nn.AdamOptimizer(config.reward_lr)
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
        rows = decomposer.input_rows(self.model, sample)
        lengths = np.array([len(r) for r in rows])
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

    def _gradient_variance(self, batch, decomps):
        """Variance diagnostic of the corrected-estimator coefficients."""
        return estimators.grad_bias_corrected(batch, self.policy, decomps).variance

    def step(self):
        """One outer iteration; returns the metrics row."""
        config = self.config
        batch = rollout(self.policy, self.env, config.ppo_batch, self.rollout_rng)
        self.env_steps += sum(t.length for t in batch)
        returns = np.array([t.episodic_return for t in batch])

        self.buffer.insert(batch)
        if self.normalizer is not None:
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
        ppo_metrics = ppo_update(
            self.policy, self.value_net, batch, advantages, t_r, t_0,
            config, self.ppo_rng, self.policy_opt, self.value_opt,
        )
        row = {
            "iteration": self.iteration,
            "env_steps": self.env_steps,
            "return_mean": float(returns.mean()),
            "return_std": float(returns.std()),
            "regression_loss": regression_loss,
            "residual_abs_mean": float(np.mean([abs(d.residual) for d in decomps])),
            "grad_variance": self._gradient_variance(batch, decomps),
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
        the checkpoints, each with the iteration in its meta, then the
        buffer, and the state last. A crash inside a save thus leaves
        either the old set or a checkpoint whose iteration is not the
        state's, which `restore` refuses."""
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
        return (("policy", self.policy_opt), ("value", self.value_opt),
                ("reward", self.reward_opt))

    def _save_state(self, out_dir, suffix):
        opt_arrays = {}
        steps = {}
        for label, opt in self._optimizers():
            opt_arrays[f"{label}/m"] = opt.m
            opt_arrays[f"{label}/v"] = opt.v
            steps[label] = opt.t
        checkpoint.save(
            os.path.join(out_dir, f"optimizer{suffix}.json"),
            opt_arrays,
            meta={"steps": steps, "iteration": self.iteration},
        )
        buffer_trajs, buffer_meta = self.buffer.snapshot()
        write_jsonl(os.path.join(out_dir, f"buffer{suffix}.jsonl"), buffer_trajs)
        state = {
            "iteration": self.iteration,
            "env_steps": self.env_steps,
            "seed": self.seed,
            "buffer_rng": self.buffer.rng.bit_generator.state,
            "buffer_meta": buffer_meta,
            "rngs": {
                name: getattr(self, name).bit_generator.state
                for name in ("rollout_rng", "ppo_rng", "regression_rng")
            },
        }
        checkpoint.write_atomic(os.path.join(out_dir, f"state{suffix}.json"),
                                json.dumps(state, indent=1))

    def restore(self, out_dir, suffix=""):
        """Resume from artifacts written by `save`. Every artifact is read and
        checked before any state is replaced, so a failure leaves the
        trainer as it was; a checkpoint from another iteration than the
        state's (a save cut short) raises CheckpointError."""

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
        buffer_trajs = read_jsonl(path("buffer", ".jsonl"))
        opt_arrays, opt_meta = loaded["optimizer"]
        adams = {}
        for label, opt in self._optimizers():
            if f"{label}/m" not in opt_arrays or f"{label}/v" not in opt_arrays:
                raise checkpoint.CheckpointError(
                    f"{path('optimizer')} has no flat Adam state {label}/m, {label}/v"
                )
            adams[opt] = (opt_meta["steps"][label], opt_arrays[f"{label}/m"],
                          opt_arrays[f"{label}/v"])

        self.policy.params, self.value_net.params = loaded["policy"][0], loaded["value"][0]
        if self.model is not None:
            self.model.params, meta = loaded["reward_model"]
            self.normalizer = decomposer.ReturnNormalizer.from_state(meta["normalizer"])
        self.iteration = state["iteration"]
        self.env_steps = state["env_steps"]
        for name, rng_state in state["rngs"].items():
            getattr(self, name).bit_generator.state = rng_state
        self.buffer.rng.bit_generator.state = state["buffer_rng"]
        self.buffer.restore_snapshot(buffer_trajs, state["buffer_meta"])
        for opt, (t, m, v) in adams.items():
            opt.t, opt.m, opt.v = t, m, v


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
