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
gradient only ever sees the freshest on-policy batch.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from rdecomp import _kernels
from rdecomp import autodiff as ad
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
    interval_kind: str = "prefixes"
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
    model_scale: str = "desk"
    positional: bool = True
    two_value_heads: bool = True
    normalize_targets: bool = True
    reward_optimizer: str = "adam"

    def __post_init__(self):
        for name in ("policy_lr", "reward_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.clip < 1.0:
            raise ValueError(f"clip must be in (0, 1), got {self.clip}")
        if self.interval_kind not in decomposer.VALID_KINDS:
            raise ValueError(f"bad interval_kind {self.interval_kind!r}")
        if self.reward_optimizer not in ("adam", "sgd"):
            raise ValueError(
                f"reward_optimizer must be 'adam' or 'sgd', got {self.reward_optimizer!r}"
            )


def rollout(policy, env, n_steps, rng):
    """Whole episodes until at least n_steps environment steps are collected.

    Episodic returns come from the wrapper: zero everywhere, the summed
    dense reward at the final step.
    """
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


def compute_advantages(batch, decomps, value_net, gamma, lam, two_heads=True):
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
        if two_heads:
            adv1 = _kernels.gae(r1, np.append(vr, 0.0), gamma, lam)
            adv2 = _kernels.gae(r2, np.append(v0, 0.0), gamma, lam)
            advantages.append(adv1 + adv2)
            targets_r.append(adv1 + vr)
            targets_0.append(adv2 + v0)
        else:
            adv = _kernels.gae(r1 + r2, np.append(vr, 0.0), gamma, lam)
            advantages.append(adv)
            targets_r.append(adv + vr)
            targets_0.append(np.zeros(traj.length))
    return advantages, targets_r, targets_0


def ppo_update(policy, value_net, batch, advantages, targets_r, targets_0, config,
               rng, policy_opt, value_opt):
    """Clipped-surrogate update over epochs x minibatches.

    Advantages are normalized across the whole batch first. If any loss
    goes non-finite the previous parameters are restored and the update is
    abandoned for this iteration.
    """
    states = np.concatenate([t.states for t in batch], axis=0)
    if batch[0].discrete:
        actions = np.concatenate([t.actions for t in batch])
    else:
        actions = np.concatenate([t.actions for t in batch], axis=0)
    adv = np.concatenate(advantages)
    t_r = np.concatenate(targets_r)
    t_0 = np.concatenate(targets_0)
    old_logp = np.concatenate([policy.log_prob_np(t.states, t.actions) for t in batch])

    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    saved_policy = dict(policy.params)
    saved_value = dict(value_net.params)
    n = len(adv)
    metrics = {"policy_loss": 0.0, "value_loss": 0.0, "updates": 0, "aborted": False}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.minibatch):
            idx = order[start : start + config.minibatch]
            s_mb = ad.constant(states[idx])
            a_mb = actions[idx]
            adv_mb = ad.constant(adv[idx].reshape(-1, 1))

            logp_new = policy.log_prob_tensor(s_mb, a_mb)
            ratio = ad.exp(ad.sub(logp_new, ad.constant(old_logp[idx].reshape(-1, 1))))
            unclipped = ad.mul(ratio, adv_mb)
            clipped = ad.mul(ad.clip(ratio, 1.0 - config.clip, 1.0 + config.clip), adv_mb)
            policy_loss = ad.neg(ad.mean_all(ad.minimum(unclipped, clipped)))
            if config.entropy_coef > 0.0:
                ent = ad.mean_all(policy.entropy_tensor(s_mb))
                policy_loss = ad.sub(policy_loss, ad.scale(ent, config.entropy_coef))
            value_loss = value_net.loss_tensor(s_mb, t_r[idx], t_0[idx])

            if not (np.isfinite(policy_loss.item()) and np.isfinite(value_loss.item())):
                policy.params = saved_policy
                value_net.params = saved_value
                metrics["aborted"] = True
                return metrics
            policy.params = policy_opt.step(policy.params, ad.backward(policy_loss))
            value_net.params = value_opt.step(value_net.params, ad.backward(value_loss))
            metrics["policy_loss"] += policy_loss.item()
            metrics["value_loss"] += value_loss.item()
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
        self.value_net = ValueNetwork(
            self.init_rng, self.env.state_dim, config.hidden, config.two_value_heads
        )
        self.n_actions = getattr(self.env, "n_actions", None)
        self.interval_set = decomposer.IntervalSet(config.interval_kind)
        self.model = None
        self.normalizer = None
        if config.use_decomposer:
            input_dim = self.env.state_dim + (
                self.n_actions if self.n_actions else self.env.action_dim
            )
            self.model = decomposer.make_predictor(
                config.architecture,
                input_dim,
                self.init_rng,
                config.model_scale,
                config.positional,
            )
            if config.normalize_targets:
                self.normalizer = decomposer.ReturnNormalizer()
        self.buffer = ReplayBuffer(
            config.buffer_scheme,
            config.buffer_capacity,
            config.reservoir_capacity,
            seed=seqs[4],
        )
        self.policy_opt = nn.AdamOptimizer(config.policy_lr)
        self.value_opt = nn.AdamOptimizer(config.policy_lr)
        if config.reward_optimizer == "adam":
            self.reward_opt = nn.AdamOptimizer(config.reward_lr)
        else:
            self.reward_opt = nn.SgdOptimizer(config.reward_lr)
        self.iteration = 0
        self.env_steps = 0
        self.metrics = []

    def decompose(self, batch):
        """Per-interval rewards of every trajectory, in one forward pass."""
        if self.model is None:
            return [_zero_decomposition(traj) for traj in batch]
        return decomposer.predict_batch(
            self.model, batch, self.interval_set, self.normalizer, self.n_actions
        )

    def _regression_phase(self):
        if self.model is None or len(self.buffer) == 0:
            return 0.0
        sample = self.buffer.sample(self.config.buffer_capacity)
        losses = []
        mb = self.config.regression_minibatch
        for _ in range(self.config.regression_epochs):
            order = self.regression_rng.permutation(len(sample))
            for start in range(0, len(sample), mb):
                chunk = [sample[i] for i in order[start : start + mb]]
                losses.append(
                    decomposer.regression_step(
                        self.model,
                        chunk,
                        self.interval_set,
                        optimizer=self.reward_opt,
                        normalizer=self.normalizer,
                        n_actions=self.n_actions,
                    )
                )
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
            batch, decomps, self.value_net, config.gamma, config.lam,
            config.two_value_heads,
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

    def run(self, progress=None):
        while self.iteration < self.config.iterations:
            row, _ = self.step()
            if progress is not None:
                progress(row)
        return self.metrics

    # -- persistence --------------------------------------------------------

    def save(self, out_dir, suffix=""):
        os.makedirs(out_dir, exist_ok=True)
        checkpoint.save(
            os.path.join(out_dir, f"policy{suffix}.json"),
            self.policy.params,
            meta={"kind": "policy", "seed": self.seed},
        )
        checkpoint.save(
            os.path.join(out_dir, f"value{suffix}.json"),
            self.value_net.params,
            meta={"kind": "value"},
        )
        if self.model is not None:
            meta = {
                "kind": "reward_predictor",
                "architecture": self.model.architecture,
                "hyperparams": self.model.hyperparams(),
                "interval_kind": self.config.interval_kind,
            }
            if self.normalizer is not None:
                meta["normalizer"] = self.normalizer.state()
            checkpoint.save(
                os.path.join(out_dir, f"reward_model{suffix}.json"),
                self.model.params,
                meta=meta,
            )
        self._save_state(out_dir, suffix)

    def _save_state(self, out_dir, suffix):
        buffer_trajs, buffer_meta = self.buffer.snapshot()
        write_jsonl(os.path.join(out_dir, f"buffer{suffix}.jsonl"), buffer_trajs)
        opt_arrays = {}
        for label, opt in (("policy", self.policy_opt), ("value", self.value_opt),
                           ("reward", self.reward_opt)):
            if isinstance(opt, nn.AdamOptimizer):
                for k, arr in opt.m.items():
                    opt_arrays[f"{label}/m/{k}"] = ad.Tensor(arr)
                for k, arr in opt.v.items():
                    opt_arrays[f"{label}/v/{k}"] = ad.Tensor(arr)
        checkpoint.save(
            os.path.join(out_dir, f"optimizer{suffix}.json"),
            opt_arrays,
            meta={
                "steps": {
                    label: getattr(opt, "t", 0)
                    for label, opt in (("policy", self.policy_opt),
                                       ("value", self.value_opt),
                                       ("reward", self.reward_opt))
                }
            },
        )
        state = {
            "iteration": self.iteration,
            "env_steps": self.env_steps,
            "seed": self.seed,
            "normalizer": self.normalizer.state() if self.normalizer else None,
            "buffer_rng": self.buffer.rng.bit_generator.state,
            "buffer_meta": buffer_meta,
            "rngs": {
                name: getattr(self, name).bit_generator.state
                for name in ("rollout_rng", "ppo_rng", "regression_rng")
            },
        }
        with open(os.path.join(out_dir, f"state{suffix}.json"), "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=1)

    def restore(self, out_dir, suffix=""):
        """Resume from artifacts written by `save`."""
        self.policy.params, _ = checkpoint.load(os.path.join(out_dir, f"policy{suffix}.json"))
        self.value_net.params, _ = checkpoint.load(os.path.join(out_dir, f"value{suffix}.json"))
        if self.model is not None:
            self.model.params, meta = checkpoint.load(
                os.path.join(out_dir, f"reward_model{suffix}.json")
            )
            if self.normalizer is not None and meta.get("normalizer"):
                self.normalizer = decomposer.ReturnNormalizer.from_state(meta["normalizer"])
        with open(os.path.join(out_dir, f"state{suffix}.json"), "r", encoding="utf-8") as fh:
            state = json.load(fh)
        self.iteration = state["iteration"]
        self.env_steps = state["env_steps"]
        for name, rng_state in state["rngs"].items():
            getattr(self, name).bit_generator.state = rng_state
        self.buffer.rng.bit_generator.state = state["buffer_rng"]
        self.buffer.restore_snapshot(
            read_jsonl(os.path.join(out_dir, f"buffer{suffix}.jsonl")),
            state["buffer_meta"],
        )
        opt_arrays, opt_meta = checkpoint.load(os.path.join(out_dir, f"optimizer{suffix}.json"))
        for label, opt in (("policy", self.policy_opt), ("value", self.value_opt),
                           ("reward", self.reward_opt)):
            if isinstance(opt, nn.AdamOptimizer):
                opt.t = opt_meta["steps"].get(label, 0)
                for name, tensor in opt_arrays.items():
                    kind, which, key = name.split("/", 2)
                    if kind != label:
                        continue
                    target = opt.m if which == "m" else opt.v
                    target[key] = np.array(tensor.data)


def write_metrics_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in METRIC_COLUMNS})


class MetricsWriter:
    """Append-only CSV sink, flushed per row so partial runs keep their logs."""

    def __init__(self, path, append=False):
        mode = "a" if append and os.path.exists(path) else "w"
        self._fh = open(path, mode, newline="", encoding="utf-8")
        self._writer = csv.DictWriter(self._fh, fieldnames=METRIC_COLUMNS)
        if mode == "w":
            self._writer.writeheader()
            self._fh.flush()

    def write(self, row):
        self._writer.writerow({k: row[k] for k in METRIC_COLUMNS})
        self._fh.flush()

    def close(self):
        self._fh.close()


def train(config, seed=0, out_dir=None, progress=None):
    """Run the full loop; returns the Trainer with models and metrics."""
    trainer = Trainer(config, seed)
    trainer.run(progress)
    if out_dir is not None:
        trainer.save(out_dir, suffix=f"_seed{seed}")
        write_metrics_csv(
            os.path.join(out_dir, f"metrics_seed{seed}.csv"), trainer.metrics
        )
    return trainer
