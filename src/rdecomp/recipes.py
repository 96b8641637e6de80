"""Named experiment generators for the benchmark command.

Each recipe expands into a list of (name, ExperimentConfig) pairs that
differ along exactly one axis (plus `ablation-grid`, the full cross
product), so the emitted CSVs are directly comparable.
"""

from __future__ import annotations

import dataclasses

from rdecomp.config import ExperimentConfig
from rdecomp.trainer import TrainConfig

# Desk-scale base settings shared by all recipes: small batches keep a
# full sweep under a CPU-minute budget while preserving every code path.
_BASE = dict(
    env="chain",
    env_params={"n_states": 6, "horizon": 10},
    iterations=5,
    ppo_batch=200,
    minibatch=50,
    buffer_capacity=30,
    regression_minibatch=10,
    policy_lr=3e-4,
    entropy_coef=0.01,
    seeds=[1],
)

_COMPARISON = dict(
    iterations=60,
    ppo_batch=512,
    minibatch=64,
    buffer_capacity=50,
    policy_lr=3e-4,
)


def _experiment(name, seeds, output_dir="runs", **overrides):
    merged = dict(_BASE)
    merged.update(overrides)
    merged.pop("seeds", None)
    train = TrainConfig(**merged)
    return name, ExperimentConfig(
        train=train, seeds=list(seeds), output_dir=output_dir, name=name
    )


def learning_curves(seeds=(1, 2, 3, 4, 5)):
    """Full method versus the episodic-PPO baseline on both benchmark envs."""
    out = []
    for env, params in (
        ("grid", {"size": 4, "horizon": 16}),
        ("chain", {"n_states": 8, "horizon": 12}),
    ):
        shared = dict(_COMPARISON, env=env, env_params=params)
        out.append(
            _experiment(
                f"{env}-full",
                seeds,
                architecture="attention",
                buffer_scheme="HO",
                bias_correction=True,
                **shared,
            )
        )
        out.append(_experiment(f"{env}-baseline", seeds, use_decomposer=False, **shared))
    return out


def buffer_comparison(seeds=(1, 2, 3)):
    return [
        _experiment(f"buffer-{scheme}", seeds, buffer_scheme=scheme)
        for scheme in ("O", "HO", "S")
    ]


def network_comparison(seeds=(1, 2, 3)):
    return [
        _experiment(f"network-{arch}", seeds, architecture=arch)
        for arch in ("ff", "recurrent", "attention")
    ]


def bias_comparison(seeds=(1, 2, 3)):
    """Bias correction on/off at two regression learning rates."""
    out = []
    for lr in (1e-2, 1e-3):
        for corrected in (True, False):
            tag = "on" if corrected else "off"
            out.append(
                _experiment(
                    f"bias-{tag}-lr{lr:g}",
                    seeds,
                    bias_correction=corrected,
                    reward_lr=lr,
                )
            )
    return out


def ablation_grid(seeds=(1,)):
    """Every buffer scheme x architecture x bias setting.

    Bias-corrected cells run at both regression learning rates; the
    uncorrected ones only at the default.
    """
    out = []
    for scheme in ("O", "HO", "S"):
        for arch in ("ff", "recurrent", "attention"):
            cells = [(True, 1e-3), (True, 1e-2), (False, 1e-3)]
            for corrected, lr in cells:
                tag = f"{scheme}-{arch}-{'bias' if corrected else 'nobias'}-lr{lr:g}"
                out.append(
                    _experiment(
                        tag,
                        seeds,
                        buffer_scheme=scheme,
                        architecture=arch,
                        bias_correction=corrected,
                        reward_lr=lr,
                    )
                )
    return out


RECIPES = {
    "learning-curves": learning_curves,
    "buffers": buffer_comparison,
    "networks": network_comparison,
    "bias-correction": bias_comparison,
    "ablation-grid": ablation_grid,
}


def expand(recipe_name, seeds=None, **train_overrides):
    if recipe_name not in RECIPES:
        raise ValueError(f"unknown recipe {recipe_name!r}; choices: {sorted(RECIPES)}")
    pairs = RECIPES[recipe_name]() if seeds is None else RECIPES[recipe_name](seeds)
    if train_overrides:
        adjusted = []
        for name, exp in pairs:
            train = dataclasses.replace(exp.train, **train_overrides)
            adjusted.append((name, dataclasses.replace(exp, train=train)))
        pairs = adjusted
    return pairs
