"""Stock configurations as field dicts, and one way to build an attack or
trainer config from an optional preset name and field overrides."""

from __future__ import annotations

from .attacks import AttackConfig, AttackError
from .dqn import TrainerConfig, TrainingError

ATTACK = {
    "delay": dict(method="delay"),
    "basic-fgsm": dict(
        method="fgsm", eps_start=1e-4, eps_end=1e-3, eps_iters=5,
        k_scale=(1.0, 1.0, 1.0), constraint="relative_price"),
    "basic-cw": dict(
        method="cw", cw_variant="box", cw_max_iters=100, cw_lr=0.5, cw_const=0.1,
        constraint="relative_price"),
    "managed-fgsm": dict(
        method="fgsm", eps_start=0.1, eps_end=3.0, eps_iters=5,
        k_scale=(0.01, 0.01, 0.1), constraint="indicator"),
    "managed-cw": dict(
        method="cw", cw_variant="scaled", cw_eps=1.0, k_scale=(0.01, 1.0, 1.0),
        cw_max_iters=100, cw_lr=0.5, cw_const=0.1, constraint="indicator"),
}

TRAINER = {
    "basic": dict(
        total_timesteps=100_000, gamma=0.99, learning_rate=1e-4,
        buffer_capacity=100_000, learning_starts=1000, target_sync_every=1000,
        epsilon_initial=1.0, epsilon_final=0.02, epsilon_decay_fraction=0.1),
    "managed": dict(
        total_timesteps=25_000, gamma=0.9999, learning_rate=1e-5,
        buffer_capacity=1000, learning_starts=1000, target_sync_every=1000,
        epsilon_initial=0.9, epsilon_final=0.05,
        epsilon_decay_fraction=None, epsilon_decay_interval=200),
}

# keyed by trainer preset
ENV = {
    "basic": dict(kind="basic", window=10, commission_pct=0.1, episode_cap=250),
    "managed": dict(kind="managed", window=20, episode_cap=250),
}


def attack(preset: str | None = None, **fields) -> AttackConfig:
    return _build(AttackConfig, AttackError, ATTACK, preset, fields)


def trainer(preset: str | None = None, **fields) -> TrainerConfig:
    return _build(TrainerConfig, TrainingError, TRAINER, preset, fields)


def _build(config_class, error, stock: dict, preset, fields: dict):
    if not isinstance(preset, (str, type(None))):
        raise error(f"preset must be a string naming one of {sorted(stock)}, got {preset!r}")
    if preset and preset not in stock:
        raise error(f"unknown preset {preset!r}; have {sorted(stock)}")
    if preset:
        fields = {**stock[preset], **fields}
    return config_class(**fields)
