"""The three workloads, as the `tradefool` command lines one round runs.

A round is the workload's whole set of CLI calls; a run repeats it with
fresh episode seeds. The workload seed and the round's index pick the
episode seeds (env start and chance gate) and the training seed; markets and
agents are fixed inputs. A round has only a few episodes, and an episode
that starts near the end of the market is cut short, so drawing new episodes
each round keeps one short episode from setting a whole run's time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import inputs

CW_CHANCES = "0.5"
FGSM_CHANCES = "0.1,0.5,1.0"
TRAIN_STEPS = 10_000
# the acceptance suite's FGSM ladder, scaled to the synthetic market's
# 5%-per-bar feature magnitudes
BASIC_FGSM_SCALED = {"preset": "basic-fgsm", "eps_start": 5e-3, "eps_end": 5e-2}

CONFIGS = {
    "fgsm_scaled.json": {"attack": BASIC_FGSM_SCALED},
    "train.json": {"trainer": {"preset": "basic", "total_timesteps": TRAIN_STEPS}},
}


@dataclass(frozen=True)
class Call:
    name: str  # output directory of the call within the round
    env: str  # "basic" | "managed": the market and agent it uses
    argv: tuple[str, ...]
    runs: int  # run directories a sweep call writes; 0 for train


def episode_seeds(seed: int, round_index: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, round_index])
    return [int(s) for s in rng.integers(0, 1_000_000, size=count)]


def _attack(name, env, data_dir, out, seeds, preset=None, mode=None, chances=None,
            config=None) -> Call:
    argv = [] if config is None else ["--config", os.path.join(data_dir, config)]
    argv += ["--out", os.path.join(out, name), "attack",
             "--checkpoint", inputs.agent_path(env),
             "--data", os.path.join(data_dir, f"{env}.csv"),
             "--seeds", ",".join(map(str, seeds))]
    if preset:
        argv += ["--preset", preset]
    if mode:
        argv += ["--mode", mode]
    if chances:
        argv += ["--chances", chances]
    per_seed = 2 if preset == "delay" else 1 + len(chances.split(","))
    return Call(name, env, tuple(argv), per_seed * len(seeds))


def calls(workload: str, seed: int, round_index: int, data_dir: str, out: str) -> list[Call]:
    """The CLI calls of one round, writing under ``out``."""
    if workload == "cw-sweep":
        s = episode_seeds(seed, round_index, 4)
        return [
            _attack("basic-cw-nt", "basic", data_dir, out, [s[0]], "basic-cw",
                    "non_targeted", CW_CHANCES),
            _attack("basic-cw-t", "basic", data_dir, out, [s[1]], "basic-cw",
                    "targeted", CW_CHANCES),
            _attack("managed-cw-nt", "managed", data_dir, out, [s[2]], "managed-cw",
                    "non_targeted", CW_CHANCES),
            _attack("managed-cw-t", "managed", data_dir, out, [s[3]], "managed-cw",
                    "targeted", CW_CHANCES),
        ]
    if workload == "fgsm-sweep":
        basic, managed = ([s] for s in episode_seeds(seed, round_index, 2))
        return [
            _attack("basic-delay", "basic", data_dir, out, basic, "delay"),
            _attack("basic-fgsm-nt", "basic", data_dir, out, basic, None, "non_targeted",
                    FGSM_CHANCES, "fgsm_scaled.json"),
            _attack("basic-fgsm-t", "basic", data_dir, out, basic, None, "targeted",
                    FGSM_CHANCES, "fgsm_scaled.json"),
            _attack("managed-delay", "managed", data_dir, out, managed, "delay"),
            _attack("managed-fgsm-nt", "managed", data_dir, out, managed, "managed-fgsm",
                    "non_targeted", FGSM_CHANCES),
            _attack("managed-fgsm-t", "managed", data_dir, out, managed, "managed-fgsm",
                    "targeted", FGSM_CHANCES),
        ]
    if workload == "train":
        argv = ("--config", os.path.join(data_dir, "train.json"),
                "--seed", str(episode_seeds(seed, round_index, 1)[0]),
                "--out", os.path.join(out, "train"), "train", "--preset", "basic",
                "--data", os.path.join(data_dir, "basic.csv"))
        return [Call("train", "basic", argv, 0)]
    raise ValueError(f"unknown workload {workload!r}")
