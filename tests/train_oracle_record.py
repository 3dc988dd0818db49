"""The training oracle's fixed set, and the recorder of what it learned.

The set is two seeded training runs of ``STEPS`` steps each on 3,000-bar
markets synthesized with the benchmark's basic and managed parameters
(``perfbench/inputs.py``): the ``basic`` trainer preset on its env, and the
``managed`` preset with ``clip_rewards`` and hidden layers [16, 16], the
settings of the benchmark's managed agent, on its env.

Recording keeps, per run, every step's action, the top-two Q gap of every
greedy step (None where exploration drew the action at random), the TD loss
of every ``LOSS_EVERY``-th update with the step that reported it, and the
final parameters. ``tests/test_train_oracle.py`` trains the set again and
compares it with the recording: training arithmetic that moves only the last
bits (a batched BLAS product, a reordered sum, another numpy) passes, a
change to what training computes does not.

Re-record, only for a deliberate change to what training computes, from the
repository root:

    PYTHONPATH=src python tests/train_oracle_record.py
"""

from __future__ import annotations

import contextlib
import json
import os

from oracle_record import ROOT, _benchmark_inputs, top_two_gap
from tradefool import dqn, presets
from tradefool.envs import make_env
from tradefool.market_data import synthesize_bars

RECORDING = os.path.join(ROOT, "tests", "data", "train_oracle.json")
N_BARS = 3_000
STEPS = 3_000
LOSS_EVERY = 100
SEED = 5
# run id: (trainer block, env preset)
RUNS = {
    "basic": ({"preset": "basic"}, "basic"),
    "managed": ({"preset": "managed", "clip_rewards": True, "hidden_sizes": [16, 16]},
                "managed"),
}


@contextlib.contextmanager
def greedy_gaps():
    """Wrap ``dqn.select_action``; yields the list that gets one entry per
    step: the top-two gap of the Q its greedy action read, or None."""
    gaps, read = [], []

    def forward(net, state):
        read.append(original_forward(net, state))
        return read[-1]

    def select_action(*args, **kwargs):
        read.clear()
        action = original_select(*args, **kwargs)
        gaps.append(top_two_gap(read[-1]) if read else None)
        return action

    original_forward, original_select = dqn.forward, dqn.select_action
    dqn.forward, dqn.select_action = forward, select_action
    try:
        yield gaps
    finally:
        dqn.forward, dqn.select_action = original_forward, original_select


def train_run(run_id: str):
    """(net, trace) of one run of the set."""
    trainer, env_preset = RUNS[run_id]
    config = presets.trainer(**{**trainer, "total_timesteps": STEPS})
    market = synthesize_bars(**{**_benchmark_inputs().MARKETS[env_preset], "n_bars": N_BARS})
    env_block = dict(presets.ENV[env_preset])
    return dqn.train(make_env(env_block.pop("kind"), market, **env_block), config, SEED)


def sampled_losses(trace) -> list[list]:
    """[step, loss] of every ``LOSS_EVERY``-th update, the first included; a
    trace row shows the loss of the update made at the step before it."""
    rows = [(t, row[-1]) for t, row in enumerate(trace.rows, 1) if row[-1] is not None]
    return [[t, float(loss)] for t, loss in rows[::LOSS_EVERY]]


def record() -> dict:
    """{run id: {"actions", "gaps", "losses", "params"}} of the set."""
    recorded = {}
    for run_id in RUNS:
        with greedy_gaps() as gaps:
            net, trace = train_run(run_id)
        recorded[run_id] = {"actions": [int(row[2]) for row in trace.rows], "gaps": gaps,
                            "losses": sampled_losses(trace),
                            "params": [float(p) for p in net.params]}
    return recorded


def main() -> None:
    os.makedirs(os.path.dirname(RECORDING), exist_ok=True)
    runs_json = ",\n".join(f"{json.dumps(run_id)}: {json.dumps(run, sort_keys=True)}"
                           for run_id, run in record().items())
    with open(RECORDING, "w", encoding="utf-8") as handle:  # one run per line
        handle.write(f'{{"steps": {STEPS},\n"runs": {{\n{runs_json}\n}}}}\n')


if __name__ == "__main__":
    main()
