"""The decision oracle's fixed sweep, and the recorder of what it decided.

The sweep runs the stored benchmark agents (``perfbench/agents/``) on
3,000-bar markets synthesized with the benchmark's basic and managed
parameters (``perfbench/inputs.py``), in 60-step episodes at seeds 0 and 1,
with every attack at chance 1.0: per seed and agent a control, delay, the
agent's FGSM preset and C&W (basic: the box preset and the same preset in the
scaled variant; managed: the scaled preset), each attack in both modes.

Recording also keeps, for every step, the smallest top-two Q gap over every Q
the step's decision read: the served and clean observations' Q, the attack's
proposal Qs and its own forwards. Where that gap is within rounding of a tie,
reordered floating-point arithmetic (a batched BLAS product, say) may flip
the decision; anywhere else it may not. ``tests/test_oracle.py`` runs the
sweep again and compares it with the recording on those terms.

Re-record, only for a deliberate behaviour change, from the repository root:

    PYTHONPATH=src python tests/oracle_record.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import os

import numpy as np

from tradefool import attacks, harness, presets
from tradefool.envs import ENVS, make_env
from tradefool.harness import run_episode
from tradefool.market_data import synthesize_bars
from tradefool.qnet import load_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDING = os.path.join(ROOT, "tests", "data", "oracle.json")
N_BARS = 3_000
EPISODE_CAP = 60
SEEDS = (0, 1)
MODES = ("non_targeted", "targeted")
# per agent: (run label, attack preset, preset overrides); None runs a control
ATTACKS = {
    "basic": [("control", None, {}), ("delay", "delay", {}),
              ("fgsm", "basic-fgsm", {}), ("cw-box", "basic-cw", {}),
              ("cw-scaled", "basic-cw", {"cw_variant": "scaled"})],
    "managed": [("control", None, {}), ("delay", "delay", {}),
                ("fgsm", "managed-fgsm", {}), ("cw-scaled", "managed-cw", {})],
}
# one ledger row, as recorded: exact fields, then floats, then tuples
COLUMNS = ["t", "outcome", "a", "a_prime", "eps", "l2", "orig", "pert"]


def _benchmark_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def agents():
    """{agent: (net, env)} for the stored agents on their short markets."""
    inputs = _benchmark_inputs()
    built = {}
    for name in ATTACKS:
        net, meta = load_checkpoint(inputs.agent_path(name))
        fields = {**meta["env"], "episode_cap": EPISODE_CAP}
        market = synthesize_bars(**{**inputs.MARKETS[name], "n_bars": N_BARS})
        built[name] = net, make_env(fields.pop("kind"), market, **fields)
    return built


def runs():
    """(run id, agent, attack config or None, seed) for every run of the sweep."""
    for agent, entries in ATTACKS.items():
        for seed in SEEDS:
            for label, preset, overrides in entries:
                if preset is None or preset == "delay":
                    config = None if preset is None else presets.attack(preset)
                    yield f"{agent}-{label}-s{seed}", agent, config, seed
                    continue
                for mode in MODES:
                    config = presets.attack(preset, mode=mode, chance=1.0, **overrides)
                    yield f"{agent}-{label}-{mode}-s{seed}", agent, config, seed


def _floats(values):
    return None if values is None else [float(v) for v in values]


def ledger_rows(ledger) -> list[list]:
    return [[row.t, row.outcome, row.action, row.induced,
             None if row.eps is None else float(row.eps),
             None if row.l2 is None else float(row.l2),
             _floats(row.orig_tuple), _floats(row.pert_tuple)] for row in ledger.rows]


def play():
    """{run id: (actions, ledger rows)} of the whole sweep."""
    built = agents()
    return {run_id: _outputs(*run_episode(*built[agent], seed, config))
            for run_id, agent, config, seed in runs()}


def _outputs(record, ledger):
    return [int(a) for a in record.actions], ledger_rows(ledger)


def top_two_gap(q) -> float:
    """The smallest gap between the best and second-best Q of each row of
    ``q`` (1-D or 2-D); 0.0 when a Q is not finite."""
    q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(q).all():
        return 0.0
    top = np.sort(q, axis=-1)[..., -2:]
    return float((top[..., 1] - top[..., 0]).min())


@contextlib.contextmanager
def gap_recorder():
    """Wrap every Q a decision reads (``harness.forward``, ``attacks.forward``,
    ``attacks._forward_cached``) and each env's ``step``; yields the list that
    gets one entry per step: the smallest gap since the previous step."""
    step_gaps, pending = [], []

    def reading(fn, q_of):
        def read(*args, **kwargs):
            result = fn(*args, **kwargs)
            pending.append(top_two_gap(q_of(result)))
            return result
        return read

    def stepping(fn):
        def step(*args, **kwargs):
            step_gaps.append(min(pending, default=math.inf))
            pending.clear()
            return fn(*args, **kwargs)
        return step

    targets = [(harness, "forward", reading(harness.forward, lambda q: q)),
               (attacks, "forward", reading(attacks.forward, lambda q: q)),
               (attacks, "_forward_cached",
                reading(attacks._forward_cached, lambda activations: activations[-1]))]
    targets += [(env_class, "step", stepping(env_class.step)) for env_class in ENVS.values()]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield step_gaps
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def record() -> dict:
    """{run id: {"actions", "gaps", "ledger"}} of the whole sweep."""
    built = agents()
    recorded = {}
    for run_id, agent, config, seed in runs():
        with gap_recorder() as gaps:
            actions, rows = _outputs(*run_episode(*built[agent], seed, config))
        recorded[run_id] = {"actions": actions, "gaps": gaps, "ledger": rows}
    return recorded


def main() -> None:
    os.makedirs(os.path.dirname(RECORDING), exist_ok=True)
    runs_json = ",\n".join(f"{json.dumps(run_id)}: {json.dumps(run, sort_keys=True)}"
                            for run_id, run in record().items())
    with open(RECORDING, "w", encoding="utf-8") as handle:  # one run per line
        handle.write(f'{{"columns": {json.dumps(COLUMNS)},\n"runs": {{\n{runs_json}\n}}}}\n')


if __name__ == "__main__":
    main()
