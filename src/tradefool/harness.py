"""Control and attacked evaluation runs, attack bookkeeping, and reports.

Per attacked timestep, exactly one of three things happens and is ledgered:
  ncn      -- a previously persisted perturbation already flips the greedy
              action, so no new attempt is made ("no change needed");
  skipped  -- the per-observation chance gate did not fire;
  attempt  -- the configured attack ran; its outcome is one of
              success / partial / non_target / failure.
Only success (and partial success in typed targeted mode) persist their
perturbed tuple into the sliding window for future observations; on every
other outcome the agent executes the greedy action of the served
observation. Delay attacks apply unconditionally and carry no taxonomy.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .attacks import (
    FAILURE,
    NON_TARGET,
    PARTIAL,
    SUCCESS,
    AttackConfig,
    delay_attack,
    least_q_target,
    run_perturbation_attack,
)
from .qnet import QNetwork, forward


@dataclass
class LedgerRow:
    t: int
    outcome: str  # success|partial|non_target|failure|ncn|skipped|delay
    action: int  # a: greedy action on the served observation
    orig_tuple: np.ndarray
    # filled by an attempt (a pert_tuple by any but a failure) or a delay
    induced: int | None = None  # a': action induced by the attack
    eps: float | None = None
    l2: float | None = None
    pert_tuple: np.ndarray | None = None


_ATTEMPTS = (SUCCESS, PARTIAL, NON_TARGET, FAILURE)
# the counter each outcome adds to; a delay row counts only as eligible
_COUNTER = {SUCCESS: "successes", PARTIAL: "partial", NON_TARGET: "non_target",
            FAILURE: "failures", "ncn": "ncn", "skipped": "skipped"}


@dataclass
class AttackLedger:
    rows: list[LedgerRow] = field(default_factory=list)

    def counters(self) -> dict:
        tally = Counter(row.outcome for row in self.rows)
        return {"eligible": len(self.rows), "attempts": sum(tally[o] for o in _ATTEMPTS),
                **{name: tally[outcome] for outcome, name in _COUNTER.items()}}


@dataclass
class RunRecord:
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    cum_rewards: list[float] = field(default_factory=list)
    net_worths: list[float] | None = None

    @property
    def total_reward(self) -> float:
        return self.cum_rewards[-1] if self.cum_rewards else 0.0

    @property
    def final_net_worth(self) -> float | None:
        return self.net_worths[-1] if self.net_worths else None

    def __len__(self) -> int:
        return len(self.rewards)


def _greedy(net: QNetwork, obs) -> int:
    return int(forward(net, obs).argmax())


def run_episode(net: QNetwork, env, seed: int, config: AttackConfig | None = None):
    """One greedy episode: a control with ``config=None``, else under the
    configured observation-channel attack. Returns (RunRecord, AttackLedger).

    The episode (env start) and the chance gate derive from ``seed``; an
    explicit ``config.seed`` overrides the gate stream only, so the same
    episode can be replayed under different attack randomness.
    """
    env_stream, gate_stream = np.random.SeedSequence(seed).spawn(2)
    if config is not None and config.seed is not None:
        gate_stream = np.random.SeedSequence(config.seed)
    env.reset(np.random.default_rng(env_stream))
    gate_rng = np.random.default_rng(gate_stream)

    record = RunRecord()
    ledger = AttackLedger()
    overrides: dict[int, np.ndarray] = {}
    t = 0
    cum = 0.0
    while True:
        cursor = env.cursor
        if overrides:
            overrides = {i: v for i, v in overrides.items() if i > cursor - env.window}
        if config is None:
            action = _greedy(net, env.observation())
        elif config.method == "delay":
            clean = env.observation()
            previous = env.features.tuple_at(cursor - 1) if t > 0 else None
            served = delay_attack(clean, env.recent_tuple_slice, previous)
            action = _greedy(net, served)
            ledger.rows.append(LedgerRow(
                t, "delay", _greedy(net, clean), env.features.tuple_at(cursor).copy(),
                induced=action,
                pert_tuple=None if previous is None else np.asarray(previous, float).copy()))
        else:
            gate = gate_rng.random()  # one draw per eligible timestep, unconditionally
            served = env.observation(overrides if overrides else None)
            q = forward(net, served)  # shared with the target pick and the attack
            action = int(q.argmax())
            row = LedgerRow(t, "skipped", action, env.features.tuple_at(cursor).copy())
            if overrides and action != _greedy(net, env.observation()):
                row.outcome = "ncn"
            elif gate < config.chance:
                target = least_q_target(net, served, q) if config.mode == "targeted" else None
                result = run_perturbation_attack(
                    net, served, config, env.recent_tuple_slice, target, env.action_types, q)
                row.outcome, row.induced = result.outcome, result.induced_action
                row.eps, row.l2 = result.final_eps, result.l2
                if result.outcome != FAILURE:
                    row.pert_tuple = result.perturbed.copy()
                if result.outcome in (SUCCESS, PARTIAL):  # the outcomes that persist
                    overrides[cursor] = row.pert_tuple
                    action = result.induced_action
            ledger.rows.append(row)
        step = env.step(action)
        cum += step.reward
        record.actions.append(action)
        record.rewards.append(step.reward)
        record.cum_rewards.append(cum)
        if step.net_worth is not None:
            if record.net_worths is None:
                record.net_worths = []
            record.net_worths.append(step.net_worth)
        t += 1
        if step.terminal:
            break
    return record, ledger


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)  # None is written as an empty field


def write_ledger_csv(ledger: AttackLedger, path, tuple_dim: int) -> None:
    header = ["t", "outcome", "a", "a_prime", "eps", "l2"]
    header += [f"orig_{i}" for i in range(tuple_dim)]
    header += [f"pert_{i}" for i in range(tuple_dim)]
    no_pert = [None] * tuple_dim
    _write_csv(path, header, (
        [row.t, row.outcome, row.action, row.induced, _fmt(row.eps), _fmt(row.l2),
         *map(_fmt, row.orig_tuple),
         *map(_fmt, no_pert if row.pert_tuple is None else row.pert_tuple)]
        for row in ledger.rows))


def export_report(ledger: AttackLedger, record: RunRecord, out_dir,
                  control: RunRecord | None = None, tuple_dim: int = 3) -> dict:
    """Write ledger.csv, record.csv, summary.json, and (when a control run is
    given) the plot-ready curves.csv of per-timestep control-minus-attacked
    differences, with empty net-worth columns unless both runs have net worth;
    return the summary. Byte-deterministic for identical inputs."""
    if control is not None and len(control) != len(record):
        raise ValueError(f"record lengths differ: {len(control)} vs {len(record)}")
    os.makedirs(out_dir, exist_ok=True)
    write_ledger_csv(ledger, os.path.join(out_dir, "ledger.csv"), tuple_dim)
    net_worths = record.net_worths or [None] * len(record)
    _write_csv(os.path.join(out_dir, "record.csv"),
               ["t", "action", "reward", "cum_reward", "net_worth"],
               ([i, record.actions[i], _fmt(record.rewards[i]), _fmt(record.cum_rewards[i]),
                 _fmt(net_worths[i])] for i in range(len(record))))
    summary = {**ledger.counters(), "total_reward": record.total_reward,
               "final_networth": record.final_net_worth}
    if control is not None:
        summary.update(control_total_reward=control.total_reward,
                       control_final_networth=control.final_net_worth)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=1)
    if control is not None:
        columns = [control.cum_rewards, record.cum_rewards,
                   np.subtract(control.cum_rewards, record.cum_rewards)]
        if control.net_worths is not None and record.net_worths is not None:
            columns += [control.net_worths, record.net_worths,
                        np.subtract(control.net_worths, record.net_worths)]
        else:
            columns += [[None] * len(record)] * 3
        _write_csv(os.path.join(out_dir, "curves.csv"),
                   ["t", "control_cum_reward", "attacked_cum_reward", "reward_diff",
                    "control_networth", "attacked_networth", "networth_diff"],
                   ([i, *(_fmt(column[i]) for column in columns)] for i in range(len(record))))
    return summary


def _run_meta(config: AttackConfig | None) -> dict:
    """run.json's method, mode and chance for a job; delay ignores the chance."""
    if config is None:
        return {"method": "control", "mode": "", "chance": ""}
    if config.method == "delay":
        return {"method": "delay", "mode": "", "chance": 1.0}
    return {"method": config.method, "mode": config.mode, "chance": config.chance}


def max_sweep_workers() -> int:
    """Sweeps run on the calling thread, one job after another."""
    return 1


def run_sweep(net: QNetwork, env, jobs: list[tuple[str, AttackConfig | None, int]],
              out_dir) -> dict[str, dict]:
    """Run (name, config, seed) jobs one after another on ``env`` and export
    one report each, with a run.json that names the job's method, mode,
    chance and seed, written before the report.

    config=None runs a control. Controls run first, so each attacked job is
    paired with the control of its seed for difference curves. Each episode
    resets ``env``, so reusing it gives the same runs as a fresh env per job.
    Returns {job name: summary dict} in sorted-name order.
    """
    controls: dict[int, RunRecord] = {}
    summaries: dict[str, dict] = {}
    for name, config, seed in sorted(jobs, key=lambda job: job[1] is not None):
        record, ledger = run_episode(net, env, seed, config)
        if config is None:
            controls[seed] = record
        control = None if config is None else controls.get(seed)
        run_dir = os.path.join(out_dir, name)
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as handle:
            json.dump({**_run_meta(config), "seed": seed}, handle, sort_keys=True)
        summaries[name] = export_report(ledger, record, run_dir, control, env.tuple_dim)
    return dict(sorted(summaries.items()))
