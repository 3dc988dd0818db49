"""Output checks: which operations of a round failed, and decision digests.

An operation is one run directory of a sweep call, or one `train` call. A
run directory fails on a missing file, a summary counter that differs from
the ledger.csv tally, a broken partition (attempts + ncn + skipped =
eligible for perturbation runs; only `delay` rows for delay runs; no rows
for controls), or an infeasible pert_* tuple. Every run directory gets a
decision digest over its ledger's t, outcome, a, a' and its record's
actions; floats are not compared.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from tradefool.attacks import validate_relative_tuple
from tradefool.qnet import QNetError, load_checkpoint

ATTEMPT_OUTCOMES = ("success", "partial", "non_target", "failure")
COUNTER_OUTCOMES = {
    "attempts": ATTEMPT_OUTCOMES, "successes": ("success",), "failures": ("failure",),
    "partial": ("partial",), "non_target": ("non_target",), "ncn": ("ncn",),
    "skipped": ("skipped",),
}
BASIC_AGENT_SIZES = [32, 64, 64, 3]


class CheckFailed(Exception):
    pass


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _feasible(env: str, pert) -> bool:
    if env == "basic":
        return validate_relative_tuple(pert)
    return 0.0 <= pert[2] <= 100.0


def check_run(run_dir, env: str) -> tuple[str, dict]:
    """Decision digest and counters of one run directory; raises CheckFailed."""
    try:
        with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as handle:
            method = json.load(handle)["method"]
        ledger = _read_csv(os.path.join(run_dir, "ledger.csv"))
        record = _read_csv(os.path.join(run_dir, "record.csv"))
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{run_dir}: unreadable output: {exc}") from exc
    outcomes = [row["outcome"] for row in ledger]
    tally = {key: sum(outcomes.count(kind) for kind in kinds)
             for key, kinds in COUNTER_OUTCOMES.items()}
    tally["eligible"] = len(ledger)
    for key, value in tally.items():
        if summary.get(key) != value:
            raise CheckFailed(f"{run_dir}: summary {key}={summary.get(key)} but ledger has "
                              f"{value}")
    if method == "control":
        partition_ok = not ledger
    elif method == "delay":
        partition_ok = outcomes.count("delay") == len(ledger) == len(record)
    else:
        partition_ok = (tally["attempts"] + tally["ncn"] + tally["skipped"]
                        == tally["eligible"] == len(record))
    if not partition_ok or not record:
        raise CheckFailed(f"{run_dir}: broken {method} partition: {tally}, "
                          f"{len(record)} steps")
    for row in ledger:
        if row["pert_0"] and not _feasible(env, [float(row[f"pert_{i}"]) for i in range(3)]):
            raise CheckFailed(f"{run_dir}: infeasible pert tuple at t={row['t']}")
    hasher = hashlib.sha256()
    for row in ledger:
        hasher.update(f"{row['t']},{row['outcome']},{row['a']},{row['a_prime']}\n".encode())
    hasher.update(",".join(row["action"] for row in record).encode())
    stats = {"episodes": 1, "steps": len(record), "eligible": 0, "ncn": 0}
    if method not in ("control", "delay"):
        stats.update(eligible=tally["eligible"], ncn=tally["ncn"])
    return hasher.hexdigest(), stats


def check_train(out_dir, total_steps: int) -> tuple[str, dict]:
    """Digest and counters of one train call; raises CheckFailed."""
    ckpt = os.path.join(out_dir, "checkpoint.json")
    trace = os.path.join(out_dir, "trace.csv")
    try:
        net, _ = load_checkpoint(ckpt)
        rows = _read_csv(trace)
    except (OSError, ValueError, KeyError, QNetError) as exc:
        raise CheckFailed(f"{out_dir}: unreadable output: {exc}") from exc
    shapes_ok = net.sizes == BASIC_AGENT_SIZES and all(
        w.shape == (a, b) and bias.shape == (b,) and np.all(np.isfinite(w))
        and np.all(np.isfinite(bias))
        for w, bias, a, b in zip(net.weights, net.biases, net.sizes, net.sizes[1:]))
    if not shapes_ok or len(net.weights) != len(net.sizes) - 1:
        raise CheckFailed(f"{ckpt}: weights do not match sizes {net.sizes}")
    if len(rows) != total_steps:
        raise CheckFailed(f"{trace}: {len(rows)} rows for {total_steps} steps")
    hasher = hashlib.sha256()
    for path in (ckpt, trace):
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    stats = {"episodes": int(rows[-1]["episode"]), "steps": len(rows), "eligible": 0,
             "ncn": 0}
    return hasher.hexdigest(), stats


def check_call(call, code: int, round_dir, total_steps: int):
    """(attempted, failed, {op: digest}, stats, errors) of one CLI call."""
    out_dir = os.path.join(round_dir, call.name)
    digests, errors = {}, []
    stats = {"episodes": 0, "steps": 0, "eligible": 0, "ncn": 0}
    expected = call.runs or 1
    if code != 0:
        return expected, expected, digests, stats, [f"{call.name}: exit code {code}"]
    if call.runs:
        runs_dir = os.path.join(out_dir, "runs")
        names = sorted(os.listdir(runs_dir)) if os.path.isdir(runs_dir) else []
        targets = [(f"{call.name}/{name}", os.path.join(runs_dir, name)) for name in names]
    else:
        targets = [(call.name, out_dir)]
    for op, path in targets:
        try:
            digest, run_stats = (check_run(path, call.env) if call.runs
                                 else check_train(path, total_steps))
        except (CheckFailed, ValueError, KeyError) as exc:
            errors.append(f"{op}: {exc}")
            continue
        digests[op] = digest
        for key, value in run_stats.items():
            stats[key] += value
    missing = max(0, expected - len(targets))
    if missing:
        errors.append(f"{call.name}: {missing} of {expected} run directories missing")
    attempted = max(expected, len(targets))
    return attempted, attempted - len(digests), digests, stats, errors
