#!/usr/bin/env python3
"""tradefool benchmark: timed `tradefool attack` sweeps and `tradefool train`.

Usage, from the repository root:
    python3 perfbench/run.py --workload cw-sweep|fgsm-sweep|train \\
        [--seed N] [--seconds S] [--trace 0|1]

Set-up (timed as setup_s, median of SETUP_REPEATS) synthesizes both markets,
verifies the stored agents' sha256 and writes the config files. The workload
then runs in a fresh child process that calls `tradefool.cli.main`
in-process: a round is the workload's whole set of CLI calls, and the run
repeats it, with fresh episode seeds, until the next round would likely end
past --seconds. Every round's outputs are checked (checks.py) and, for the
reference seed, its decisions must match reference.json.

--trace 0 prints the end-to-end metrics: the mean over the run's rounds, with
every call's seconds rescaled to a reference host speed (calibrate.py; why,
see README.md). --trace 1 alternates untraced and traced rounds and prints
the per-layer metrics of tracing.py, the tracing overhead and the qnet micro
rows. Outputs and the machine record go to
.bench_out/<workload>-s<seed>-t<trace>/. The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread: the sweep pool's default 2 threads x 1 BLAS thread stay
# within the 2 cores the benchmark was tuned on. TRADEFOOL_THREADS stays
# unset so the default pool size is what gets measured.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ.pop("TRADEFOOL_THREADS", None)
os.environ["PYTHONHASHSEED"] = "0"  # same dict layouts in every workload process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cw-sweep", "fgsm-sweep", "train")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this

UNITS = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB",
         "episodes_per_ref_s": "1/s", "steps_per_ref_s": "1/s"}


def _out_dir(args) -> str:
    return os.path.join(ROOT, ".bench_out", f"{args.workload}-s{args.seed}-t{args.trace}")


def set_up(data_dir) -> tuple[float, float]:
    """(set-up seconds, of which synthesize_bars) for one set-up."""
    import inputs
    import workloads

    started = time.perf_counter()
    os.makedirs(data_dir, exist_ok=True)
    synth = sum(inputs.write_market(name, os.path.join(data_dir, f"{name}.csv"))
                for name in inputs.MARKETS)
    inputs.verify_agents()
    for name, config in workloads.CONFIGS.items():
        with open(os.path.join(data_dir, name), "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    return time.perf_counter() - started, synth


def parent(args) -> int:
    from calibrate import host_seconds, rescale

    if not os.path.isfile(os.path.join(SRC, "tradefool", "__init__.py")):
        print(f"error: no tradefool sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    out = _out_dir(args)
    shutil.rmtree(out, ignore_errors=True)
    data_dir = os.path.join(out, "inputs")
    hosts, setups = [host_seconds()], []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(data_dir))
        hosts.append(host_seconds())
    setup_ref = [rescale(s, a, b) for (s, _), a, b in zip(setups, hosts, hosts[1:])]
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "out": out, "data_dir": data_dir}
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    log_path = os.path.join(out, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", spec_path],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started))).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0:
        with open(log_path, encoding="utf-8") as log:
            sys.stderr.write(log.read()[-4000:])
        print(f"error: workload process ended with {code}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)

    if args.trace:
        metrics = dict(result["layer"])
        metrics["market_data.synthesize_bars.self_s"] = statistics.median(s for _, s in setups)
        units = result["layer_units"]
        units["market_data.synthesize_bars.self_s"] = "s"
    else:
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = statistics.median(setup_ref)
        units = UNITS
        raw = dict(result["raw"], setup_s=statistics.median(s for s, _ in setups))
        for name in sorted(raw):
            print(f"{'unscaled ' + name:45s} {raw[name]:>14.6g} s")
    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:>14.6g} {units[name]}")
    print(f"{'failed_frac':45s} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


def _round_seconds(rounds, key, rescaled=True) -> float:
    """One round's seconds, as the mean over the rounds; each call's seconds
    rescaled to the reference host speed unless ``rescaled`` is false."""
    from calibrate import rescale

    if not rescaled:
        return statistics.fmean(sum(r[key]) for r in rounds)
    return statistics.fmean(
        sum(rescale(s, *host) for s, host in zip(r[key], r["call_host_s"]))
        for r in rounds)


def _is_traced(index: int) -> bool:
    """Untraced/traced pairs of rounds, alternating which goes first."""
    pair, position = divmod(index, 2)
    return (position == 0) == (pair % 2 == 1)


def _cpu_seconds() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def machine_record() -> dict:
    import platform

    import numpy as np

    from tradefool.harness import max_sweep_workers

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "python": sys.version, "numpy": np.__version__,
        "machine": platform.machine(), "blas": blas,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "TRADEFOOL_THREADS": os.environ.get("TRADEFOOL_THREADS", "unset"),
        "sweep_pool_threads": max_sweep_workers(),
    }


def _timed_calls(round_calls, run):
    """Run each call; (exit codes, wall seconds, CPU seconds, host seconds) per
    call. A call's host seconds are the calibration kernel's times just before
    and just after it."""
    from calibrate import host_seconds

    codes, walls, cpus, hosts = [], [], [], [host_seconds()]
    for call in round_calls:
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        codes.append(run(list(call.argv)))
        walls.append(time.perf_counter() - wall0)
        cpus.append(_cpu_seconds() - cpu0)
        hosts.append(host_seconds())
    return codes, walls, cpus, list(zip(hosts, hosts[1:]))


def _check_round(round_calls, codes, round_dir, against):
    """Check one round's outputs; (attempted, failed, digests, totals, errors).
    ``against`` holds the decision digests this round must reproduce."""
    import checks
    import workloads

    attempted = failed = 0
    digests, errors = {}, []
    totals = {"episodes": 0, "steps": 0, "eligible": 0, "ncn": 0}
    for call, code in zip(round_calls, codes):
        n, bad, call_digests, stats, call_errors = checks.check_call(
            call, code, round_dir, workloads.TRAIN_STEPS)
        attempted += n
        failed += bad
        errors += call_errors
        digests.update(call_digests)
        for key in totals:
            totals[key] += stats[key]
    drift = [op for op, digest in digests.items()
             if against is not None and op in against and against[op] != digest]
    errors += [f"decisions of {op} differ from the reference" for op in drift]
    totals["bytes"] = sum(os.path.getsize(os.path.join(d, f))
                          for d, _, files in os.walk(round_dir) for f in files)
    return attempted, failed + len(drift), digests, totals, errors


def child(spec_path) -> int:
    import resource

    import inputs
    import workloads
    from micro import micro_rows
    from tracing import Tracer, layer_metrics
    from tradefool import cli
    from tradefool.harness import max_sweep_workers

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    out, workload = spec["out"], spec["workload"]
    with open(os.path.join(out, "machine.json"), "w", encoding="utf-8") as handle:
        json.dump(machine_record(), handle, indent=1, sort_keys=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    reference_digests = (reference["digests"].get(workload)
                         if spec["seed"] == reference["seed"] else None)

    if spec["trace"]:
        micro = micro_rows(inputs.agent_path("basic"))
    # a trace run stops only after whole untraced/traced pairs
    step = 2 if spec["trace"] else 1
    tracer = Tracer()
    rounds, layers, errors, durations = [], [], [], []
    attempted = failed = 0
    all_digests = {}
    deadline = time.perf_counter() + spec["seconds"]
    index = 0
    while True:
        started = time.perf_counter()
        traced = bool(spec["trace"]) and _is_traced(index)
        round_dir = os.path.join(out, "rounds", f"r{index}")
        round_calls = workloads.calls(workload, spec["seed"], index, spec["data_dir"],
                                      round_dir)
        if traced:
            with tracer.patched():
                codes, walls, cpus, hosts = _timed_calls(round_calls, tracer.main)
            layers.append(layer_metrics(*tracer.drain()))
        else:
            codes, walls, cpus, hosts = _timed_calls(round_calls, cli.main)
        n, bad, digests, totals, round_errors = _check_round(
            round_calls, codes, round_dir, reference_digests)
        attempted += n
        failed += bad
        errors += [f"round {index}: {e}" for e in round_errors]
        all_digests.update(digests)
        rounds.append({"traced": traced, "call_wall_s": walls, "call_cpu_s": cpus,
                       "call_host_s": hosts, **totals})
        if index > 0:
            shutil.rmtree(round_dir)
        index += 1
        durations.append(time.perf_counter() - started)
        if index % step == 0 and \
                time.perf_counter() + step * statistics.fmean(durations) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in rounds if not r["traced"]]
    wall_s = _round_seconds(plain, "call_wall_s")
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "rounds": rounds, "digests": all_digests}
    result["end_to_end"] = {
        "wall_ref_s": wall_s,
        "cpu_ref_s": _round_seconds(plain, "call_cpu_s"),
        "peak_rss_mb": peak_rss_mb,
        "episodes_per_ref_s": statistics.fmean(r["episodes"] for r in plain) / wall_s,
        "steps_per_ref_s": statistics.fmean(r["steps"] for r in plain) / wall_s,
    }
    result["raw"] = {"wall_s": _round_seconds(plain, "call_wall_s", rescaled=False),
                     "cpu_s": _round_seconds(plain, "call_cpu_s", rescaled=False)}
    if spec["trace"]:
        traced_rounds = [r for r in rounds if r["traced"]]
        layer = {name: statistics.fmean(m[name] for m in layers) for name in layers[0]}
        last = traced_rounds[-1]
        layer["harness.bytes_written"] = last["bytes"]
        layer["harness.eligible"] = last["eligible"]
        layer["harness.ncn_ratio"] = last["ncn"] / last["eligible"] if last["eligible"] else 0.0
        layer["harness.pool_threads"] = max_sweep_workers()
        traced_s = _round_seconds(traced_rounds, "call_wall_s")
        layer["trace.untraced_ref_s"] = wall_s
        layer["trace.traced_ref_s"] = traced_s
        layer["trace.overhead_frac"] = traced_s / wall_s - 1.0
        layer["host.kernel_s"] = statistics.median(
            h for r in rounds for host in r["call_host_s"] for h in host)
        layer.update(micro)
        result["layer"] = layer
        result["layer_units"] = {name: _layer_unit(name) for name in layer}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_frac", "_per_attempt")) or name.startswith("share."):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path[:0] = [HERE, SRC]
    if args.child:
        try:
            return child(args.child)
        except Exception:  # noqa: BLE001 - reported through the parent's exit code
            traceback.print_exc()
            return 1
    if args.workload is None:
        parser.error("--workload is required")
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
