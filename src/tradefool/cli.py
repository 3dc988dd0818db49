"""Command-line entry point: synth, train, attack, report.

One JSON config file with ``data`` / ``env`` / ``trainer`` / ``attack``
blocks drives everything; the trainer and attack blocks may name a preset
and override individual fields. ``train`` and ``attack`` append a line to
``manifest.jsonl`` in the output directory (tool version, resolved
configuration, seeds, input-data digest) before running. Output files are
reproducible byte-for-byte from the manifest inputs.

Exit codes: 0 success, 1 user error or a closed stdout, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__, presets
from .attacks import AttackConfig, AttackError
from .dqn import TrainingError, train
from .envs import EnvError, make_env
from .harness import check_pairing, run_sweep
from .market_data import MarketDataError, load_csv, synthesize_bars, write_bars_csv
from .qnet import load_checkpoint, save_checkpoint


class UserError(Exception):
    """Bad flags, missing files, invalid configuration."""


def _config(what: str, build, block: dict):
    fields = dict(block)
    try:
        return build(fields.pop("preset", None), **fields)
    except (TypeError, AttackError, TrainingError) as exc:
        raise UserError(f"bad {what} config: {exc}") from exc


def build_env(env_block: dict, market):
    if not isinstance(env_block, dict):
        raise UserError(f"env config must be a JSON object, got {type(env_block).__name__}")
    block = dict(env_block)
    try:
        return make_env(block.pop("kind", None), market, **block)
    except (TypeError, EnvError, MarketDataError) as exc:
        raise UserError(f"bad env config: {exc}") from exc


def file_digest(path) -> str:
    hasher = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                hasher.update(chunk)
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc
    return hasher.hexdigest()


def _open_output(out_dir, name: str, mode: str):
    """``name`` in ``out_dir``, opened for writing; the directory is created first."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        return open(os.path.join(out_dir, name), mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise UserError(f"cannot write {name} to output directory {out_dir}: {exc}") from exc


def append_manifest(out_dir, entry: dict) -> None:
    entry = {"tool_version": __version__, **entry}
    with _open_output(out_dir, "manifest.jsonl", "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: JSON, UTF-8, an int over 4,300 digits
        raise UserError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UserError(f"config {path} must be a JSON object, got {type(config).__name__}")
    for name in ("data", "env", "trainer", "attack"):  # null counts as absent
        if config.get(name) is not None and not isinstance(config[name], dict):
            raise UserError(f"config block {name!r} must be a JSON object, "
                            f"got {type(config[name]).__name__}")
    path = (config.get("data") or {}).get("path")
    if not isinstance(path, (str, type(None))):  # open() takes an int as a file descriptor
        raise UserError(f"config data.path must be a string, got {path!r}")
    return config


def _load_market(path):
    if path is None:
        raise UserError("no data file given (flag --data or config data.path)")
    try:
        return load_csv(path)
    except MarketDataError as exc:
        raise UserError(str(exc)) from exc


def cmd_synth(args) -> int:
    if args.out is None:
        raise UserError("synth needs --out FILE")
    try:
        market = synthesize_bars(
            n_bars=args.bars, drift=args.drift, volatility=args.volatility,
            seed=args.seed, start_price=args.start_price, momentum=args.momentum,
            bar_seconds=args.bar_seconds)
    except MarketDataError as exc:
        raise UserError(str(exc)) from exc
    try:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        write_bars_csv(market, args.out)
    except OSError as exc:
        raise UserError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(market)} bars to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_config_file(args.config)
    data_path = args.data or (config.get("data") or {}).get("path")
    trainer_block = dict(config.get("trainer") or {})
    if args.preset:
        trainer_block.setdefault("preset", args.preset)
    if not trainer_block:
        raise UserError("no trainer config (use --preset or a config trainer block)")
    tconfig = _config("trainer", presets.trainer, trainer_block)
    env_block = config.get("env")  # only a missing or null block takes the preset's env
    if env_block is None:
        env_block = presets.ENV[trainer_block.get("preset") or "basic"]
    if args.seed < 0:
        raise UserError(f"seed must be >= 0, got {args.seed}")
    env = build_env(env_block, _load_market(data_path))
    out_dir = args.out or "."
    digest = file_digest(data_path)
    append_manifest(out_dir, {
        "command": "train", "config_path": args.config,
        "config": {"env": env_block, "trainer": trainer_block},
        "seeds": [args.seed], "data": str(data_path), "data_digest": digest,
        "out": str(out_dir)})

    try:
        net, trace = train(env, tconfig, args.seed)
    except TrainingError as exc:  # the run blew up; its config can tame it
        raise UserError(str(exc)) from exc
    meta = {"env": env_block, "data_digest": digest, "seed": args.seed,
            "trainer": dataclasses.asdict(tconfig)}
    ckpt_path = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(net, ckpt_path, meta)
    trace.write_csv(os.path.join(out_dir, "trace.csv"))
    mean_tail = (sum(trace.episode_rewards[-10:]) / max(1, len(trace.episode_rewards[-10:]))
                 if trace.episode_rewards else 0.0)
    print(f"trained {tconfig.total_timesteps} steps, {len(trace.episode_rewards)} episodes, "
          f"mean reward (last 10 episodes) {mean_tail:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _parse_list(text: str, kind) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise UserError(f"bad list {text!r}: {exc}") from exc


def cmd_attack(args) -> int:
    if args.checkpoint is None:
        raise UserError("attack needs --checkpoint")
    config_file = load_config_file(args.config)
    attack_block = dict(config_file.get("attack") or {})
    if args.preset:
        attack_block["preset"] = args.preset
    if args.mode:
        attack_block["mode"] = args.mode
    if not attack_block:
        raise UserError("no attack config (use --preset or a config attack block)")
    base = _config("attack", presets.attack, attack_block)

    try:
        net, meta = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise UserError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    data_path = args.data or (config_file.get("data") or {}).get("path")
    env_block = config_file.get("env")  # only a missing or null block takes the checkpoint's
    if env_block is None:
        env_block = meta.get("env")
    if env_block is None:
        raise UserError("no env config in checkpoint meta or config file")
    env = build_env(env_block, _load_market(data_path))
    try:  # the chance list varies only the chance, so base stands for every job
        check_pairing(net, env, base)
    except AttackError as exc:
        raise UserError(str(exc)) from exc

    chances = _parse_list(args.chances, float) if args.chances is not None else [1.0]
    seeds = _parse_list(args.seeds, int) if args.seeds is not None else [args.seed]
    if any(seed < 0 for seed in seeds):
        raise UserError(f"seeds must be >= 0, got {seeds}")
    jobs: list[tuple[str, AttackConfig | None, int]] = []
    label = args.preset or base.method
    for seed in seeds:
        runs = [(f"control-s{seed}", None)]
        if base.method == "delay":  # delay ignores the chance list
            runs.append((f"{label}-s{seed}", base))
        else:
            runs += [(f"{label}-{base.mode}-c{chance:g}-s{seed}",
                      _config("attack", presets.attack, {**attack_block, "chance": chance}))
                     for chance in chances]
        for name, config in runs:
            if any(name == job[0] for job in jobs):  # the second run would overwrite the first
                raise UserError(f"two runs would share the name {name!r}; "
                                "give distinct seeds and chances")
            jobs.append((name, config, seed))
    out_dir = args.out or "."
    append_manifest(out_dir, {
        "command": "attack", "config_path": args.config,
        "config": {"attack": attack_block, "env": env_block},
        "chances": chances, "seeds": seeds, "data": str(data_path),
        "data_digest": file_digest(data_path),
        "checkpoint_digest": file_digest(args.checkpoint), "out": str(out_dir)})
    summaries = run_sweep(net, env, jobs, os.path.join(out_dir, "runs"))
    for name, summary in summaries.items():
        print(f"{name}: attempts={summary['attempts']} failures={summary['failures']} "
              f"ncn={summary['ncn']} total_reward={summary['total_reward']:.4f}")
    return 0


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# summary_table.csv columns after "run": from run.json, then from summary.json
_REPORT_META = ("method", "mode", "chance", "seed")
_REPORT_COUNTERS = ("eligible", "attempts", "failures", "ncn", "partial", "non_target", "successes")
_REPORT_TOTALS = ("total_reward", "final_networth")


def cmd_report(args) -> int:
    runs_dir = args.run_dir
    if not os.path.isdir(runs_dir):
        raise UserError(f"no such run directory: {runs_dir}")
    if os.path.isdir(os.path.join(runs_dir, "runs")):
        runs_dir = os.path.join(runs_dir, "runs")
    rows = []
    for name in sorted(os.listdir(runs_dir)):
        run_dir = os.path.join(runs_dir, name)
        summary_path = os.path.join(run_dir, "summary.json")
        if not os.path.isfile(summary_path):
            continue
        meta_path = os.path.join(run_dir, "run.json")
        try:
            summary = _read_json(summary_path)
            meta = _read_json(meta_path) if os.path.isfile(meta_path) else {}
        except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
            raise UserError(f"corrupt run files in {run_dir}: {exc}") from exc
        if not (isinstance(summary, dict) and isinstance(meta, dict)):
            raise UserError(f"corrupt run files in {run_dir}: expected JSON objects")
        if meta.get("method") == "control":
            continue
        rows.append([name, *(meta.get(column, "") for column in _REPORT_META),
                     *(summary.get(column, 0) for column in _REPORT_COUNTERS),
                     *(summary.get(column, "") for column in _REPORT_TOTALS)])
    out_dir = args.out or args.run_dir
    table_path = os.path.join(out_dir, "summary_table.csv")
    with _open_output(out_dir, "summary_table.csv", "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", *_REPORT_META, *_REPORT_COUNTERS, *_REPORT_TOTALS])
        writer.writerows(rows)
    print(f"{len(rows)} attack run(s) summarized in {table_path}")
    print("difference curves: per-run curves.csv files under", runs_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # global flags work both before and after the subcommand; the subparser
    # copies use SUPPRESS so an absent flag never clobbers the global value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="base seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (or file for synth)")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config with data/env/trainer/attack blocks")
    parser = argparse.ArgumentParser(
        prog="tradefool",
        description="Train small DQN trading agents and evaluate observation-channel attacks")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", help="output directory (or file for synth)")
    parser.add_argument("--config", help="JSON config with data/env/trainer/attack blocks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[common], help="generate a synthetic OHLCV CSV")
    p_synth.add_argument("--bars", type=int, default=10_000)
    p_synth.add_argument("--drift", type=float, default=0.0)
    p_synth.add_argument("--volatility", type=float, default=0.002)
    p_synth.add_argument("--momentum", type=float, default=0.0)
    p_synth.add_argument("--start-price", type=float, default=100.0)
    p_synth.add_argument("--bar-seconds", type=int, default=60)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", parents=[common], help="train a DQN agent")
    p_train.add_argument("--preset", choices=sorted(presets.TRAINER))
    p_train.add_argument("--data", help="OHLCV CSV path")
    p_train.set_defaults(func=cmd_train)

    p_attack = sub.add_parser("attack", parents=[common], help="run control + attacked evaluations")
    p_attack.add_argument("--checkpoint")
    p_attack.add_argument("--data", help="OHLCV CSV path")
    p_attack.add_argument("--preset", help="attack preset name")
    p_attack.add_argument("--mode", choices=["non_targeted", "targeted"])
    p_attack.add_argument("--chances", help="comma list of attack probabilities")
    p_attack.add_argument("--seeds", help="comma list of run seeds")
    p_attack.set_defaults(func=cmd_attack)

    p_report = sub.add_parser("report", parents=[common], help="summarize a directory of runs")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except SystemExit as exc:  # argparse's: --help, or bad flags
        return 1 if exc.code not in (0, None) else 0
    except BrokenPipeError:  # stdout's reader left; every command prints after its files
        return 1
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def script() -> None:
    """The console script: ``main``, with what a closed stdout left unread dropped at exit."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    script()
