import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tradefool import cli, envs, presets
from tradefool.attacks import AttackConfig
from tradefool.cli import main
from tradefool.dqn import TrainerConfig
from tradefool.harness import run_sweep
from tradefool.market_data import load_csv
from tradefool.qnet import QNetwork, load_checkpoint, save_checkpoint


def run_cli(*argv):
    return main(list(argv))


def run_script(*argv) -> subprocess.CompletedProcess:
    """``python -m tradefool.cli`` with ``argv``, stdin closed, output captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "tradefool.cli", *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, env=env)


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bars.csv"
    assert run_cli("synth", "--bars", "600", "--drift", "0.0002", "--volatility", "0.02",
                   "--momentum", "-0.4", "--seed", "3", "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("train")
    config = {"trainer": {"preset": "basic", "total_timesteps": 600,
                          "learning_starts": 100, "hidden_sizes": [8]}}
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("--config", str(cfg_path), "--seed", "5", "--out", str(out),
                   "train", "--preset", "basic", "--data", str(data_csv)) == 0
    return out


class TestSynth:
    def test_out_naming_a_directory_is_user_error(self, tmp_path, capsys):
        assert run_cli("synth", "--bars", "20", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_below_a_file_is_user_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert run_cli("synth", "--bars", "20", "--out", str(blocker / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert blocker.read_text() == "kept"

    def test_zero_volatility_flat_file(self, tmp_path):
        path = tmp_path / "flat.csv"
        assert run_cli("synth", "--bars", "30", "--volatility", "0", "--drift", "0",
                       "--out", str(path)) == 0
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 30
        assert all(row.split(",")[1] == "100.0" for row in rows)

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("synth", "--bars", "100", "--volatility", "0.01",
                           "--seed", "9", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_user_error(self):
        assert run_cli("synth", "--bars", "10") == 1

    # parameters, or the prices they lead to, that load_csv would refuse
    @pytest.mark.parametrize("bad", [
        ("--seed", "-1"), ("--bar-seconds", "0"), ("--start-price", "-5"),
        ("--start-price", "inf"), ("--volatility", "-1"), ("--volatility", "nan"),
        ("--drift", "inf"), ("--drift", "500"), ("--drift", "1000"), ("--drift", "-800")])
    def test_unloadable_parameters_are_user_errors(self, tmp_path, bad):
        path = tmp_path / "bars.csv"
        assert run_cli("synth", "--bars", "20", *bad, "--out", str(path)) == 1
        assert not path.exists()


class TestTrainerPresets:
    def test_basic_preset_values(self):
        config = presets.trainer("basic")
        assert config.gamma == 0.99
        assert config.learning_rate == 1e-4
        assert config.buffer_capacity == 100_000
        assert config.target_sync_every == 1000
        assert config.total_timesteps == 100_000
        assert config.learning_starts == 1000
        assert (config.epsilon_decay_fraction, config.epsilon_final) == (0.1, 0.02)

    def test_managed_preset_values(self):
        config = presets.trainer("managed")
        assert config.gamma == 0.9999
        assert config.learning_rate == 1e-5
        assert config.buffer_capacity == 1000
        assert config.epsilon_decay_interval == 200
        assert (config.epsilon_initial, config.epsilon_final) == (0.9, 0.05)
        assert config.total_timesteps == 100 * 250

    def test_preset_fields_overridable(self):
        config = presets.trainer("basic", total_timesteps=50)
        assert config.total_timesteps == 50 and config.gamma == 0.99

    def test_preset_names(self):
        assert sorted(presets.TRAINER) == ["basic", "managed"]


class TestTrain:
    def test_writes_checkpoint_trace_manifest(self, trained):
        assert (trained / "checkpoint.json").is_file()
        assert (trained / "trace.csv").is_file()
        manifest_lines = (trained / "manifest.jsonl").read_text().splitlines()
        entry = json.loads(manifest_lines[0])
        assert entry["command"] == "train"
        assert entry["data_digest"]
        assert entry["seeds"] == [5]

    def test_rerun_identical_checkpoint(self, tmp_path, data_csv, trained):
        config = {"trainer": {"preset": "basic", "total_timesteps": 600,
                              "learning_starts": 100, "hidden_sizes": [8]}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path),
                       "train", "--preset", "basic", "--data", str(data_csv)) == 0
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(tmp_path / "checkpoint.json") == digest(trained / "checkpoint.json")

    def test_missing_data_is_user_error(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "train", "--preset", "basic",
                       "--data", str(tmp_path / "nope.csv")) == 1

    def test_non_utf8_data_is_user_error(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data_csv.read_bytes().rstrip(b"\n") + b"\xe9\n")
        assert run_cli("--out", str(tmp_path), "train", "--preset", "basic",
                       "--data", str(bad)) == 1
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_default_env_follows_config_trainer_preset(self, tmp_path, data_csv):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trainer": {"preset": "managed",
                                                    "total_timesteps": 300}}))
        assert run_cli("--config", str(cfg_path), "--out", str(tmp_path), "train",
                       "--data", str(data_csv)) == 0
        checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
        assert checkpoint["meta"]["env"]["kind"] == "managed"
        assert checkpoint["sizes"][0] == 60  # 20 indicator tuples of 3

    def test_negative_seed_is_user_error(self, tmp_path, data_csv):
        assert run_cli("--out", str(tmp_path), "--seed", "-1", "train", "--preset", "basic",
                       "--data", str(data_csv)) == 1
        assert not (tmp_path / "manifest.jsonl").exists()


class TestAttack:
    def test_chance_grid_runs_per_seed(self, tmp_path, data_csv, trained):
        out = tmp_path / "sweep"
        code = run_cli("--out", str(out), "attack",
                       "--checkpoint", str(trained / "checkpoint.json"),
                       "--data", str(data_csv), "--preset", "basic-fgsm",
                       "--chances", "0.01,0.1,0.5,1.0", "--seeds", "0,1")
        assert code == 0
        runs = sorted(os.listdir(out / "runs"))
        controls = [r for r in runs if r.startswith("control")]
        attacked = [r for r in runs if not r.startswith("control")]
        assert len(controls) == 2
        assert len(attacked) == 8  # 4 chances x 2 seeds
        summary = json.loads((out / "runs" / attacked[0] / "summary.json").read_text())
        assert summary["attempts"] + summary["ncn"] + summary["skipped"] == \
            summary["eligible"]

    def test_delay_ignores_chance_list(self, tmp_path, data_csv, trained):
        out = tmp_path / "delay"
        code = run_cli("--out", str(out), "attack",
                       "--checkpoint", str(trained / "checkpoint.json"),
                       "--data", str(data_csv), "--preset", "delay",
                       "--chances", "0.1,0.5", "--seeds", "0")
        assert code == 0
        assert sorted(os.listdir(out / "runs")) == ["control-s0", "delay-s0"]

    def test_incompatible_checkpoint_is_user_error(self, tmp_path, data_csv, trained):
        ckpt = json.loads((trained / "checkpoint.json").read_text())
        ckpt["meta"]["env"] = {"kind": "basic", "window": 12}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        assert run_cli("--out", str(tmp_path), "attack", "--checkpoint", str(bad),
                       "--data", str(data_csv), "--preset", "basic-fgsm") == 1

    @pytest.mark.parametrize("corrupt", ["wide_first_layer", "missing_bias", "meta_list",
                                         "meta_env_string", "no_sizes", "no_biases",
                                         "sizes_int", "weights_null", "sizes_null",
                                         "sizes_float"])
    def test_malformed_checkpoint_is_user_error_before_manifest(self, tmp_path, data_csv,
                                                                trained, corrupt):
        ckpt = json.loads((trained / "checkpoint.json").read_text())
        if corrupt == "wide_first_layer":
            ckpt["weights"][0] = [[0.0] * 5 for _ in ckpt["weights"][0]]  # 32x5, sizes say 32x8
        elif corrupt == "missing_bias":
            ckpt["biases"].pop()
        elif corrupt == "meta_list":
            ckpt["meta"] = ["basic"]
        elif corrupt == "no_sizes":
            del ckpt["sizes"]
        elif corrupt == "no_biases":
            del ckpt["biases"]
        elif corrupt == "sizes_int":
            ckpt["sizes"] = 5
        elif corrupt == "weights_null":
            ckpt["weights"] = None
        elif corrupt == "sizes_null":
            ckpt["sizes"] = [None] * len(ckpt["sizes"])
        elif corrupt == "sizes_float":
            ckpt["sizes"][0] += 0.7  # 32.7 once truncated to 32 and attacked
        else:
            ckpt["meta"]["env"] = "basic"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "attack", "--checkpoint", str(bad),
                       "--data", str(data_csv), "--preset", "basic-fgsm") == 1
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize("array", ["weights", "biases"])
    def test_checkpoint_number_beyond_float64_is_user_error(self, tmp_path, data_csv, trained,
                                                           capsys, array):
        # json reads 10**400 as an int; its OverflowError once exited 2
        ckpt = json.loads((trained / "checkpoint.json").read_text())
        entries = ckpt[array][-1]
        (entries[0] if array == "weights" else entries)[0] = "HUGE"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt).replace('"HUGE"', "1" + "0" * 400))
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "attack", "--checkpoint", str(bad),
                       "--data", str(data_csv), "--preset", "basic-fgsm") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot load checkpoint {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", "3", "null"])
    def test_non_object_config_is_user_error(self, tmp_path, data_csv, trained, capsys,
                                             text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert run_cli("--config", str(cfg_path), "--out", str(tmp_path), "attack",
                       "--checkpoint", str(trained / "checkpoint.json"),
                       "--data", str(data_csv), "--preset", "basic-fgsm") == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_missing_checkpoint_flag_is_user_error(self, tmp_path):
        assert run_cli("--out", str(tmp_path), "attack", "--preset", "basic-fgsm") == 1

    def test_one_parse_and_one_feature_build_per_call(self, tmp_path, data_csv, trained,
                                                      monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_csv", counted("load_csv", cli.load_csv))
        monkeypatch.setattr(envs, "build_feature_series",
                            counted("features", envs.build_feature_series))
        assert run_cli("--out", str(tmp_path), "attack",
                       "--checkpoint", str(trained / "checkpoint.json"),
                       "--data", str(data_csv), "--preset", "basic-fgsm",
                       "--chances", "0.1,0.5,1.0", "--seeds", "0") == 0
        assert len(os.listdir(tmp_path / "runs")) == 4  # a control and 3 chances
        assert sorted(calls) == ["features", "load_csv"]

    @pytest.mark.parametrize("flags", [
        ["--chances", "0.5,1.5"],
        ["--chances", "nan"],
        ["--chances", "0.1,0.1000001"],  # both runs would be named c0.1
        ["--seeds=-1"],
        ["--chances", ""],  # once ran the controls alone and exited 0
        ["--seeds", ""],  # once ran --seed and exited 0
    ])
    def test_bad_sweep_input_is_user_error(self, tmp_path, data_csv, trained, flags):
        assert run_cli("--out", str(tmp_path), "attack",
                       "--checkpoint", str(trained / "checkpoint.json"),
                       "--data", str(data_csv), "--preset", "basic-fgsm", *flags) == 1
        assert not (tmp_path / "manifest.jsonl").exists()
        assert not (tmp_path / "runs").exists()


# each once passed the config checks, so train wrote manifest.jsonl and then
# crashed (exit 2) or, given True, built a 1-unit hidden layer
TRAINER_FIELDS_OUT_OF_RANGE = [
    {"buffer_capacity": 0}, {"target_sync_every": 0}, {"batch_size": 0}, {"batch_size": -3},
    {"epsilon_decay_interval": 0}, {"epsilon_decay_interval": -2}, {"hidden_sizes": [0]},
    {"hidden_sizes": [True]}, {"epsilon_decay_fraction": 1e308},
]
# each crashed the run (exit 2) or, given NaN, ran silently: int fields need
# ints (not bools), float fields finite numbers
TRAINER_FIELDS_MALFORMED = [
    {"batch_size": 2.5}, {"batch_size": True}, {"learning_starts": "x"},
    {"learning_starts": None}, {"exploration": "param_noise", "param_noise_sigma": "abc"},
    {"exploration": "param_noise", "param_noise_sigma": float("nan")},
]
ATTACK_FIELDS_MALFORMED = [
    {"eps_iters": 2.5}, {"cw_max_iters": 2.5}, {"cw_lr": float("nan")}, {"seed": 1.5},
    {"cw_lr": -0.5}, {"cw_lr": 0}, {"cw_eps": -1.0}, {"cw_const": 0.0},
    {"k_scale": [True, True, True]}, {"k_scale": "abc"}, {"k_scale": [1, "x", 1]},
]
# each crashed the run (exit 2), before or after manifest.jsonl was written,
# or trained silently: a bool window on a 1-bar window, a cap below 1 on
# one-step episodes
ENV_FIELDS_MALFORMED = [
    {"kind": "basic", "episode_cap": "abc"}, {"kind": "basic", "commission_pct": "abc"},
    {"kind": "basic", "window": 2.5}, {"kind": "managed", "stops": [0.02, "x"]},
    {"kind": "basic", "commission_pct": float("nan")}, {"kind": "basic", "window": True},
    {"kind": "basic", "window": 10**400}, {"kind": "basic", "episode_cap": 0},
    {"kind": "basic", "episode_cap": -3},
    # each divided by a zero start net worth, made a reward non-finite or ran on
    # negative holdings
    {"kind": "managed", "cash": 0, "asset": 0}, {"kind": "managed", "cash": -1},
    {"kind": "managed", "asset": -0.5}, {"kind": "managed", "sharpe_offset": 0},
    {"kind": "managed", "sharpe_offset": -1e-9}, {"kind": "managed", "risk_free": 1e308},
    {"kind": "managed", "risk_free": -1.5},
    {"kind": "managed", "sharpe_offset": 1e-320},  # denormal: the first mean / offset overflows
    # each made a nonsense trade: a negative asset, a buy for nothing, a reward
    # for buying, a sale at half price, a stop no bar reaches
    {"kind": "managed", "commission_pct": 250}, {"kind": "basic", "commission_pct": 100},
    {"kind": "basic", "commission_pct": -5}, {"kind": "managed", "takes": [-0.5]},
    {"kind": "managed", "stops": [1.5]},
]


class TestConfigShapes:
    @pytest.mark.parametrize("command, config", [
        ("attack", {"attack": {"preset": "basic-fgsm", "k_scale": [1, 1]}}),  # tuple is 3-d
        ("attack", {"attack": {"preset": "basic-fgsm", "k_scale": 1}}),
        ("attack", {"data": "m.csv"}),
        ("train", {"trainer": {"preset": "basic", "hidden_sizes": 8}}),
        ("train", {"env": {"kind": "basic", "stops": 0.02}}),
        *(("train", {"trainer": {"preset": "basic", "total_timesteps": 300,
                                 "learning_starts": 100, **fields}})
          for fields in TRAINER_FIELDS_OUT_OF_RANGE + TRAINER_FIELDS_MALFORMED),
        *(("attack", {"attack": fields}) for fields in ATTACK_FIELDS_MALFORMED),
        *(("train", {"trainer": {"preset": "basic", "total_timesteps": 300,
                                 "learning_starts": 100}, "env": fields})
          for fields in ENV_FIELDS_MALFORMED),
        ("attack", {"env": ENV_FIELDS_MALFORMED[0]}),
        ("attack", {"env": {"kind": "basic", "commission_pct": -5}}),
        # open() once took a float or a list with TypeError, exit 2
        *((command, {"data": {"path": path}}) for path in (3.5, ["bars.csv"], {"f": "b.csv"})
          for command in ("train", "attack")),
        # a falsy one was once ignored: train took the preset's env, attack the checkpoint's
        *((command, {"env": block}) for block in ([], 0, False, "", [1])
          for command in ("train", "attack")),
    ], ids=["k_scale_length", "k_scale_scalar", "data_string", "hidden_sizes_scalar",
            "basic_env_stops", "buffer_capacity_0", "target_sync_every_0", "batch_size_0",
            "batch_size_negative", "epsilon_decay_interval_0",
            "epsilon_decay_interval_negative", "hidden_size_0", "hidden_size_bool",
            "epsilon_decay_fraction_huge", "batch_size_float", "batch_size_bool",
            "learning_starts_string", "learning_starts_null", "param_noise_sigma_string",
            "param_noise_sigma_nan", "eps_iters_float", "cw_max_iters_float", "cw_lr_nan",
            "attack_seed_float", "cw_lr_negative", "cw_lr_0", "cw_eps_negative", "cw_const_0",
            "k_scale_bools", "k_scale_string", "k_scale_entry_string", "env_episode_cap_string",
            "env_commission_string", "env_window_float", "managed_env_stops_entry_string",
            "env_commission_nan", "env_window_bool", "env_window_huge", "env_episode_cap_0",
            "env_episode_cap_negative", "managed_env_cash_and_asset_0",
            "managed_env_cash_negative", "managed_env_asset_negative",
            "managed_env_sharpe_offset_0", "managed_env_sharpe_offset_negative",
            "managed_env_risk_free_huge", "managed_env_risk_free_below_minus_1",
            "managed_env_sharpe_offset_denormal", "managed_env_commission_250",
            "env_commission_100", "env_commission_negative", "managed_env_takes_negative",
            "managed_env_stops_above_1", "attack_env_episode_cap_string",
            "attack_env_commission_negative",
            *(f"{command}_data_path_{kind}" for kind in ("float", "list", "object")
              for command in ("train", "attack")),
            *(f"{command}_env_{kind}" for kind in ("empty_list", "zero", "false",
                                                   "empty_string", "list")
              for command in ("train", "attack"))])
    def test_bad_block_is_user_error_before_manifest(self, tmp_path, data_csv, trained,
                                                     capsys, command, config):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out), command,
                "--data", str(data_csv)]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json"),
                     "--preset", "basic-fgsm"]
        else:
            argv += ["--preset", "basic"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the message names each field and echoes its value as given, a list as a list
        if config.get("attack") in ATTACK_FIELDS_MALFORMED:
            assert all(name in err and repr(value) in err
                       for name, value in config["attack"].items())
        if config.get("env") in ENV_FIELDS_MALFORMED:
            assert all(name in err and repr(value) in err
                       for name, value in config["env"].items() if name != "kind")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "attack"])
    @pytest.mark.parametrize("kind", ["x", None, ["basic"]], ids=["unknown", "null", "list"])
    def test_bad_env_kind_is_user_error_naming_the_kinds(self, tmp_path, data_csv, trained,
                                                         capsys, command, kind):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"env": {"kind": kind}}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out), command, "--data", str(data_csv)]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--preset", "basic-fgsm"]
        else:
            argv += ["--preset", "basic"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert f"unknown env kind {kind!r}; have ['basic', 'managed']" in err
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_empty_env_block_is_user_error_before_manifest(self, tmp_path, data_csv, trained,
                                                           capsys, command):
        # once taken as absent: train trained on the preset's env, attack used the
        # checkpoint's; only a missing or null block is absent
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"env": {}}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out), command, "--data", str(data_csv)]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--preset", "basic-fgsm"]
        else:
            argv += ["--preset", "basic"]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == \
            "error: bad env config: unknown env kind None; have ['basic', 'managed']\n"
        assert not out.exists()

    def test_empty_env_block_exits_1_from_the_command_line(self, tmp_path, data_csv, trained):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"env": {}}))
        for command, args in [("train", ["--preset", "basic"]),
                              ("attack", ["--checkpoint", str(trained / "checkpoint.json"),
                                          "--preset", "basic-fgsm"])]:
            out = tmp_path / command
            proc = run_script("--config", str(cfg_path), "--out", str(out), command,
                              "--data", str(data_csv), *args)
            assert proc.returncode == 1
            assert b"unknown env kind None" in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("command, block, preset", [
        ("train", "trainer", ["basic"]), ("attack", "attack", ["basic-fgsm"])])
    def test_non_string_preset_is_user_error_naming_the_presets(
            self, tmp_path, data_csv, trained, capsys, command, block, preset):
        # once "bad ... config: unhashable type: 'list'"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({block: {"preset": preset}}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out), command, "--data", str(data_csv)]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json")]
        assert run_cli(*argv) == 1
        stock = presets.ATTACK if command == "attack" else presets.TRAINER
        assert capsys.readouterr().err == (f"error: bad {block} config: preset must be a "
                                           f"string naming one of {sorted(stock)}, "
                                           f"got {preset!r}\n")
        assert not out.exists()

    def test_integer_over_python_digit_limit_is_user_error(self, tmp_path, data_csv, capsys):
        # json.load raises a plain ValueError for it; once exited 2 as an internal error
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"trainer": {"preset": "basic", "seed": ' + "9" * 5000 + "}}")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg_path), "--out", str(out), "train",
                       "--data", str(data_csv)) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg_path}: ")
        assert not out.exists()

    def test_internal_fault_in_a_config_build_is_internal_error(self, tmp_path, data_csv,
                                                                monkeypatch, capsys):
        def broken(preset=None, **fields):
            raise KeyError("broken")

        monkeypatch.setattr(presets, "trainer", broken)
        assert run_cli("--out", str(tmp_path / "out"), "train", "--preset", "basic",
                       "--data", str(data_csv)) == 2
        assert capsys.readouterr().err.startswith("internal error: KeyError")

    def test_bad_env_in_checkpoint_meta_is_user_error_before_manifest(
            self, tmp_path, data_csv, trained, capsys):
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        checkpoint["meta"]["env"]["episode_cap"] = "abc"
        ckpt_path = tmp_path / "checkpoint.json"
        ckpt_path.write_text(json.dumps(checkpoint))
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "attack", "--checkpoint", str(ckpt_path),
                       "--data", str(data_csv), "--preset", "basic-fgsm") == 1
        assert "episode_cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "attack"])
    @pytest.mark.parametrize("path", [0, True], ids=["zero", "true"])
    def test_file_descriptor_data_path_is_user_error(self, tmp_path, trained, command, path):
        # open() takes these as file descriptors: 0 once read the market from stdin
        # and closed it, true once closed stdout and exited 2
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {"path": path}}))
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out"), command]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--preset", "basic-fgsm"]
        else:
            argv += ["--preset", "basic"]
        proc = run_script(*argv)
        assert proc.returncode == 1
        assert proc.stderr == f"error: config data.path must be a string, got {path!r}\n" \
            .encode()
        assert not (tmp_path / "out").exists()


class TestOutputPath:
    @pytest.mark.parametrize("command", ["train", "attack", "report"])
    def test_out_naming_a_file_is_user_error(self, tmp_path, data_csv, trained, sweep_dir,
                                             capsys, command):
        out = tmp_path / "file"
        out.write_text("kept")
        argv = {"train": ["train", "--preset", "basic", "--data", str(data_csv)],
                "attack": ["attack", "--checkpoint", str(trained / "checkpoint.json"),
                           "--data", str(data_csv), "--preset", "basic-fgsm"],
                "report": ["report", str(sweep_dir)]}[command]
        assert run_cli("--out", str(out), *argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_window_too_long_for_the_market_is_user_error_before_manifest(
            self, tmp_path, data_csv, trained, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"env": {"kind": "basic", "window": 5000}}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--out", str(out), command, "--data", str(data_csv)]
        if command == "attack":
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--preset", "basic-fgsm"]
        else:
            argv += ["--preset", "basic"]
        assert run_cli(*argv) == 1
        assert "too short" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_output_unwritable_after_manifest_is_user_error(self, tmp_path, data_csv, trained,
                                                            capsys, command):
        # checkpoint.json a directory, or runs a file: each once exited 2
        out = tmp_path / "out"
        out.mkdir()
        if command == "train":
            (out / "checkpoint.json").mkdir()
            argv = ["train", "--preset", "basic", "--data", str(data_csv)]
        else:
            (out / "runs").write_text("kept")
            argv = ["attack", "--checkpoint", str(trained / "checkpoint.json"),
                    "--data", str(data_csv), "--preset", "basic-fgsm"]
        assert run_cli("--config", str(trained / "config.json"), "--out", str(out), *argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert (out / "manifest.jsonl").is_file()


@pytest.fixture(scope="module")
def managed_checkpoint(tmp_path_factory):
    """An untrained agent for a 3-action managed env."""
    env_block = {"kind": "managed", "size_count": 1, "stops": [0.02], "takes": [0.01]}
    net = QNetwork.initialize([60, 4, 3], np.random.default_rng(0))
    path = tmp_path_factory.mktemp("managed") / "checkpoint.json"
    save_checkpoint(net, path, {"env": env_block})
    return path


class TestConstraintFitsEnv:
    @pytest.mark.parametrize("agent, preset", [
        ("basic", "managed-fgsm"), ("basic", "managed-cw"),
        ("managed", "basic-fgsm"), ("managed", "basic-cw")])
    def test_constraint_for_the_other_features_is_user_error_before_manifest(
            self, tmp_path, data_csv, trained, managed_checkpoint, capsys, agent, preset):
        checkpoint = trained / "checkpoint.json" if agent == "basic" else managed_checkpoint
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "attack", "--checkpoint", str(checkpoint),
                       "--data", str(data_csv), "--preset", preset,
                       "--chances", "1.0", "--seeds", "0") == 1
        assert "constraint" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_for_another_env_is_user_error_before_manifest(
            self, tmp_path, data_csv, managed_checkpoint, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"env": {"kind": "basic"}}))
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg_path), "--out", str(out), "attack",
                       "--checkpoint", str(managed_checkpoint), "--data", str(data_csv),
                       "--preset", "delay", "--seeds", "0") == 1
        assert "does not match env" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("agent, config", [
        ("basic", {"attack": {"preset": "managed-fgsm", "constraint": "none"}}),
        ("managed", {"attack": {"preset": "basic-fgsm", "constraint": "none"}}),
        ("managed", {"attack": {"preset": "delay", "constraint": "relative_price"}})])
    def test_none_and_delay_run_on_either_env(self, tmp_path, data_csv, trained,
                                              managed_checkpoint, agent, config):
        checkpoint = trained / "checkpoint.json" if agent == "basic" else managed_checkpoint
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("--config", str(cfg_path), "--out", str(tmp_path / "out"), "attack",
                       "--checkpoint", str(checkpoint), "--data", str(data_csv),
                       "--chances", "1.0", "--seeds", "0") == 0


def trained_net_and_env(trained, data_csv):
    """The ``trained`` agent and the env of its checkpoint, on ``data_csv``."""
    net, meta = load_checkpoint(trained / "checkpoint.json")
    return net, cli.build_env(meta["env"], load_csv(data_csv))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, data_csv, trained):
    out = tmp_path_factory.mktemp("report_src")
    assert run_cli("--out", str(out), "attack",
                   "--checkpoint", str(trained / "checkpoint.json"),
                   "--data", str(data_csv), "--preset", "basic-fgsm",
                   "--mode", "targeted", "--chances", "0.5,1.0", "--seeds", "4") == 0
    return out


class TestReport:
    def test_one_summary_row_per_attacked_run(self, sweep_dir):
        assert run_cli("report", str(sweep_dir)) == 0
        rows = (sweep_dir / "summary_table.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header + one row per chance

    def test_summary_rows_match_ledger_counters(self, sweep_dir):
        run_cli("report", str(sweep_dir))
        header, *rows = (sweep_dir / "summary_table.csv").read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            values = dict(zip(columns, row.split(",")))
            summary = json.loads(
                (sweep_dir / "runs" / values["run"] / "summary.json").read_text())
            assert int(values["attempts"]) == summary["attempts"]
            assert int(values["ncn"]) == summary["ncn"]

    def test_control_only_directory_zero_attack_rows(self, tmp_path, data_csv, trained):
        out = tmp_path / "ctrl_only"
        run_sweep(*trained_net_and_env(trained, data_csv), [("control-s0", None, 0)],
                  out / "runs")
        assert run_cli("report", str(out)) == 0
        rows = (out / "summary_table.csv").read_text().splitlines()
        assert len(rows) == 1

    def test_sweep_alone_writes_run_json_that_report_reads(self, tmp_path, data_csv,
                                                           trained):
        # run.json comes with each run, so a sweep cut short still reports
        # its controls as controls
        jobs = [("control-s2", None, 2), ("delay-s2", presets.attack("delay"), 2),
                ("fgsm-c0.5-s2", presets.attack("basic-fgsm", mode="targeted", chance=0.5), 2)]
        run_sweep(*trained_net_and_env(trained, data_csv), jobs, tmp_path / "runs")
        metas = {name: json.loads((tmp_path / "runs" / name / "run.json").read_text())
                 for name, _, _ in jobs}
        assert metas == {
            "control-s2": {"method": "control", "mode": "", "chance": "", "seed": 2},
            "delay-s2": {"method": "delay", "mode": "", "chance": 1.0, "seed": 2},
            "fgsm-c0.5-s2": {"method": "fgsm", "mode": "targeted", "chance": 0.5, "seed": 2}}
        assert run_cli("report", str(tmp_path)) == 0
        rows = (tmp_path / "summary_table.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["delay-s2", "delay"],
                                                            ["fgsm-c0.5-s2", "fgsm"]]

    @pytest.mark.parametrize("text", ['{"method": ', "[1]"])
    def test_corrupt_run_json_is_user_error_naming_the_run(self, tmp_path, sweep_dir,
                                                           capsys, text):
        copy = tmp_path / "copy"
        shutil.copytree(sweep_dir / "runs", copy / "runs")
        run = sorted(r for r in os.listdir(copy / "runs") if not r.startswith("control"))[0]
        (copy / "runs" / run / "run.json").write_text(text)
        assert run_cli("report", str(copy)) == 1
        assert os.path.join("runs", run) in capsys.readouterr().err

    def test_missing_directory_is_user_error(self, tmp_path):
        assert run_cli("report", str(tmp_path / "missing")) == 1


@pytest.fixture(scope="module")
def bars_3000(tmp_path_factory):
    """The bars of ``synthesize_bars(3000, seed=1)``."""
    path = tmp_path_factory.mktemp("bars3000") / "bars.csv"
    assert run_cli("synth", "--bars", "3000", "--seed", "1", "--out", str(path)) == 0
    return path


def train_in(out, data, config):
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(config))
    return run_cli("--config", str(cfg_path), "--out", str(out), "train", "--data", str(data))


class TestTrainFailures:
    def test_string_for_a_bool_is_user_error_before_manifest(self, tmp_path, bars_3000,
                                                             capsys):
        # once trained with clipping, since "no" is truthy
        config = {"trainer": {"preset": "basic", "total_timesteps": 300, "clip_rewards": "no"}}
        assert train_in(tmp_path / "out", bars_3000, config) == 1
        assert "clip_rewards must be a bool" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_buffer_capacity_above_total_timesteps_trains(self, tmp_path, bars_3000):
        # once exited 2 with MemoryError after manifest.jsonl was written
        config = {"trainer": {"preset": "basic", "total_timesteps": 300, "learning_starts": 100,
                              "hidden_sizes": [4], "buffer_capacity": 10**15}}
        assert train_in(tmp_path / "out", bars_3000, config) == 0
        assert (tmp_path / "out" / "checkpoint.json").is_file()

    def test_divergence_is_user_error_without_numpy_warnings(self, tmp_path, bars_3000,
                                                             capsys):
        # once exited 2 at step 1,006 with overflow warnings on stderr
        config = {"trainer": {"preset": "managed", "learning_rate": 3,
                              "total_timesteps": 3000}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert train_in(tmp_path / "out", bars_3000, config) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step ")
        assert "learning_rate" in err and "clip_rewards" in err
        assert (tmp_path / "out" / "manifest.jsonl").is_file()  # the run had started

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_1_after_writing_the_files(self, tmp_path, bars_3000,
                                                            unbuffered):
        # once "internal error: BrokenPipeError", exit 2 (or 120 from the exit-time flush)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"trainer": {"preset": "basic", "total_timesteps": 300,
                                                    "learning_starts": 100}}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "tradefool.cli", "--config", str(cfg_path), "--out", str(out),
             "train", "--data", str(bars_3000)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the only reader leaves before the first print
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""
        assert (out / "checkpoint.json").is_file() and (out / "trace.csv").is_file()


RULE_TABLES = {"trainer": TrainerConfig.RULES, "attack": AttackConfig.RULES,
               **{kind: env.RULES for kind, env in envs.ENVS.items()}}


def test_readme_names_every_rule():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    for table in RULE_TABLES.values():
        for field in table.fields:
            assert field.kind == "bool" or field.bound is not None, field.name
            assert f"`{field.name}`: {field.describe()}" in section, field.name
        for text in table.rules:
            assert f"`{text}`" in section, text


OTHER_KINDS = [math.nan, math.inf, -math.inf, 1e308, 10**400, True, False, "1", None, [1]]


def edge_values(field) -> list:
    """A field's values on, and one step either side of, each end of its bound,
    or its allowed strings and one more; then values of every other kind."""
    if not isinstance(field.bound, str):
        return [*(field.bound or ()), "other", *OTHER_KINDS]
    values = [math.nextafter(end, to) for end in field.ends for to in (-math.inf, end, math.inf)]
    if field.kind == "int":
        values += [int(end) + step for end in field.ends if math.isfinite(end)
                   for step in (-1, 0, 1)]
    return values + OTHER_KINDS


@st.composite
def overrides(draw, table) -> dict:
    fields = draw(st.lists(st.sampled_from(table.fields), max_size=3,
                           unique_by=lambda field: field.name))
    drawn = {}
    for field in fields:
        edges = edge_values(field)
        # half the draws keep to the rule, so that some runs get past the checks
        kept = [v for v in edges if field.accepts([v] if field.many else v)]
        entries = st.one_of(st.sampled_from(kept), st.sampled_from(edges))
        drawn[field.name] = draw(st.one_of(st.lists(entries, max_size=3), entries)
                                 if field.many else entries)
    return drawn


# small enough that a whole run takes a few hundred milliseconds at most
TINY_ENV = {"basic": {"kind": "basic", "episode_cap": 30},
            "managed": {"kind": "managed", "episode_cap": 30, "size_count": 1,
                        "stops": [0.02], "takes": [0.01]}}
TINY_TRAINER = {"total_timesteps": 200, "learning_starts": 50, "batch_size": 8,
                "hidden_sizes": [4]}
AGENT_PRESETS = {"basic": ["delay", "basic-fgsm", "basic-cw"],
                 "managed": ["delay", "managed-fgsm", "managed-cw"]}


@st.composite
def train_configs(draw) -> dict:
    kind = draw(st.sampled_from(sorted(TINY_ENV)))
    return {"env": {**TINY_ENV[kind], **draw(overrides(RULE_TABLES[kind]))},
            "trainer": {"preset": draw(st.sampled_from(sorted(presets.TRAINER))),
                        **TINY_TRAINER, **draw(overrides(RULE_TABLES["trainer"]))}}


@st.composite
def attack_configs(draw) -> tuple[str, dict]:
    agent = draw(st.sampled_from(sorted(TINY_ENV)))
    config = {"attack": {"preset": draw(st.sampled_from(AGENT_PRESETS[agent])),
                         **draw(overrides(RULE_TABLES["attack"]))}}
    if draw(st.booleans()):
        config["env"] = {**TINY_ENV[agent], **draw(overrides(RULE_TABLES[agent]))}
    return agent, config


@pytest.fixture(scope="module")
def tiny_agents(tmp_path_factory):
    """An untrained agent for each tiny env, by env kind."""
    paths = {}
    for kind, env_block in TINY_ENV.items():
        inputs = {"basic": 10 * 3 + 2, "managed": 20 * 3}[kind]  # the default windows
        net = QNetwork.initialize([inputs, 4, 3], np.random.default_rng(0))
        paths[kind] = tmp_path_factory.mktemp(kind) / "checkpoint.json"
        save_checkpoint(net, paths[kind], {"env": env_block})
    return paths


def assert_exit_and_files(code, out, err, command):
    """0 or 1; a user error writes nothing, unless training diverged once it
    ran; success writes the files the command promises."""
    assert code in (0, 1), err
    if code == 1:
        diverged = command == "train" and "non-finite" in err
        assert diverged or not out.exists(), err
    else:
        promised = ["checkpoint.json", "trace.csv"] if command == "train" else \
            [os.path.join("runs", run, name) for run in os.listdir(out / "runs")
             for name in ("run.json", "record.csv", "summary.json")]
        assert all((out / name).is_file() for name in ["manifest.jsonl", *promised])


# each example reads all it wrote to stderr, so sharing capsys is safe
BOUNDARY_SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFieldBoundaries:
    @BOUNDARY_SETTINGS
    @given(config=train_configs())
    def test_train(self, tmp_path_factory, bars_3000, capsys, config):
        out = tmp_path_factory.mktemp("train") / "out"
        code = train_in(out, bars_3000, config)
        assert_exit_and_files(code, out, capsys.readouterr().err, "train")

    @BOUNDARY_SETTINGS
    @given(agent_config=attack_configs())
    def test_attack(self, tmp_path_factory, bars_3000, tiny_agents, capsys, agent_config):
        agent, config = agent_config
        out = tmp_path_factory.mktemp("attack") / "out"
        cfg_path = out.parent / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = run_cli("--config", str(cfg_path), "--out", str(out), "attack",
                       "--checkpoint", str(tiny_agents[agent]), "--data", str(bars_3000),
                       "--chances", "1.0", "--seeds", "0")
        assert_exit_and_files(code, out, capsys.readouterr().err, "attack")

    @pytest.mark.parametrize("agent, attack", [
        ("managed", {"preset": "managed-cw", "cw_eps": sys.float_info.max}),
        ("managed", {"preset": "managed-fgsm", "eps_end": sys.float_info.max}),
        ("basic", {"preset": "basic-fgsm", "eps_end": sys.float_info.max}),
    ], ids=["cw_eps", "managed_eps_end", "basic_eps_end"])
    def test_attack_at_the_top_of_the_float_range_warns_of_nothing(
            self, tmp_path, bars_3000, tiny_agents, capsys, agent, attack):
        # once exited 0 with numpy's overflow warnings from the C&W step, the
        # L2 of a candidate or the FGSM ladder on stderr
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"attack": attack}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("--config", str(cfg_path), "--out", str(out), "attack",
                           "--checkpoint", str(tiny_agents[agent]), "--data", str(bars_3000),
                           "--chances", "1.0", "--seeds", "0")
        assert code == 0, capsys.readouterr().err
        assert_exit_and_files(code, out, "", "attack")
        assert len(os.listdir(out / "runs")) == 2  # the control and the attacked run
