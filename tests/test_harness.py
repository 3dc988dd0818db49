import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefool.attacks import AttackConfig, AttackError
from tradefool.envs import BasicStockEnv, ManagedRiskEnv
from tradefool.harness import (
    AttackLedger,
    LedgerRow,
    RunRecord,
    export_report,
    run_episode,
    run_sweep,
)
from tradefool.market_data import synthesize_bars
from tradefool.presets import attack as preset
from tradefool.qnet import QNetwork


@pytest.fixture(scope="module")
def bars():
    return synthesize_bars(2500, drift=1e-4, volatility=0.03, momentum=-0.4, seed=42)


@pytest.fixture(scope="module")
def net(bars):
    env = BasicStockEnv(bars)
    return QNetwork.initialize([env.observation_dim, 16, env.n_actions],
                               np.random.default_rng(6))


@pytest.fixture(scope="module")
def short_envs(bars):
    """{kind: (env, net, [fgsm config, cw config])} with 30-step episodes."""
    setups = {}
    for kind, env, presets in (
            ("basic", BasicStockEnv(bars, episode_cap=30),
             [preset("basic-fgsm", eps_start=5e-3, eps_end=5e-2),
              preset("basic-cw", cw_max_iters=5)]),
            ("managed", ManagedRiskEnv(bars, episode_cap=30),
             [preset("managed-fgsm"), preset("managed-cw", cw_max_iters=5)])):
        net = QNetwork.initialize([env.observation_dim, 16, env.n_actions],
                                  np.random.default_rng(len(kind)))
        setups[kind] = (env, net, presets)
    return setups


def hair_trigger_net(observation_dim, window):
    """Three-action net reading rel_high of the newest and 2nd-newest tuples.

    On flat bars Q = (0, 10*(h_new + h_prev) - 0.001, -1): any upward nudge of
    a rel_high flips the action, and a persisted perturbation keeps flipping it
    one step later, exercising the NCN path. Action 2 is never greedy.
    """
    weights = np.zeros((observation_dim, 3))
    weights[(window - 1) * 3, 1] = 10.0
    weights[(window - 2) * 3, 1] = 10.0
    return QNetwork(sizes=[observation_dim, 3], weights=[weights],
                    biases=[np.array([0.0, -0.001, -1.0])])


class TestRunControl:
    def test_same_seed_identical_records(self, bars, net):
        env = BasicStockEnv(bars)
        a, ledger = run_episode(net, env, 5)
        b = run_episode(net, env, 5)[0]
        assert a.rewards == b.rewards and a.actions == b.actions
        assert ledger.rows == []  # a control ledgers nothing

    def test_record_length_equals_episode_length(self, bars, net):
        env = BasicStockEnv(bars, episode_cap=40)
        record = run_episode(net, env, 1)[0]
        assert len(record) == 41

    def test_always_wait_policy_on_flat_data_scores_zero(self, flat_bars):
        env = BasicStockEnv(flat_bars, episode_cap=30)
        net = QNetwork(sizes=[32, 3], weights=[np.zeros((32, 3))], biases=[np.zeros(3)])
        record = run_episode(net, env, 0)[0]
        assert set(record.actions) == {0}  # all-equal Q ties to wait
        assert record.total_reward == 0.0
        assert record.cum_rewards == [0.0] * len(record)


class TestObservationReads:
    @pytest.mark.parametrize("kind", ["basic", "managed"])
    @pytest.mark.parametrize("config", [None, preset("delay")], ids=["control", "delay"])
    def test_one_observation_per_step(self, short_envs, monkeypatch, kind, config):
        env, net, _ = short_envs[kind]
        calls = []
        observation = env.observation

        def counted(overrides=None):
            calls.append(overrides)
            return observation(overrides)

        monkeypatch.setattr(env, "observation", counted)
        record = run_episode(net, env, 8, config)[0]
        assert len(record) > 1 and len(calls) == len(record)
        assert calls == [None] * len(record)


class TestRunAttacked:
    def test_chance_zero_equals_control(self, bars, net):
        env = BasicStockEnv(bars)
        control = run_episode(net, env, 9)[0]
        attacked, ledger = run_episode(net, env, 9, preset("basic-fgsm", chance=0.0))
        counters = ledger.counters()
        assert counters["attempts"] == 0
        assert counters["skipped"] == counters["eligible"]
        assert attacked.rewards == control.rewards

    def test_accounting_partition(self, bars, net):
        env = BasicStockEnv(bars)
        for chance in (0.3, 1.0):
            _, ledger = run_episode(net, env, 3, preset("basic-fgsm", chance=chance))
            counters = ledger.counters()
            assert counters["attempts"] + counters["ncn"] + counters["skipped"] == \
                counters["eligible"]

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["basic", "managed"]), cw=st.booleans(),
           mode=st.sampled_from(["non_targeted", "targeted"]),
           chance=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_partition_property(self, short_envs, kind, cw, mode, chance, seed):
        env, net, presets = short_envs[kind]
        config = replace(presets[cw], mode=mode, chance=chance)
        record, ledger = run_episode(net, env, seed, config)
        counters = ledger.counters()
        assert counters["eligible"] == len(record)  # one ledger row per step
        assert counters["attempts"] + counters["ncn"] + counters["skipped"] == \
            counters["eligible"]

    def test_delay_on_constant_stream_equals_control(self, flat_bars, net):
        env = BasicStockEnv(flat_bars, episode_cap=50)
        control = run_episode(net, env, 4)[0]
        attacked, ledger = run_episode(net, env, 4, preset("delay"))
        assert attacked.rewards == control.rewards
        counters = ledger.counters()
        assert counters["attempts"] == 0 and counters["eligible"] == len(attacked)

    def test_delay_serves_previous_tuple(self, bars, net):
        env = BasicStockEnv(bars)
        _, ledger = run_episode(net, env, 2, preset("delay"))
        assert ledger.rows[0].pert_tuple is None  # episode start served unchanged
        for row in ledger.rows[1:5]:
            assert row.pert_tuple is not None

    def test_successful_perturbation_persists_into_later_windows(self, flat_bars):
        env = BasicStockEnv(flat_bars, episode_cap=20)
        net = hair_trigger_net(env.observation_dim, env.window)
        config = AttackConfig(method="fgsm", chance=1.0, eps_start=1e-4, eps_end=1e-3,
                              eps_iters=5, k_scale=(1.0, 1.0, 1.0),
                              constraint="relative_price")
        _, ledger = run_episode(net, env, 8, config)
        outcomes = [r.outcome for r in ledger.rows]
        assert outcomes[0] == "success"
        # the poisoned tuple slides into the 2nd-newest slot, where it still
        # flips the greedy action: no fresh attempt, the step counts as NCN
        assert outcomes[1] == "ncn"
        assert outcomes[2] == "success"
        counters = ledger.counters()
        assert counters["attempts"] + counters["ncn"] == counters["eligible"]

    def test_ncn_steps_record_no_attempt(self, flat_bars):
        env = BasicStockEnv(flat_bars, episode_cap=20)
        net = hair_trigger_net(env.observation_dim, env.window)
        config = AttackConfig(method="fgsm", chance=1.0, eps_start=1e-4, eps_end=1e-3,
                              eps_iters=5, k_scale=(1.0, 1.0, 1.0),
                              constraint="relative_price")
        _, ledger = run_episode(net, env, 8, config)
        assert ledger.counters()["ncn"] > 0
        for row in ledger.rows:
            if row.outcome == "ncn":
                assert row.induced is None and row.pert_tuple is None

    def test_targeted_mode_counts_partial_and_non_target(self, bars, net):
        env = BasicStockEnv(bars)
        _, ledger = run_episode(net, env, 6, preset("basic-fgsm", mode="targeted"))
        counters = ledger.counters()
        assert counters["attempts"] == (counters["successes"] + counters["failures"]
                                        + counters["partial"] + counters["non_target"])

    def test_all_ledgered_perturbed_tuples_satisfy_constraints(self, bars, net):
        from tradefool.attacks import validate_relative_tuple
        env = BasicStockEnv(bars)
        for mode in ("non_targeted", "targeted"):
            config = preset("basic-fgsm", mode=mode, eps_start=5e-3, eps_end=5e-2)
            _, ledger = run_episode(net, env, 17, config)
            checked = 0
            for row in ledger.rows:
                if row.pert_tuple is not None:
                    assert validate_relative_tuple(row.pert_tuple), row
                    checked += 1
            assert checked > 0

    def test_bad_config_rejected_before_reset(self, bars, net):
        env = BasicStockEnv(bars)
        with pytest.raises(AttackError):
            run_episode(net, env, 1, replace(preset("basic-fgsm"), chance=2.0))
        assert env.cursor == -1  # no episode started

    def test_constraint_for_the_other_features_raises_before_the_first_step(self):
        # an indicator-feature preset on relative-price features
        env = BasicStockEnv(synthesize_bars(3000, seed=1))
        net = QNetwork.initialize([32, 8, 3], np.random.default_rng(0))
        with pytest.raises(AttackError, match="'indicator' needs indicator features"):
            run_episode(net, env, 0, preset("managed-fgsm", chance=1.0))
        assert env.cursor == -1  # no episode started

    @pytest.mark.parametrize("name, variant", [
        ("basic-fgsm", "box"), ("basic-cw", "scaled"), ("basic-cw", "box")],
        ids=["fgsm", "cw_scaled", "cw_box"])
    def test_k_scale_of_another_length_raises_before_the_first_step(self, bars, net, name,
                                                                     variant):
        env = BasicStockEnv(bars)
        config = preset(name, cw_variant=variant, k_scale=(1.0, 1.0))
        with pytest.raises(AttackError, match="k_scale has 2 entries"):
            run_episode(net, env, 0, config)
        assert env.cursor == -1

    def test_net_of_another_env_raises_before_the_first_step(self, bars, net):
        env = ManagedRiskEnv(bars)
        assert env.observation_dim != net.input_dim
        for config in (None, preset("delay")):
            with pytest.raises(AttackError, match="does not match env"):
                run_episode(net, env, 0, config)
            assert env.cursor == -1

    def test_ledger_deterministic_under_fixed_seed(self, bars, net):
        env = BasicStockEnv(bars)
        _, ledger1 = run_episode(net, env, 12, preset("basic-fgsm", chance=0.5))
        _, ledger2 = run_episode(net, env, 12, preset("basic-fgsm", chance=0.5))
        assert [r.outcome for r in ledger1.rows] == [r.outcome for r in ledger2.rows]
        assert ledger1.counters() == ledger2.counters()


def curves(control, attacked, out_dir) -> dict[str, list]:
    """The columns of export_report's curves.csv, an empty field read as None."""
    export_report(AttackLedger(), attacked, out_dir, control)
    with open(out_dir / "curves.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return {name: [float(row[name]) if row[name] else None for row in rows] for name in rows[0]}


class TestDifferences:
    def test_identical_runs_give_zero(self, tmp_path):
        record = RunRecord(actions=[0, 0], rewards=[1.0, 2.0], cum_rewards=[1.0, 3.0])
        assert curves(record, record, tmp_path)["reward_diff"] == [0.0, 0.0]

    def test_shift_by_one_at_step_k(self, tmp_path):
        control = RunRecord(actions=[0] * 4, rewards=[1, 1, 1, 1],
                            cum_rewards=[1, 2, 3, 4])
        attacked = RunRecord(actions=[0] * 4, rewards=[1, 0, 1, 1],
                             cum_rewards=[1, 1, 2, 3])
        assert curves(control, attacked, tmp_path)["reward_diff"] == [0.0, 1.0, 1.0, 1.0]

    def test_matches_brute_force_prefix_sums(self, rng, tmp_path):
        rewards_c = rng.normal(size=30)
        rewards_a = rng.normal(size=30)
        control = RunRecord(actions=[0] * 30, rewards=list(rewards_c),
                            cum_rewards=list(np.cumsum(rewards_c)))
        attacked = RunRecord(actions=[0] * 30, rewards=list(rewards_a),
                             cum_rewards=list(np.cumsum(rewards_a)))
        expected = [sum(rewards_c[:i + 1]) - sum(rewards_a[:i + 1]) for i in range(30)]
        assert np.allclose(curves(control, attacked, tmp_path)["reward_diff"], expected)

    def test_length_mismatch_rejected(self, tmp_path):
        # one row against two: a bare np.subtract would broadcast it
        a = RunRecord(actions=[0], rewards=[1.0], cum_rewards=[1.0])
        b = RunRecord(actions=[0, 0], rewards=[1.0, 1.0], cum_rewards=[1.0, 2.0])
        for control, attacked in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="record lengths differ"):
                export_report(AttackLedger(), attacked, tmp_path / "run", control)
        assert not (tmp_path / "run").exists()  # checked before any file is written

    def test_networth_difference_needs_net_worth(self, tmp_path):
        a = RunRecord(actions=[0], rewards=[1.0], cum_rewards=[1.0])
        b = RunRecord(actions=[0], rewards=[1.0], cum_rewards=[1.0], net_worths=[100.0])
        for control, attacked in ((a, a), (a, b), (b, a)):
            columns = curves(control, attacked, tmp_path)
            assert columns["reward_diff"] == [0.0]
            for name in ("control_networth", "attacked_networth", "networth_diff"):
                assert columns[name] == [None]

    def test_final_networth_difference(self, tmp_path):
        a = RunRecord(actions=[0, 0], rewards=[0, 0], cum_rewards=[0, 0],
                      net_worths=[100.0, 110.0])
        b = RunRecord(actions=[0, 0], rewards=[0, 0], cum_rewards=[0, 0],
                      net_worths=[100.0, 90.0])
        diff = curves(a, b, tmp_path)["networth_diff"]
        assert diff[-1] == pytest.approx(a.net_worths[-1] - b.net_worths[-1])


class TestExportReport:
    def test_empty_ledger_gives_header_only_csv_and_zero_counters(self, tmp_path):
        ledger = AttackLedger()
        record = RunRecord()
        export_report(ledger, record, tmp_path)
        lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert len(lines) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["attempts"] == 0 and summary["ncn"] == 0

    def test_summary_counters_match_csv_tallies(self, bars, net, tmp_path):
        env = BasicStockEnv(bars)
        record, ledger = run_episode(net, env, 3, preset("basic-fgsm"))
        export_report(ledger, record, tmp_path, tuple_dim=env.tuple_dim)
        rows = (tmp_path / "ledger.csv").read_text().splitlines()[1:]
        outcomes = [line.split(",")[1] for line in rows]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["eligible"] == len(rows)
        attempt_kinds = ("success", "partial", "non_target", "failure")
        assert summary["attempts"] == sum(outcomes.count(k) for k in attempt_kinds)
        assert summary["ncn"] == outcomes.count("ncn")
        assert summary["skipped"] == outcomes.count("skipped")

    def test_files_have_these_exact_bytes(self, tmp_path):
        orig = np.array([0.5, -0.25, 0.125])
        ledger = AttackLedger([
            LedgerRow(t=0, outcome="success", action=1, induced=2, eps=0.001, l2=0.0625,
                      orig_tuple=orig, pert_tuple=np.array([0.5, -0.5, 0.1])),
            LedgerRow(t=1, outcome="failure", action=0, induced=0, eps=0.001, l2=0.0,
                      orig_tuple=orig, pert_tuple=None),
            LedgerRow(t=2, outcome="ncn", action=2, induced=None, eps=None, l2=None,
                      orig_tuple=orig, pert_tuple=None),
            LedgerRow(t=3, outcome="delay", action=0, induced=1, eps=None, l2=None,
                      orig_tuple=orig, pert_tuple=None),  # the episode's first step
            LedgerRow(t=4, outcome="delay", action=1, induced=1, eps=None, l2=None,
                      orig_tuple=orig, pert_tuple=np.array([1.0, 2.0, -3.0])),
        ])
        attacked = RunRecord(actions=[1, 0], rewards=[0.1, 0.2],
                             cum_rewards=[0.1, 0.30000000000000004], net_worths=[100.0, 99.5])
        control = RunRecord(actions=[2, 2], rewards=[0.25, -0.5], cum_rewards=[0.25, -0.25],
                            net_worths=[101.0, 100.25])
        export_report(ledger, attacked, tmp_path / "worth", control)
        no_worth = RunRecord(actions=[0, 1], rewards=[1.5, -1.0], cum_rewards=[1.5, 0.5])
        no_worth_control = RunRecord(actions=[0, 0], rewards=[0.0, 0.0], cum_rewards=[0.0, 0.0])
        export_report(AttackLedger(), no_worth, tmp_path / "no_worth", no_worth_control)
        expected = {
            "worth/ledger.csv":
                b"t,outcome,a,a_prime,eps,l2,orig_0,orig_1,orig_2,pert_0,pert_1,pert_2\r\n"
                b"0,success,1,2,0.001,0.0625,0.5,-0.25,0.125,0.5,-0.5,0.1\r\n"
                b"1,failure,0,0,0.001,0.0,0.5,-0.25,0.125,,,\r\n"
                b"2,ncn,2,,,,0.5,-0.25,0.125,,,\r\n"
                b"3,delay,0,1,,,0.5,-0.25,0.125,,,\r\n"
                b"4,delay,1,1,,,0.5,-0.25,0.125,1.0,2.0,-3.0\r\n",
            "worth/record.csv":
                b"t,action,reward,cum_reward,net_worth\r\n"
                b"0,1,0.1,0.1,100.0\r\n"
                b"1,0,0.2,0.30000000000000004,99.5\r\n",
            "worth/curves.csv":
                b"t,control_cum_reward,attacked_cum_reward,reward_diff,"
                b"control_networth,attacked_networth,networth_diff\r\n"
                b"0,0.25,0.1,0.15,101.0,100.0,1.0\r\n"
                b"1,-0.25,0.30000000000000004,-0.55,100.25,99.5,0.75\r\n",
            "worth/summary.json":
                b'{\n "attempts": 2,\n "control_final_networth": 100.25,\n'
                b' "control_total_reward": -0.25,\n "eligible": 5,\n "failures": 1,\n'
                b' "final_networth": 99.5,\n "ncn": 1,\n "non_target": 0,\n "partial": 0,\n'
                b' "skipped": 0,\n "successes": 1,\n "total_reward": 0.30000000000000004\n}',
            "no_worth/ledger.csv":
                b"t,outcome,a,a_prime,eps,l2,orig_0,orig_1,orig_2,pert_0,pert_1,pert_2\r\n",
            "no_worth/record.csv":
                b"t,action,reward,cum_reward,net_worth\r\n"
                b"0,0,1.5,1.5,\r\n"
                b"1,1,-1.0,0.5,\r\n",
            "no_worth/curves.csv":
                b"t,control_cum_reward,attacked_cum_reward,reward_diff,"
                b"control_networth,attacked_networth,networth_diff\r\n"
                b"0,0.0,1.5,-1.5,,,\r\n"
                b"1,0.0,0.5,-0.5,,,\r\n",
        }
        for name, content in expected.items():
            assert (tmp_path / name).read_bytes() == content, name

    def test_re_export_is_byte_identical(self, bars, net, tmp_path):
        env = BasicStockEnv(bars)
        record, ledger = run_episode(net, env, 13, preset("basic-cw", chance=0.2))
        control = run_episode(net, env, 13)[0]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        export_report(ledger, record, dir_a, control)
        export_report(ledger, record, dir_b, control)
        for name in ("ledger.csv", "record.csv", "summary.json", "curves.csv"):
            digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
            assert digest(dir_a / name) == digest(dir_b / name)


class TestSweep:
    def test_sweep_writes_all_runs(self, bars, net, tmp_path):
        jobs = [("fgsm-c0.5-s1", preset("basic-fgsm", chance=0.5), 1),
                ("control-s1", None, 1),
                ("fgsm-c1-s1", preset("basic-fgsm", chance=1.0), 1)]
        summaries = run_sweep(net, BasicStockEnv(bars), jobs, tmp_path / "a")
        assert sorted(summaries) == sorted(j[0] for j in jobs)
        for name, _, _ in jobs:
            assert (tmp_path / "a" / name / "summary.json").is_file()
        assert (tmp_path / "a" / "fgsm-c0.5-s1" / "curves.csv").is_file()
        assert (tmp_path / "a" / "fgsm-c1-s1" / "curves.csv").is_file()
        control_first = [jobs[1], jobs[0], jobs[2]]
        run_sweep(net, BasicStockEnv(bars), control_first, tmp_path / "b")
        for name, _, _ in jobs:
            for path in sorted((tmp_path / "a" / name).iterdir()):
                assert path.read_bytes() == (tmp_path / "b" / name / path.name).read_bytes()

    def test_bad_config_rejected_before_any_episode(self):
        # a config is checked when it is built, so no sweep job can hold a bad one
        with pytest.raises(AttackError, match="chance"):
            replace(preset("basic-fgsm"), chance=2.0)

    def test_reused_managed_env_matches_fresh_env(self, bars):
        reused = ManagedRiskEnv(bars, episode_cap=60)
        net = QNetwork.initialize([reused.observation_dim, 16, reused.n_actions],
                                  np.random.default_rng(11))
        config = preset("managed-fgsm", chance=0.5)
        traded = set()
        for seed in (3, 8, 3, 21):
            for attack in (None, config):
                fresh_record, fresh_ledger = run_episode(
                    net, ManagedRiskEnv(bars, episode_cap=60), seed, attack)
                record, ledger = run_episode(net, reused, seed, attack)
                assert record.actions == fresh_record.actions
                assert record.rewards == fresh_record.rewards
                assert record.net_worths == fresh_record.net_worths
                assert ledger.counters() == fresh_ledger.counters()
                assert [(r.outcome, r.action, r.induced, r.l2) for r in ledger.rows] == \
                    [(r.outcome, r.action, r.induced, r.l2) for r in fresh_ledger.rows]
                traded.update(reused.action_types[a] for a in record.actions)
        assert {"buy", "sell"} <= traded  # episodes leave portfolio and order state behind

    def test_summary_dict_carries_totals(self, bars, net, tmp_path):
        env = BasicStockEnv(bars)
        record, ledger = run_episode(net, env, 2, preset("basic-fgsm"))
        control = run_episode(net, env, 2)[0]
        summary = export_report(ledger, record, tmp_path, control)
        assert summary == json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_reward"] == record.total_reward
        assert summary["control_total_reward"] == control.total_reward
        assert summary["final_networth"] is None
