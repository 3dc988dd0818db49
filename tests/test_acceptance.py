"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single ``ACCEPTANCE n (<name>): PASS`` line (run with ``pytest -s`` to see
them; on failure pytest reports the assertion instead).

The two statistical criteria train real agents with the stock
hyperparameter presets on seeded synthetic markets; the market parameters
(volatility 5%/bar, one-bar mean reversion, upward drift) are sized so that
plain-SGD training converges. The attack epsilon ladder is rescaled to this
market's feature magnitudes; the stock ladder suits minute bars moving two
orders of magnitude less per bar.
"""

import functools
import hashlib
import json
import time

import numpy as np
import pytest
import scipy.stats as st

from tradefool.attacks import project_constraints, run_perturbation_attack, validate_relative_tuple
from tradefool.cli import main as cli_main
from tradefool.dqn import TrainerConfig, Transition, train
from tradefool.envs import BasicStockEnv, ManagedRiskEnv, build_action_table
from tradefool.harness import run_episode, write_ledger_csv
from tradefool.market_data import macd, rsi, synthesize_bars, write_bars_csv
from tradefool.presets import attack as preset
from tradefool.qnet import (
    QNetwork,
    attack_loss_value,
    input_gradient,
    sgd_step,
    td_loss,
)

from test_attacks import (
    REFERENCE_PERTURBED_TUPLES,
    boundary_adjacent_problem,
    grid_minimal_flip,
)
from test_market_data import brute_force_ema, brute_force_rsi


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------- fixtures

BASIC_MARKET = dict(n_bars=50_000, drift=1e-4, volatility=0.05, momentum=-0.5, seed=11)
BASIC_TRAIN_SEED = 0
# FGSM ladder scaled to the synthetic market's 5%-per-bar feature magnitudes
# (the stock 1e-4..1e-3 ladder targets minute bars two orders smaller)
BASIC_FGSM = dict(eps_start=5e-3, eps_end=5e-2)
EVAL_SEEDS = range(5000, 5020)

MANAGED_MARKET = dict(n_bars=12_000, drift=2e-4, volatility=0.01, momentum=-0.3,
                      seed=77, start_price=1000.0, bar_seconds=3600)
MANAGED_TRAIN_SEED = 3
MANAGED_EVAL_SEEDS = range(9000, 9020)


@pytest.fixture(scope="session")
def basic_agent():
    bars = synthesize_bars(**BASIC_MARKET)
    env = BasicStockEnv(bars, commission_pct=0.1)
    config = TrainerConfig(total_timesteps=100_000, gamma=0.99, learning_rate=1e-4,
                           buffer_capacity=100_000, learning_starts=1000,
                           target_sync_every=1000, epsilon_initial=1.0,
                           epsilon_final=0.02, epsilon_decay_fraction=0.1)
    started = time.monotonic()
    net, _ = train(env, config, seed=BASIC_TRAIN_SEED)
    return net, env, time.monotonic() - started


@pytest.fixture(scope="session")
def managed_agent():
    bars = synthesize_bars(**MANAGED_MARKET)
    env = ManagedRiskEnv(bars)
    config = TrainerConfig(total_timesteps=25_000, gamma=0.9999, learning_rate=1e-5,
                           buffer_capacity=1000, learning_starts=1000,
                           target_sync_every=1000, epsilon_initial=0.9,
                           epsilon_final=0.05, epsilon_decay_fraction=None,
                           epsilon_decay_interval=200, clip_rewards=True,
                           hidden_sizes=(16, 16))
    net, _ = train(env, config, seed=MANAGED_TRAIN_SEED)
    return net, env


# ---------------------------------------------------------------- criteria

@criterion(1, "gradient correctness")
def test_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    h = 1e-5

    def close(analytic, numeric):
        return abs(analytic - numeric) <= 1e-4 * max(abs(analytic), abs(numeric)) + 1e-8

    for trial in range(50):
        sizes = [int(rng.integers(1, 17))]
        for _ in range(int(rng.integers(1, 3))):  # <= 3 layers total
            sizes.append(int(rng.integers(2, 17)))
        sizes.append(int(rng.integers(2, 5)))
        net = QNetwork.initialize(sizes, rng)
        state = rng.normal(size=sizes[0])
        action = int(rng.integers(sizes[-1]))
        for loss_spec in ("cross_entropy", "lead_margin", "deficit_margin"):
            analytic = input_gradient(net, state, loss_spec, action)
            for i in range(state.size):
                plus, minus = state.copy(), state.copy()
                plus[i] += h
                minus[i] -= h
                numeric = (attack_loss_value(net, plus, loss_spec, action)
                           - attack_loss_value(net, minus, loss_spec, action)) / (2 * h)
                assert close(analytic[i], numeric), (trial, loss_spec, i)
        # parameter gradients through the TD loss
        target = net.clone()
        batch = [Transition(rng.normal(size=sizes[0]), int(rng.integers(sizes[-1])),
                            float(rng.normal()), rng.normal(size=sizes[0]),
                            bool(rng.integers(2))) for _ in range(4)]
        bundle = td_loss(net, target, batch, 0.9)
        for layer in range(len(net.weights)):
            flat = net.weights[layer].ravel()
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                loss_plus = td_loss(net, target, batch, 0.9).loss
                flat[idx] = keep - h
                loss_minus = td_loss(net, target, batch, 0.9).loss
                flat[idx] = keep
                numeric = (loss_plus - loss_minus) / (2 * h)
                assert close(bundle.weight_grads[layer].ravel()[idx], numeric)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


@criterion(2, "action-space count")
def test_action_table_sizes():
    table = build_action_table((0.02, 0.04, 0.06), (0.01, 0.02, 0.03), 10)
    assert len(table) == 181
    fractions = sorted({a.fraction for a in build_action_table((0.02,), (0.01,), 3)[1:]})
    assert np.allclose(fractions, [0.333, 0.666, 0.999], atol=1e-12)


@criterion(3, "constraint validator on reference samples")
def test_constraint_validator_and_projector():
    for sample in REFERENCE_PERTURBED_TUPLES:
        assert validate_relative_tuple(sample), sample
    spec = preset("basic-fgsm").spec
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        high = rng.uniform(0, 0.01)
        low = -rng.uniform(0, 0.01)
        behavior = rng.integers(3)
        close = high if behavior == 0 else (low if behavior == 1 else
                                            rng.uniform(low, high))
        original = np.array([high, low, close])
        candidate = rng.uniform(-0.02, 0.02, size=3)
        once = project_constraints(candidate, original, spec)
        assert np.array_equal(project_constraints(once, original, spec), once)


@criterion(4, "TD-target oracle and descent")
def test_td_target_value_and_monotone_descent():
    # y = 1 + 0.99 * 2 = 2.98 against Q(s,a) = 0: loss (2.98)^2
    net = QNetwork(sizes=[1, 2], weights=[np.zeros((1, 2))], biases=[np.zeros(2)])
    target = QNetwork(sizes=[1, 2], weights=[np.array([[2.0, 0.0]])], biases=[np.zeros(2)])
    batch = [Transition(np.zeros(1), 0, 1.0, np.ones(1), False)]
    assert abs(td_loss(net, target, batch, 0.99).loss - 2.98**2) < 1e-12
    terminal = [Transition(np.zeros(1), 0, 1.0, np.ones(1), True)]
    assert abs(td_loss(net, target, terminal, 0.99).loss - 1.0) < 1e-12

    rng = np.random.default_rng(123)
    net = QNetwork.initialize([4, 16, 3], rng)
    frozen = QNetwork.initialize([4, 16, 3], rng)
    batch = [Transition(rng.normal(size=4), int(rng.integers(3)), float(rng.normal()),
                        rng.normal(size=4), bool(rng.integers(2))) for _ in range(8)]
    losses = []
    for _ in range(100):
        bundle = td_loss(net, frozen, batch, 0.99)
        losses.append(bundle.loss)
        sgd_step(net, bundle, 0.01)
    increases = np.diff(losses[5:])
    assert np.all(increases <= 1e-9), f"max increase {increases.max():.3g}"


@criterion(5, "C&W minimality oracle")
def test_cw_l2_within_ten_percent_of_grid_search():
    from tradefool.attacks import AttackConfig

    started = time.monotonic()
    rng = np.random.default_rng(55)
    for trial in range(20):
        d = 1 + trial % 2
        net, state = boundary_adjacent_problem(rng, d)
        minimal = grid_minimal_flip(net, state)
        assert minimal is not None
        config = AttackConfig(method="cw", cw_variant="box", cw_max_iters=800,
                              cw_lr=0.02, cw_const=0.2, constraint="none",
                              k_scale=(1.0,) * d)
        result = run_perturbation_attack(net, state, config, slice(0, d))
        assert result.outcome == "success", trial
        assert result.l2 <= 1.1 * minimal, (trial, result.l2, minimal)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"C&W oracle took {elapsed:.1f}s"


@criterion(6, "attack efficacy on the basic agent")
def test_delay_and_fgsm_reduce_reward(basic_agent):
    net, env, train_seconds = basic_agent
    started = time.monotonic()
    fgsm_config = preset("basic-fgsm", **BASIC_FGSM)
    control, delayed, attacked = [], [], []
    for seed in EVAL_SEEDS:
        control.append(run_episode(net, env, seed)[0].total_reward)
        record, _ = run_episode(net, env, seed, preset("delay"))
        delayed.append(record.total_reward)
        record, _ = run_episode(net, env, seed, fgsm_config)
        attacked.append(record.total_reward)
    p_delay = st.ttest_rel(control, delayed, alternative="greater").pvalue
    p_fgsm = st.ttest_rel(control, attacked, alternative="greater").pvalue
    assert np.mean(delayed) < np.mean(control)
    assert np.mean(attacked) < np.mean(control)
    assert p_delay < 0.05, f"delay p={p_delay:.4g}"
    assert p_fgsm < 0.05, f"fgsm p={p_fgsm:.4g}"
    elapsed = train_seconds + (time.monotonic() - started)
    assert elapsed < 15 * 60, f"criterion took {elapsed:.0f}s"


@criterion(7, "net-worth impact on the managed agent")
def test_targeted_fgsm_networth_impact(managed_agent):
    net, env = managed_agent
    config = preset("managed-fgsm", mode="targeted")
    not_better = 0
    for seed in MANAGED_EVAL_SEEDS:
        control, _ = run_episode(net, env, seed)
        record, _ = run_episode(net, env, seed, config)
        not_better += record.final_net_worth <= control.final_net_worth
    assert not_better >= 15, f"attacked net-worth <= control in only {not_better}/20"


@criterion(8, "ledger accounting")
def test_ledger_partition_and_summary_consistency(basic_agent, tmp_path):
    net, env, _ = basic_agent
    for chance in (0.1, 0.5, 1.0):
        config = preset("basic-fgsm", chance=chance, **BASIC_FGSM)
        _, ledger = run_episode(net, env, 4242, config)
        counters = ledger.counters()
        assert counters["attempts"] + counters["ncn"] + counters["skipped"] == \
            counters["eligible"]
        assert counters["attempts"] == (counters["successes"] + counters["failures"]
                                        + counters["partial"] + counters["non_target"])
        path = tmp_path / f"ledger_{chance}.csv"
        write_ledger_csv(ledger, path, tuple_dim=3)
        outcomes = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert len(outcomes) == counters["eligible"]
        for key, kinds in [("attempts", ("success", "partial", "non_target", "failure")),
                           ("ncn", ("ncn",)), ("skipped", ("skipped",)),
                           ("successes", ("success",)), ("failures", ("failure",))]:
            assert counters[key] == sum(outcomes.count(k) for k in kinds)


@criterion(9, "byte-identical reruns")
def test_cmd_attack_determinism(tmp_path):
    data = tmp_path / "bars.csv"
    write_bars_csv(synthesize_bars(800, drift=2e-4, volatility=0.02, momentum=-0.4,
                                   seed=3), data)
    train_dir = tmp_path / "train"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "trainer": {"preset": "basic", "total_timesteps": 800,
                    "learning_starts": 100, "hidden_sizes": [8]}}))
    assert cli_main(["--config", str(config), "--seed", "1", "--out", str(train_dir),
                     "train", "--data", str(data)]) == 0
    digests = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert cli_main(["--out", str(out), "attack",
                         "--checkpoint", str(train_dir / "checkpoint.json"),
                         "--data", str(data), "--preset", "basic-fgsm",
                         "--chances", "0.5,1.0", "--seeds", "0,1"]) == 0
        assert cli_main(["report", str(out)]) == 0
        tree = {}
        for path in sorted((out / "runs").rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(out))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        tree["summary_table.csv"] = hashlib.sha256(
            (out / "summary_table.csv").read_bytes()).hexdigest()
        digests.append(tree)
    assert digests[0] == digests[1]


@criterion(10, "indicator oracles")
def test_indicator_values_against_brute_force():
    closes = [42.0] * 200
    line = macd(closes)
    assert np.all(line == 0.0)

    up = [100.0 + i for i in range(120)]
    down = [400.0 - i for i in range(120)]
    assert np.all(rsi(up)[20:] == 100.0)
    assert np.all(rsi(down)[20:] == 0.0)

    alternating = [100.0 + (i % 2) for i in range(2400)]
    values = rsi(alternating)
    assert abs(np.mean(values[-1200:]) - 50.0) < 1e-9

    rng = np.random.default_rng(99)
    closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=300)))
    expected_rsi = brute_force_rsi(list(closes))
    got = rsi(closes)
    assert np.allclose(got[21:], expected_rsi[21:], atol=1e-9)
    expected_macd = (np.array(brute_force_ema(list(closes), 10))
                     - np.array(brute_force_ema(list(closes), 50)))
    line = macd(closes)
    assert np.allclose(line, expected_macd, atol=1e-9)
