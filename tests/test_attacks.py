from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefool import attacks, qnet
from tradefool.attacks import (
    FAILURE,
    NON_TARGET,
    PARTIAL,
    SUCCESS,
    AttackConfig,
    AttackError,
    ConstraintSpec,
    classify_outcome,
    delay_attack,
    epsilon_ladder,
    least_q_target,
    project_constraints,
    run_perturbation_attack,
    validate_relative_tuple,
)
from tradefool.presets import attack as preset
from tradefool.qnet import QNetwork, forward, input_gradient

RELATIVE = preset("basic-fgsm").spec
INDICATOR = preset("managed-fgsm").spec


def linear_net(weights, biases=None):
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[1]) if biases is None else np.asarray(biases, dtype=np.float64)
    return QNetwork(sizes=[w.shape[0], w.shape[1]], weights=[w], biases=[b])


def box_spec(d, half_width=1.0):
    return ConstraintSpec(kind="box", box_low=(-half_width,) * d, box_high=(half_width,) * d)


# Reference perturbed relative-price samples; every one of them must
# satisfy the plausibility constraints the projector enforces.
REFERENCE_PERTURBED_TUPLES = [
    (0.0000, -0.0045, -0.0025),
    (0.0000, -0.0006, -0.0004),
    (0.0027, -0.0002, 0.0027),
    (0.0041, 0.0000, 0.0032),
    (0.0001, -0.0044, 0.0001),
    (0.0003, 0.0000, 0.0003),
    (0.0002, 0.0000, 0.0002),
    (0.0002, -0.0002, 0.0002),
    (0.0002, -0.0002, 0.0002),
    (0.0003, -0.0003, 0.0003),
    (0.0000, -0.0040, -0.0033),
    (0.0016, -0.0027, -0.0021),
    (0.0012, -0.0018, -0.0018),
    (0.0000, -0.0025, -0.0024),
    (0.0018, -0.0029, -0.0022),
    (0.0003, 0.0000, 0.0003),
    (0.0003, -0.0003, 0.0003),
    (0.0003, -0.0003, 0.0003),
    (0.0002, 0.0000, 0.0002),
    (0.0003, 0.0000, 0.0003),
]


class TestDelay:
    def test_identity_at_episode_start(self):
        obs = np.arange(8.0)
        served = delay_attack(obs, slice(5, 8), None)
        assert np.array_equal(served, obs)
        assert served is not obs

    def test_flat_market_is_identity(self):
        obs = np.ones(8)
        served = delay_attack(obs, slice(5, 8), np.ones(3))
        assert np.array_equal(served, obs)

    def test_most_recent_slot_replaced(self):
        # window of tuples T1..T10: the served window must end with T9's values
        obs = np.arange(30.0)
        previous = obs[24:27].copy()
        served = delay_attack(obs, slice(27, 30), previous)
        assert np.array_equal(served[27:30], previous)
        assert np.array_equal(served[:27], obs[:27])


class TestProjection:
    def test_valid_tuple_with_strictly_between_close_unchanged(self):
        original = np.array([0.001, -0.004, -0.0025])
        candidate = np.array([0.0000, -0.0045, -0.0025])
        projected = project_constraints(candidate, original, RELATIVE)
        assert np.allclose(projected, candidate, atol=1e-9)

    def test_close_matches_original_high_behavior(self):
        # original closed on its high; low above zero is clamped to zero
        original = np.array([0.002, -0.001, 0.002])
        projected = project_constraints(np.array([0.001, 0.0005, 0.002]), original, RELATIVE)
        assert np.allclose(projected, [0.001, 0.0, 0.001])

    def test_close_matches_original_low_behavior(self):
        original = np.array([0.002, -0.001, -0.001])
        projected = project_constraints(np.array([0.003, -0.004, 0.001]), original, RELATIVE)
        assert projected[2] == projected[1] == -0.004

    def test_reference_perturbed_tuples_pass_validator(self):
        for t in REFERENCE_PERTURBED_TUPLES:
            assert validate_relative_tuple(t), t

    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_on_random_tuples(self, seed):
        rng = np.random.default_rng(seed)
        high = rng.uniform(0, 0.01)
        low = -rng.uniform(0, 0.01)
        kind = rng.integers(3)
        close = high if kind == 0 else (low if kind == 1 else rng.uniform(low, high))
        original = np.array([high, low, close])
        candidate = rng.uniform(-0.02, 0.02, size=3)
        once = project_constraints(candidate, original, RELATIVE)
        twice = project_constraints(once, original, RELATIVE)
        assert np.array_equal(once, twice)
        assert validate_relative_tuple(once)

    def test_indicator_spec_clamps_rsi_only(self):
        original = np.array([0.001, 5.0, 50.0])
        projected = project_constraints(np.array([9.9, -99.0, 130.0]), original, INDICATOR)
        assert np.allclose(projected, [9.9, -99.0, 100.0])
        projected = project_constraints(np.array([0.0, 0.0, -3.0]), original, INDICATOR)
        assert projected[2] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(AttackError):
            project_constraints(np.zeros(2), np.zeros(3), RELATIVE)


class TestLeastQTarget:
    def test_picks_minimum(self):
        net = linear_net([[3.0, 1.0, 2.0]])
        assert least_q_target(net, np.ones(1)) == 1

    def test_all_equal_ties_to_zero(self):
        net = linear_net([[0.0, 0.0, 0.0]])
        assert least_q_target(net, np.ones(1)) == 0

    def test_differs_from_greedy_when_q_not_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.normal(size=4)
            if np.ptp(q) == 0:
                continue
            net = linear_net([q.tolist()])
            state = np.ones(1)
            assert least_q_target(net, state) != int(np.argmax(forward(net, state)))


TYPES = ["hold"] + ["buy"] * 3 + ["sell"] * 3


class TestClassifyOutcome:
    def test_non_targeted_any_change_is_success(self):
        assert classify_outcome(0, 1, "non_targeted") == SUCCESS
        assert classify_outcome(0, 0, "non_targeted") == FAILURE

    def test_non_targeted_same_type_is_failure_with_type_map(self):
        assert classify_outcome(1, 2, "non_targeted", action_types=TYPES) == FAILURE
        assert classify_outcome(1, 4, "non_targeted", action_types=TYPES) == SUCCESS

    def test_targeted_exact_hit(self):
        assert classify_outcome(0, 5, "targeted", target=5) == SUCCESS

    def test_targeted_same_type_partial(self):
        # target is one sell; a different sell is a partial success
        assert classify_outcome(1, 5, "targeted", target=4, action_types=TYPES) == PARTIAL

    def test_targeted_other_change_is_non_target(self):
        assert classify_outcome(0, 2, "targeted", target=5, action_types=TYPES) == NON_TARGET
        assert classify_outcome(0, 2, "targeted", target=5) == NON_TARGET

    def test_no_change_never_succeeds_even_on_target_type(self):
        assert classify_outcome(4, 4, "targeted", target=5, action_types=TYPES) == FAILURE

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
           st.sampled_from(["non_targeted", "targeted"]))
    def test_never_success_when_action_unchanged(self, original, induced, target, mode):
        outcome = classify_outcome(original, induced, mode, target=target,
                                   action_types=TYPES)
        if induced == original:
            assert outcome != SUCCESS

    def test_unknown_action_index(self):
        with pytest.raises(AttackError):
            classify_outcome(0, 99, "non_targeted", action_types=TYPES)


class TestEpsilonLadder:
    def test_geometric_endpoints(self):
        ladder = epsilon_ladder(1e-4, 1e-3, 5)
        assert ladder[0] == pytest.approx(1e-4)
        assert ladder[-1] == pytest.approx(1e-3)
        ratios = ladder[1:] / ladder[:-1]
        assert np.allclose(ratios, ratios[0])

    @pytest.mark.parametrize("start, end, n", [
        (1e-4, 1e-3, 5), (5e-3, 5e-2, 5), (0.1, 3.0, 6), (1e-4, 1e-4, 3), (2e-3, 0.9, 2)])
    def test_geomspace_values_built_once_and_read_only(self, start, end, n):
        ladder = epsilon_ladder(start, end, n)
        assert ladder.tobytes() == np.geomspace(start, end, n).tobytes()
        assert epsilon_ladder(start, end, n) is ladder
        with pytest.raises(ValueError):
            ladder[0] = 1.0

    def test_one_rung_is_the_end(self):
        ladder = epsilon_ladder(1e-4, 1e-3, 1)
        assert ladder.tolist() == [1e-3]
        with pytest.raises(ValueError):
            ladder[0] = 1.0


class TestFgsm:
    def test_zero_gradient_network_fails_with_unchanged_tuple(self):
        net = QNetwork(sizes=[3, 2], weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        config = AttackConfig(method="fgsm", constraint="none",
                              k_scale=(1.0, 1.0, 1.0))
        obs = np.array([0.3, -0.1, 0.2])
        result = run_perturbation_attack(net, obs, config, slice(0, 3))
        assert result.outcome == FAILURE
        assert np.array_equal(result.perturbed, obs)

    def test_linear_two_action_flip_hand_case(self):
        # W = [[1, -1]], x = 0.3: non-targeted step of eps=0.4 lands at -0.1
        net = linear_net([[1.0, -1.0]])
        spec_id = "none"
        config = AttackConfig(method="fgsm", eps_start=0.4, eps_end=0.4, eps_iters=1,
                              k_scale=(1.0,), constraint=spec_id)
        result = run_perturbation_attack(net, np.array([0.3]), config, slice(0, 1))
        assert result.outcome == SUCCESS
        assert result.perturbed[0] == pytest.approx(-0.1)
        assert result.induced_action == 1

    def test_ladder_stops_at_first_success(self):
        net = linear_net([[1.0, -1.0]])
        config = AttackConfig(method="fgsm", eps_start=0.1, eps_end=1.6, eps_iters=5,
                              k_scale=(1.0,), constraint="none")
        result = run_perturbation_attack(net, np.array([0.3]), config, slice(0, 1))
        assert result.outcome == SUCCESS
        # geometric ladder 0.1, 0.2, 0.4, 0.8, 1.6: first flip at 0.4
        assert result.final_eps == pytest.approx(0.4)
        assert result.iterations == 3

    def test_targeted_descends_toward_target(self):
        net = linear_net([[1.0, -1.0, 0.0]])
        config = AttackConfig(method="fgsm", mode="targeted", eps_start=0.5, eps_end=0.5,
                              eps_iters=1, k_scale=(1.0,), constraint="none")
        result = run_perturbation_attack(net, np.array([0.3]), config, slice(0, 1), target=1)
        assert result.induced_action == 1
        assert result.outcome == SUCCESS

    def test_perturbation_magnitude_bounded_before_projection(self):
        rng = np.random.default_rng(4)
        config = preset("managed-fgsm")
        k = np.array(config.k_scale)
        for _ in range(20):
            net = QNetwork.initialize([6, 8, 5], rng)
            obs = rng.normal(size=6) * np.array([0.01, 0.01, 0.01, 0.01, 2.0, 30.0])
            obs[5] = abs(obs[5])
            result = run_perturbation_attack(net, obs, config, slice(3, 6))
            unprojected_bound = config.eps_end * k + 1e-12
            # projection may only pull coordinates toward feasibility; the rsi
            # clamp never increases displacement, so the bound carries over
            assert np.all(np.abs(result.perturbed - obs[3:6]) <= unprojected_bound)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_emitted_relative_tuples_satisfy_constraints(self, seed):
        rng = np.random.default_rng(seed)
        net = QNetwork.initialize([9, 8, 3], rng)
        high = rng.uniform(0, 0.005, size=3)
        low = -rng.uniform(0, 0.005, size=3)
        close = low + rng.uniform(0, 1, size=3) * (high - low)
        obs = np.column_stack([high, low, close]).ravel()
        config = preset("basic-fgsm", mode=rng.choice(["non_targeted", "targeted"]))
        target = int(rng.integers(3)) if config.mode == "targeted" else None
        result = run_perturbation_attack(net, obs, config, slice(6, 9), target=target)
        assert validate_relative_tuple(result.perturbed)

    def test_dimension_mismatch(self):
        net = linear_net([[1.0, -1.0]])
        config = AttackConfig(method="fgsm", constraint="none", k_scale=(1.0,))
        with pytest.raises(AttackError):
            run_perturbation_attack(net, np.zeros(4), config, slice(0, 1))


def grid_minimal_flip(net, x, radius=0.04, step=1e-4):
    """Brute-force smallest action-flipping delta for a linear net."""
    original = int(np.argmax(forward(net, x)))
    axis = np.arange(-radius, radius + step / 2, step)
    if x.size == 1:
        deltas = axis[:, None]
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        deltas = np.column_stack([a.ravel(), b.ravel()])
    q = (x + deltas) @ net.weights[0] + net.biases[0]
    flips = np.argmax(q, axis=1) != original
    if not flips.any():
        return None
    return float(np.linalg.norm(deltas[flips], axis=1).min())


def boundary_adjacent_problem(rng, d):
    """A two-action linear net plus a state a known distance off the boundary."""
    w = rng.normal(size=(d, 2))
    while np.linalg.norm(w[:, 0] - w[:, 1]) < 0.3:
        w = rng.normal(size=(d, 2))
    b = rng.normal(size=2) * 0.1
    net = linear_net(w, b)
    normal = w[:, 0] - w[:, 1]
    unit = normal / np.linalg.norm(normal)
    x0 = rng.uniform(-0.3, 0.3, size=d)
    to_boundary = -(x0 @ normal + b[0] - b[1]) / (unit @ normal)
    boundary = x0 + to_boundary * unit
    x = boundary + float(np.sign(rng.normal()) or 1.0) * rng.uniform(0.003, 0.02) * unit
    return net, x


class TestCwBox:
    def test_observation_already_inducing_target_is_trivial_success(self):
        net = linear_net([[1.0, -1.0]])
        config = AttackConfig(method="cw", mode="targeted", cw_variant="box",
                              constraint="none", k_scale=(1.0,))
        result = run_perturbation_attack(net, np.array([0.5]), config, slice(0, 1), target=0)
        assert result.outcome == SUCCESS
        assert result.l2 == 0.0

    def test_zero_gradient_network_fails(self):
        net = QNetwork(sizes=[1, 2], weights=[np.zeros((1, 2))], biases=[np.zeros(2)])
        config = AttackConfig(method="cw", cw_variant="box", cw_max_iters=20,
                              constraint="none", k_scale=(1.0,))
        result = run_perturbation_attack(net, np.array([0.2]), config, slice(0, 1))
        assert result.outcome == FAILURE

    def test_tiny_constant_returns_near_zero_delta(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            net = QNetwork.initialize([2, 6, 3], rng)
            obs = rng.uniform(-0.5, 0.5, size=2)
            config = AttackConfig(method="cw", cw_variant="box", cw_const=1e-12,
                                  cw_max_iters=50, constraint="none", k_scale=(1.0, 1.0))
            result = run_perturbation_attack(net, obs, config, slice(0, 2))
            assert np.linalg.norm(result.perturbed - obs) < 1e-6

    def test_l2_within_ten_percent_of_grid_minimum(self):
        rng = np.random.default_rng(55)
        for trial in range(6):
            d = 1 + trial % 2
            net, x = boundary_adjacent_problem(rng, d)
            minimal = grid_minimal_flip(net, x)
            assert minimal is not None
            spec_name = f"_test_box_{d}"
            from tradefool import attacks as attacks_module
            attacks_module.CONSTRAINT_SPECS[spec_name] = box_spec(d)
            config = AttackConfig(method="cw", cw_variant="box", cw_max_iters=800,
                                  cw_lr=0.02, cw_const=0.2, constraint=spec_name,
                                  k_scale=(1.0,) * d)
            result = run_perturbation_attack(net, x, config, slice(0, d))
            assert result.outcome == SUCCESS
            assert result.l2 <= 1.1 * minimal


class TestCwScaled:
    def test_zero_gradient_fails(self):
        net = QNetwork(sizes=[3, 2], weights=[np.zeros((3, 2))], biases=[np.zeros(2)])
        config = AttackConfig(method="cw", cw_variant="scaled", cw_max_iters=10,
                              constraint="indicator", k_scale=(0.01, 1.0, 1.0))
        obs = np.array([0.001, 1.0, 50.0])
        result = run_perturbation_attack(net, obs, config, slice(0, 3))
        assert result.outcome == FAILURE
        assert np.array_equal(result.perturbed, obs)

    def test_delta_within_step_budget_envelope(self):
        # |delta_d| <= eps * k_d * max_iters * lr, also after the rsi clamp
        rng = np.random.default_rng(9)
        config = preset("managed-cw")
        bound = (np.array(config.k_scale) * config.cw_eps * config.cw_max_iters
                 * config.cw_lr + 1e-9)
        for _ in range(10):
            net = QNetwork.initialize([6, 10, 7], rng)
            obs = rng.normal(size=6) * np.array([0.005, 0.005, 2.0, 0.005, 2.0, 20.0])
            obs[5] = abs(obs[5])
            result = run_perturbation_attack(net, obs, config, slice(3, 6))
            assert np.all(np.abs(result.perturbed - obs[3:6]) <= bound)

    def test_success_on_near_boundary_state_changes_action_type(self):
        # Q1 ("buy") leads Q3 ("sell") by 0.01 with opposite rsi slopes; a
        # small downward rsi perturbation flips the action type.
        types = ["hold", "buy", "buy", "sell", "sell"]
        weights = np.zeros((3, 5))
        weights[2, 1] = 1.0
        weights[2, 3] = -1.0
        biases = np.array([-1.0, -49.99, -2.0, 50.0, -2.0])
        net = linear_net(weights, biases)
        obs = np.array([0.0, 0.0, 50.0])
        assert int(np.argmax(forward(net, obs))) == 1
        config = preset("managed-cw")
        result = run_perturbation_attack(net, obs, config, slice(0, 3), action_types=types)
        assert result.outcome == SUCCESS
        assert types[result.induced_action] == "sell"
        assert result.perturbed[2] < 50.0


def reference_cw_l2_box(net, config, observation, tuple_slice, x_orig, k, label):
    """The box generator as it was before the fixed-point exit: always
    cw_max_iters steps. It yields no Q, so every candidate gets a forward
    pass of its own."""
    lo, hi = config.spec.box(x_orig.size)
    width = hi - lo
    x_scaled = np.clip((x_orig - lo) / width, 1e-6, 1.0 - 1e-6)
    w = np.arctanh(2.0 * x_scaled - 1.0)
    loss = "deficit_margin" if config.mode == "targeted" else "lead_margin"
    tanh_w = np.tanh(w)
    adv_scaled = (tanh_w + 1.0) / 2.0
    attacked = observation.copy()
    attacked[tuple_slice] = lo + adv_scaled * width
    for _ in range(config.cw_max_iters):
        grad = input_gradient(net, attacked, loss, label)[tuple_slice]
        grad_w = (2.0 * (adv_scaled - x_scaled) + config.cw_const * grad * width) \
            * (1.0 - tanh_w ** 2) / 2.0
        if not np.isfinite(grad_w).all():
            return
        w = w - config.cw_lr * grad_w
        tanh_w = np.tanh(w)
        adv_scaled = (tanh_w + 1.0) / 2.0
        candidate = lo + adv_scaled * width
        attacked[tuple_slice] = candidate
        yield 0.0, candidate, None


def reference_cw_scaled(net, config, observation, tuple_slice, x_orig, k, label):
    """The scaled generator as it was before the fixed-point exit: always
    cw_max_iters steps. It yields no Q, so every candidate gets a forward
    pass of its own."""
    loss = "deficit_margin" if config.mode == "targeted" else "lead_margin"
    step_cap = config.cw_lr * config.cw_eps * k
    delta = np.zeros_like(x_orig)
    attacked = observation.copy()
    for _ in range(config.cw_max_iters):
        attacked[tuple_slice] = x_orig + delta
        grad = input_gradient(net, attacked, loss, label)[tuple_slice]
        objective_grad = 2.0 * delta + config.cw_const * grad
        if not np.isfinite(objective_grad).all():
            return
        delta = delta - np.clip(step_cap * objective_grad, -step_cap, step_cap)
        yield config.cw_eps, x_orig + delta, None


REFERENCES = {"box": reference_cw_l2_box, "scaled": reference_cw_scaled}  # C&W variant: generator


def run_reference(net, observation, config, *args, **kwargs):
    """run_perturbation_attack with the C&W variant's generator replaced by
    its reference without the exit, through ``attacks.PROPOSALS``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(attacks.PROPOSALS, config.cw_variant, REFERENCES[config.cw_variant])
        return run_perturbation_attack(net, observation, config, *args, **kwargs)


def result_bytes(result):
    """Every field of a PerturbationResult, as exact bytes."""
    return (result.perturbed.dtype.str, result.perturbed.shape, result.perturbed.tobytes(),
            result.outcome, type(result.induced_action), result.induced_action,
            result.iterations, np.float64(result.final_eps).tobytes(),
            np.float64(result.l2).tobytes())


def random_cw_call(rng):
    """(net, observation, config, tuple_slice, target, action_types) drawn over
    both variants, both modes, all three constraint sets and optional action
    types. Hidden biases are pushed down so that some states have a dead
    hidden layer, where the descent reaches a fixed point."""
    window = int(rng.integers(1, 4))
    n_in, n_actions = 3 * window, int(rng.integers(2, 6))
    hidden = [int(rng.integers(2, 9)) for _ in range(rng.integers(1, 3))]
    net = QNetwork.initialize([n_in, *hidden, n_actions], rng)
    for bias in net.biases[:-1]:
        bias[:] = -rng.exponential(rng.choice([0.0, 0.01, 1.0]), size=bias.size)
    constraint = str(rng.choice(["relative_price", "indicator", "none"]))
    if constraint == "relative_price":
        high = rng.uniform(0, 0.05, window)
        low = -rng.uniform(0, 0.05, window)
        close = np.where(rng.random(window) < 0.3, high,
                         low + rng.uniform(0, 1, window) * (high - low))
        obs = np.column_stack([high, low, close]).ravel()
    elif constraint == "indicator":
        obs = np.column_stack([rng.normal(0, 0.01, window), rng.normal(0, 2, window),
                               rng.uniform(0, 100, window)]).ravel()
    else:
        obs = rng.normal(0, 0.5, n_in)
    mode = str(rng.choice(["non_targeted", "targeted"]))
    config = AttackConfig(
        method="cw", mode=mode, cw_variant=str(rng.choice(list(REFERENCES))),
        constraint=constraint, cw_max_iters=int(rng.integers(1, 40)),
        cw_lr=float(rng.choice([0.5, 0.05])), cw_const=float(rng.choice([0.1, 1.0, 10.0])),
        cw_eps=float(rng.choice([1.0, 0.01])),
        k_scale=tuple(float(k) for k in rng.choice([0.01, 0.1, 1.0], 3)))
    target = int(rng.integers(n_actions)) if mode == "targeted" else None
    types = None if rng.random() < 0.5 else \
        [str(t) for t in rng.choice(["hold", "buy", "sell"], n_actions)]
    return net, obs, config, slice(n_in - 3, n_in), target, types


def counting(monkeypatch, name):
    """A list that grows by one per call of ``attacks.<name>``."""
    calls, original = [], getattr(attacks, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(attacks, name, counted)
    return calls


class TestCwFixedPoint:
    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_dead_hidden_layer_stops_after_one_repeat(self, monkeypatch, variant, mode):
        # no weight into the hidden layer: no unit is ever active, Q is constant
        # and every margin gradient is zero
        net = QNetwork(sizes=[6, 4, 2], weights=[np.zeros((6, 4)), np.ones((4, 2))],
                       biases=[np.zeros(4), np.array([0.3, 0.1])])
        # x_orig at the centre of the "none" box, so tanh(arctanh(.)) round-trips
        # exactly and w, like delta, is fixed from the first step
        obs = np.array([0.4, -0.2, 0.7, 0.0, 0.0, 0.0])
        config = AttackConfig(method="cw", mode=mode, cw_variant=variant,
                              cw_max_iters=100, constraint="none")
        target = 1 if mode == "targeted" else None
        expected = run_reference(net, obs, config, slice(3, 6), target)
        projections = counting(monkeypatch, "project_constraints")
        gradients = counting(monkeypatch, "input_gradient")
        result = run_perturbation_attack(net, obs, config, slice(3, 6), target)
        assert len(projections) == 1  # the first iterate; the step that repeats it stops
        assert len(gradients) == 1  # the repeating step reuses the first gradient
        assert result_bytes(result) == result_bytes(expected)
        assert (result.outcome, result.iterations) == (FAILURE, 1)

    def test_box_keeps_descending_while_w_moves_under_a_repeated_candidate(self,
                                                                          monkeypatch):
        # near the box edge tanh is flat: a tiny constant margin gradient moves w
        # by a few ulps per step while the candidate repeats for several steps,
        # so the exit must compare w, not the candidate
        net = linear_net([[1.0, -1.0]])
        config = AttackConfig(method="cw", cw_variant="box", cw_const=5e-14,
                              cw_max_iters=50, constraint="none", k_scale=(1.0,))
        obs = np.array([0.99])
        expected = run_reference(net, obs, config, slice(0, 1))
        candidates = []

        def recorded(candidate, original, spec):
            candidates.append(candidate.tobytes())
            return project_constraints(candidate, original, spec)

        monkeypatch.setattr(attacks, "project_constraints", recorded)
        gradients = counting(monkeypatch, "input_gradient")
        result = run_perturbation_attack(net, obs, config, slice(0, 1))
        assert any(a == b for a, b in zip(candidates, candidates[1:]))
        assert len(candidates) == config.cw_max_iters  # every step made a candidate
        assert len(gradients) == 1  # a linear net's margin gradient never changes
        assert result_bytes(result) == result_bytes(expected)

    def test_matches_reference_without_exit(self, monkeypatch):
        rng = np.random.default_rng(2024)
        projections = counting(monkeypatch, "project_constraints")
        seen, stopped_early = set(), 0
        for _ in range(1500):
            net, obs, config, tuple_slice, target, types = random_cw_call(rng)
            expected = run_reference(net, obs, config, tuple_slice, target, types)
            projections.clear()
            result = run_perturbation_attack(net, obs, config, tuple_slice, target, types)
            assert result_bytes(result) == result_bytes(expected)
            seen.add((config.cw_variant, config.mode, config.constraint, types is None))
            # a descent that stops takes one step more than it projects candidates
            stopped_early += 0 < result.iterations and len(projections) + 1 < config.cw_max_iters
        assert len(seen) == 2 * 2 * 3 * 2
        assert stopped_early >= 150  # the exit fired, so the comparison is not vacuous


def margin_key(activations, mode, label):
    """What a C&W margin gradient depends on: the rival, whether the margin is
    active and which hidden units are; None for a Q that is not finite."""
    q = activations[-1]
    if not np.isfinite(q).all():
        return None
    rival = qnet._rival(q, label)
    margin = q[rival] - q[label] if mode == "targeted" else q[label] - q[rival]
    return rival, bool(margin > 0.0), [(a > 0.0).tobytes() for a in activations[1:-1]]


def traced_cw_call(monkeypatch, net, obs, config, tuple_slice, target=None):
    """(result, the margin key of each descent step, fresh gradients taken)."""
    forwards = []  # the generator's forward passes: step i reads the i-th one

    def recorded(net, x):
        forwards.append(qnet._forward_cached(net, x))
        return forwards[-1]

    with monkeypatch.context() as patch:
        patch.setattr(attacks, "_forward_cached", recorded)
        gradients = counting(patch, "input_gradient")
        result = run_perturbation_attack(net, obs, config, tuple_slice, target)
    label = target if config.mode == "targeted" else int(forward(net, obs).argmax())
    steps = forwards[:config.cw_max_iters]  # the last forward of a full descent has no step
    return result, [margin_key(a, config.mode, label) for a in steps], len(gradients)


def reuse_problem(rng, variant, mode):
    """A random ReLU net and C&W settings with steps large enough that the
    active units or the rival change during the descent."""
    n_actions = int(rng.integers(2, 6))
    net = QNetwork.initialize([9, *rng.integers(2, 9, rng.integers(1, 3)), n_actions], rng)
    obs = rng.normal(0, 0.5, 9)
    config = AttackConfig(method="cw", mode=mode, cw_variant=variant, constraint="none",
                          cw_max_iters=int(rng.integers(5, 40)),
                          cw_lr=float(rng.choice([0.5, 0.05])),
                          cw_const=float(rng.choice([1.0, 10.0])),
                          cw_eps=float(rng.choice([1.0, 0.1])))
    target = int(rng.integers(n_actions)) if mode == "targeted" else None
    return net, obs, config, slice(6, 9), target


class TestCwGradientReuse:
    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_matches_reference_while_the_key_changes(self, monkeypatch, variant, mode):
        rng = np.random.default_rng(41)
        changed = reused = 0
        for _ in range(60):
            net, obs, config, tuple_slice, target = reuse_problem(rng, variant, mode)
            expected = run_reference(net, obs, config, tuple_slice, target)
            result, keys, fresh = traced_cw_call(monkeypatch, net, obs, config, tuple_slice,
                                                 target)
            assert result_bytes(result) == result_bytes(expected)
            changed += fresh > 1
            reused += fresh < len(keys)
        assert changed >= 10 and reused >= 10  # both paths ran

    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_fresh_gradients_equal_key_changes(self, monkeypatch, variant, mode):
        rng = np.random.default_rng(43)
        for _ in range(60):
            _, keys, fresh = traced_cw_call(monkeypatch, *reuse_problem(rng, variant, mode))
            assert fresh == sum(a != b for a, b in zip([None, *keys], keys))

    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("variant", list(REFERENCES))
    @pytest.mark.parametrize("case", ["nan_weight", "overflow"])
    def test_non_finite_q_takes_a_fresh_gradient_every_step(self, monkeypatch, case,
                                                            variant, mode):
        rng = np.random.default_rng(31)
        net = QNetwork.initialize([9, 8, 3], rng)
        obs = relative_window(rng)
        if case == "nan_weight":  # as in TestFallbackSettings: Q and every gradient NaN
            net.weights[0][6, 0] = np.nan
        else:  # every hidden unit overflows from outside the tuple: Q is not
            net.weights[0][0, :] = 1e308  # finite, the tuple's gradient is
            obs[0] = 10.0
        config = preset("basic-cw", mode=mode, cw_variant=variant, cw_eps=0.5,
                        cw_max_iters=9)
        target = 2 if mode == "targeted" else None
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
            expected = run_reference(net, obs, config, slice(6, 9), target)
            result, keys, fresh = traced_cw_call(monkeypatch, net, obs, config, slice(6, 9),
                                                 target)
        assert result_bytes(result) == result_bytes(expected)
        assert keys == [None] * fresh
        assert fresh == (1 if case == "nan_weight" else 2)  # the overflow descent stops at step 2

    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_target_out_of_range_is_a_qnet_error(self, variant):
        rng = np.random.default_rng(5)
        net = QNetwork.initialize([9, 8, 3], rng)
        config = preset("basic-cw", mode="targeted", cw_variant=variant)
        with pytest.raises(qnet.QNetError, match="action 3 out of range"):
            run_perturbation_attack(net, relative_window(rng), config, slice(6, 9), 3)


class TestSharedForward:
    @pytest.mark.parametrize("method", ["fgsm", "box", "scaled"])
    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    def test_given_q_changes_nothing_and_saves_one_forward(self, monkeypatch, method,
                                                           mode):
        rng = np.random.default_rng(17)
        base = preset("basic-fgsm") if method == "fgsm" else \
            preset("basic-cw", cw_variant=method, cw_eps=0.01, cw_max_iters=20)
        config = replace(base, mode=mode)
        forwards = counting(monkeypatch, "forward")
        for _ in range(40):
            net = QNetwork.initialize([9, 8, 5], rng)
            obs = relative_window(rng)
            q = forward(net, obs)
            target = least_q_target(net, obs) if mode == "targeted" else None
            assert least_q_target(net, obs, q) == least_q_target(net, obs)
            forwards.clear()
            without = run_perturbation_attack(net, obs, config, slice(6, 9), target)
            n_without = len(forwards)
            forwards.clear()
            given = run_perturbation_attack(net, obs, config, slice(6, 9), target, q=q)
            assert result_bytes(given) == result_bytes(without)
            assert len(forwards) == n_without - 1

    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_cw_reuses_the_proposal_q_under_identity_projection(self, monkeypatch, variant,
                                                                mode):
        # constraint "none" returns every proposal unchanged, so each candidate
        # is classified with the Q its generator computed at the proposal
        rng = np.random.default_rng(23)
        config = AttackConfig(method="cw", mode=mode, cw_variant=variant, cw_eps=0.01,
                              cw_max_iters=20, constraint="none")
        forwards = counting(monkeypatch, "forward")
        projections = counting(monkeypatch, "project_constraints")
        for _ in range(20):
            net = QNetwork.initialize([9, 8, 5], rng)
            obs = rng.normal(0, 0.5, 9)
            q = forward(net, obs)
            target = int(rng.integers(5)) if mode == "targeted" else None
            expected = run_reference(net, obs, config, slice(6, 9), target)
            forwards.clear()
            result = run_perturbation_attack(net, obs, config, slice(6, 9), target, q=q)
            assert len(forwards) == 0
            assert result_bytes(result) == result_bytes(expected)
        assert len(projections) > 100  # candidates were classified

    @pytest.mark.parametrize("variant", list(REFERENCES))
    def test_cw_moved_candidate_gets_its_own_forward(self, monkeypatch, variant):
        def moved(candidate, original, spec):
            projections.append(1)
            return project_constraints(candidate, original, spec) + 2e-3

        rng = np.random.default_rng(29)
        config = preset("basic-cw", cw_variant=variant, cw_eps=0.01, cw_max_iters=20)
        projections = []
        monkeypatch.setattr(attacks, "project_constraints", moved)
        forwards = counting(monkeypatch, "forward")
        outcomes = set()
        for _ in range(40):
            net = QNetwork.initialize([9, 8, 5], rng)
            obs = relative_window(rng)
            q = forward(net, obs)
            expected = run_reference(net, obs, config, slice(6, 9))
            forwards.clear()
            projections.clear()
            result = run_perturbation_attack(net, obs, config, slice(6, 9), q=q)
            assert len(projections) > 0
            assert len(forwards) == len(projections)  # one per iterate
            assert result_bytes(result) == result_bytes(expected)
            outcomes.add(result.outcome)
        assert outcomes == {SUCCESS, FAILURE}


# keyed by the attack's name, which each test id carries
INVARIANT_CONFIGS = {
    "fgsm_attack": preset("basic-fgsm"),
    "cw_l2_box": preset("basic-cw", cw_max_iters=15),
    "cw_scaled": preset("basic-cw", cw_variant="scaled", cw_eps=0.01, cw_max_iters=15),
}
INDICATOR_INVARIANT_CONFIGS = {
    "fgsm_attack": preset("managed-fgsm"),
    "cw_l2_box": preset("basic-cw", constraint="indicator", cw_max_iters=15),
    "cw_scaled": preset("managed-cw", cw_max_iters=15),
}


def relative_window(rng):
    """Three (rel_high, rel_low, rel_close) tuples, close between low and high."""
    high = rng.uniform(0, 0.005, size=3)
    low = -rng.uniform(0, 0.005, size=3)
    close = low + rng.uniform(0, 1, size=3) * (high - low)
    return np.column_stack([high, low, close]).ravel()


def indicator_window(rng):
    """Three (log_return, MACD, RSI) tuples; RSI is often on a bound, where a
    step would leave [0, 100] but for the clamp."""
    rsi = np.where(rng.random(3) < 0.5, rng.choice([0.0, 100.0], size=3),
                   rng.uniform(0, 100, size=3))
    return np.column_stack([rng.normal(0, 0.01, size=3), rng.normal(0, 2, size=3),
                            rsi]).ravel()


class TestAttackInvariants:
    @staticmethod
    def check_invariants(attack, mode, seed, configs, window):
        """Run ``configs[attack]`` on a random net and window; return the
        result after checking the invariants every constraint set shares."""
        rng = np.random.default_rng(seed)
        net = QNetwork.initialize([9, 8, 3], rng)
        obs = window(rng)
        config = replace(configs[attack], mode=mode)
        target = int(rng.integers(3)) if mode == "targeted" else None
        result = run_perturbation_attack(net, obs, config, slice(6, 9), target=target)

        x_orig = obs[6:9]
        assert result.l2 == pytest.approx(np.linalg.norm(result.perturbed - x_orig),
                                          rel=1e-12, abs=1e-15)
        original = int(np.argmax(forward(net, obs)))
        if config.method == "cw" and target == original:
            # C&W: a target that is already greedy needs no perturbation
            assert (result.outcome, result.iterations, result.l2) == (SUCCESS, 0, 0.0)
        else:
            assert result.outcome == classify_outcome(original, result.induced_action,
                                                      mode, target)
        max_iters = config.eps_iters if config.method == "fgsm" else config.cw_max_iters
        assert result.iterations <= max_iters
        return result

    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("attack", list(INVARIANT_CONFIGS))
    @given(st.integers(0, 2**32 - 1))
    def test_result_invariants(self, attack, mode, seed):
        result = self.check_invariants(attack, mode, seed, INVARIANT_CONFIGS,
                                       relative_window)
        if result.outcome != FAILURE:
            assert validate_relative_tuple(result.perturbed)

    @pytest.mark.parametrize("mode", ["non_targeted", "targeted"])
    @pytest.mark.parametrize("attack", list(INDICATOR_INVARIANT_CONFIGS))
    @given(st.integers(0, 2**32 - 1))
    def test_indicator_result_invariants(self, attack, mode, seed):
        result = self.check_invariants(attack, mode, seed, INDICATOR_INVARIANT_CONFIGS,
                                       indicator_window)
        if result.outcome != FAILURE:
            assert 0.0 <= result.perturbed[2] <= 100.0



class TestFallbackSettings:
    @pytest.mark.parametrize("config", [
        preset("basic-fgsm"),
        preset("basic-cw", cw_max_iters=7),
        preset("basic-cw", cw_variant="scaled", cw_eps=0.5, cw_max_iters=9),
    ], ids=["fgsm", "box", "scaled"])
    def test_nan_weight_fails_with_the_settings_the_config_implies(self, config):
        # every Q-value and input gradient is NaN: argmax keeps picking action 0,
        # each FGSM candidate is NaN and so never kept, and C&W stops at its first
        # non-finite gradient, so the result is the fallback the config implies
        rng = np.random.default_rng(31)
        net = QNetwork.initialize([9, 8, 3], rng)
        net.weights[0][6, 0] = np.nan  # from the first coordinate of the attacked tuple
        obs = relative_window(rng)
        result = run_perturbation_attack(net, obs, config, slice(6, 9))
        if config.method == "fgsm":
            settings = (config.eps_iters, config.eps_end)
        else:
            settings = (config.cw_max_iters, 0.0 if config.cw_variant == "box" else 0.5)
        assert (result.iterations, result.final_eps) == settings
        assert (result.outcome, result.induced_action, result.l2) == (FAILURE, 0, 0.0)
        assert np.array_equal(result.perturbed, obs[6:9])

class TestPresets:
    def test_preset_configurations(self):
        basic_fgsm = preset("basic-fgsm")
        assert (basic_fgsm.eps_start, basic_fgsm.eps_end, basic_fgsm.eps_iters) == \
            (1e-4, 1e-3, 5)
        basic_cw = preset("basic-cw")
        assert (basic_cw.cw_max_iters, basic_cw.cw_lr, basic_cw.cw_const) == (100, 0.5, 0.1)
        managed_fgsm = preset("managed-fgsm")
        assert (managed_fgsm.eps_start, managed_fgsm.eps_end) == (0.1, 3.0)
        assert managed_fgsm.k_scale == (0.01, 0.01, 0.1)
        managed_cw = preset("managed-cw")
        assert managed_cw.k_scale == (0.01, 1.0, 1.0)
        assert managed_cw.cw_eps == 1.0
        assert (managed_cw.cw_lr, managed_cw.cw_max_iters) == (0.5, 100)

    def test_preset_overrides_and_validation(self):
        config = preset("basic-fgsm", mode="targeted", chance=0.5)
        assert config.mode == "targeted" and config.chance == 0.5
        with pytest.raises(AttackError):
            preset("no-such-preset")
        with pytest.raises(AttackError):
            preset("basic-fgsm", chance=1.5)
        with pytest.raises(AttackError):
            preset("basic-fgsm", seed=-1)

    def test_deterministic_results(self):
        rng = np.random.default_rng(3)
        net = QNetwork.initialize([9, 8, 3], rng)
        obs = rng.uniform(-0.003, 0.003, size=9)
        obs[6] = abs(obs[6])
        obs[7] = -abs(obs[7])
        obs[8] = (obs[6] + obs[7]) / 2
        config = preset("basic-cw")
        a = run_perturbation_attack(net, obs, config, slice(6, 9))
        b = run_perturbation_attack(net, obs, config, slice(6, 9))
        assert a.outcome == b.outcome and a.l2 == b.l2
        assert np.array_equal(a.perturbed, b.perturbed)
