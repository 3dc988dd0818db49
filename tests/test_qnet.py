import json

import numpy as np
import pytest

from tradefool.dqn import Transition
from tradefool.qnet import (
    Batch,
    GradientBundle,
    QNetError,
    QNetwork,
    _rival,
    attack_loss_value,
    forward,
    input_gradient,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    sync_target,
    td_loss,
)


def linear_net(weights, biases=None):
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[1]) if biases is None else np.asarray(biases, dtype=np.float64)
    return QNetwork(sizes=[w.shape[0], w.shape[1]], weights=[w], biases=[b])


def zero_net(sizes):
    return QNetwork(
        sizes=list(sizes),
        weights=[np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
        biases=[np.zeros(b) for b in sizes[1:]],
    )


def random_net(rng, max_units=16, max_hidden=2, n_actions=None):
    sizes = [int(rng.integers(1, max_units + 1))]
    for _ in range(int(rng.integers(1, max_hidden + 1))):
        sizes.append(int(rng.integers(2, max_units + 1)))
    sizes.append(n_actions or int(rng.integers(2, 5)))
    return QNetwork.initialize(sizes, rng)


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = zero_net([4, 8, 3])
        assert np.all(forward(net, np.ones(4)) == 0.0)

    def test_hand_matrix_product(self):
        net = linear_net([[1, 0], [0, -1]])
        assert forward(net, np.array([2.0, 3.0])).tolist() == [2.0, -3.0]

    def test_deterministic(self, rng):
        net = random_net(np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=net.input_dim)
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_dimension_mismatch(self):
        net = zero_net([4, 3])
        with pytest.raises(QNetError):
            forward(net, np.ones(5))


class TestTdLoss:
    def test_zero_loss_when_q_equals_target(self):
        # zero net, zero reward, terminal: y = 0 = Q(s,a)
        net = zero_net([2, 3])
        batch = [Transition(np.ones(2), 0, 0.0, np.ones(2), True)]
        bundle = td_loss(net, net.clone(), batch, 0.99)
        assert bundle.loss == 0.0
        assert all(np.all(g == 0) for g in bundle.weight_grads)

    def test_terminal_unit_reward(self):
        net = zero_net([2, 3])
        batch = [Transition(np.ones(2), 1, 1.0, np.ones(2), True)]
        assert td_loss(net, net.clone(), batch, 0.99).loss == pytest.approx(1.0)

    def test_bootstrapped_target_value(self):
        # y = 1 + 0.99 * 2 = 2.98, Q(s,a) = 0 -> loss 8.8804
        net = zero_net([1, 2])
        target = linear_net([[2.0, 0.0]])  # Qhat(s'=1) = (2, 0), max = 2
        batch = [Transition(np.zeros(1), 0, 1.0, np.ones(1), False)]
        assert td_loss(net, target, batch, 0.99).loss == pytest.approx(8.8804, abs=1e-12)

    def test_rejects_bad_gamma_and_empty_batch(self):
        net = zero_net([1, 2])
        with pytest.raises(QNetError, match="empty batch"):
            td_loss(net, net.clone(), [], 0.5)
        no_rows = Batch(np.zeros((0, 1)), np.zeros(0, dtype=np.intp), np.zeros(0),
                        np.zeros((0, 1)), np.zeros(0, dtype=bool))
        with pytest.raises(QNetError, match="empty batch"):
            td_loss(net, net.clone(), no_rows, 0.5)
        batch = [Transition(np.zeros(1), 0, 0.0, np.zeros(1), True)]
        with pytest.raises(QNetError):
            td_loss(net, net.clone(), batch, 1.5)


def finite_difference_input_grad(net, x, loss_spec, action, h=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (attack_loss_value(net, xp, loss_spec, action)
                   - attack_loss_value(net, xm, loss_spec, action)) / (2 * h)
    return grad


class TestInputGradient:
    def test_zero_network_zero_gradient(self):
        net = zero_net([3, 2])
        assert np.all(input_gradient(net, np.ones(3), "cross_entropy", 0) == 0.0)

    def test_two_action_linear_gradient_strictly_negative(self):
        # d/dx of -log p0 at x=0.3 is -(1 - p0) * 2 < 0
        net = linear_net([[1.0, -1.0]])
        grad = input_gradient(net, np.array([0.3]), "cross_entropy", 0)
        p0 = 1.0 / (1.0 + np.exp(-0.6))
        assert grad[0] == pytest.approx(-(1 - p0) * 2)
        assert grad[0] < 0

    @pytest.mark.parametrize("loss_spec", ["cross_entropy", "lead_margin", "deficit_margin"])
    def test_matches_finite_differences(self, loss_spec):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = random_net(rng)
            x = rng.normal(size=net.input_dim)
            action = int(rng.integers(net.n_actions))
            analytic = input_gradient(net, x, loss_spec, action)
            numeric = finite_difference_input_grad(net, x, loss_spec, action)
            for a, b in zip(analytic, numeric):
                assert abs(a - b) <= 1e-4 * max(abs(a), abs(b)) + 1e-8


# The full-backprop code that input_gradient, forward and td_loss replaced.
# The lean paths must reproduce it bit for bit, so the checks below use exact
# equality, never a tolerance.
def reference_activations(net, x):
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations


def reference_backward(net, activations, dq):
    weight_grads = [np.zeros_like(w) for w in net.weights]
    bias_grads = [np.zeros_like(b) for b in net.biases]
    delta = dq
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[i]
        weight_grads[i] = a_prev.T @ delta
        bias_grads[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
        if i > 0:
            delta = delta * (activations[i] > 0.0)
    return weight_grads, bias_grads, delta


def reference_forward(net, x):
    single = x.ndim == 1
    q = reference_activations(net, x[None, :] if single else x)[-1]
    return q[0] if single else q


def reference_input_gradient(net, x, loss_spec, action):
    activations = reference_activations(net, x[None, :])
    q = activations[-1][0]
    dq = np.zeros((1, net.n_actions))
    if loss_spec == "cross_entropy":
        e = np.exp(q - q.max())
        dq[0] = e / e.sum()
        dq[0, action] -= 1.0
    else:
        rival = int(np.argmax(np.delete(q, action)))
        rival += rival >= action
        if loss_spec == "lead_margin" and q[action] - q[rival] > 0.0:
            dq[0, action] = 1.0
            dq[0, rival] = -1.0
        elif loss_spec == "deficit_margin" and q[rival] - q[action] > 0.0:
            dq[0, rival] = 1.0
            dq[0, action] = -1.0
    return reference_backward(net, activations, dq)[2][0]


def reference_td_grads(net, target, batch, gamma):
    states = np.stack([t.state for t in batch])
    next_q = reference_forward(target, np.stack([t.next_state for t in batch]))
    actions = np.array([t.action for t in batch], dtype=np.intp)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    terminal = np.array([t.terminal for t in batch], dtype=bool)
    y = rewards + gamma * next_q.max(axis=1) * (~terminal)
    activations = reference_activations(net, states)
    rows = np.arange(len(batch))
    diff = activations[-1][rows, actions] - y
    dq = np.zeros_like(activations[-1])
    dq[rows, actions] = 2.0 * diff / len(batch)
    return float(np.mean(diff**2)), *reference_backward(net, activations, dq)[:2]


# the two benchmark agents' shapes and a small net
BIT_IDENTITY_SIZES = [[32, 64, 64, 3], [60, 16, 16, 181], [5, 7, 4]]


class TestBitIdentity:
    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    @pytest.mark.parametrize("loss_spec", ["cross_entropy", "lead_margin", "deficit_margin"])
    def test_input_gradient_matches_full_backprop(self, sizes, loss_spec):
        rng = np.random.default_rng(sizes[0] * 1000 + sizes[-1])
        for _ in range(4):
            net = QNetwork.initialize(sizes, rng)
            net.biases = [rng.normal(scale=0.1, size=b.shape) for b in net.biases]
            for _ in range(60):
                x = rng.normal(size=net.input_dim) * rng.choice([1e-3, 1.0, 10.0])
                action = int(rng.integers(net.n_actions))
                assert np.array_equal(input_gradient(net, x, loss_spec, action),
                                      reference_input_gradient(net, x, loss_spec, action))

    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    def test_forward_matches_cached_forward(self, sizes):
        rng = np.random.default_rng(sizes[1])
        net = QNetwork.initialize(sizes, rng)
        net.biases = [rng.normal(scale=0.1, size=b.shape) for b in net.biases]
        for _ in range(50):
            x = rng.normal(size=net.input_dim)
            assert np.array_equal(forward(net, x), reference_forward(net, x))
        for rows in (1, 7, 32):
            batch = rng.normal(size=(rows, net.input_dim))
            assert np.array_equal(forward(net, batch), reference_forward(net, batch))

    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    def test_td_loss_gradients_match_full_backprop(self, sizes):
        rng = np.random.default_rng(sizes[2])
        net = QNetwork.initialize(sizes, rng)
        target = QNetwork.initialize(sizes, rng)
        for batch_size in (1, 5, 32):
            batch = [Transition(rng.normal(size=net.input_dim), int(rng.integers(net.n_actions)),
                                float(rng.normal()), rng.normal(size=net.input_dim),
                                bool(rng.random() < 0.2)) for _ in range(batch_size)]
            bundle = td_loss(net, target, batch, 0.99)
            loss, weight_grads, bias_grads = reference_td_grads(net, target, batch, 0.99)
            assert bundle.loss == loss
            assert len(bundle.weight_grads) == len(bundle.bias_grads) == len(net.weights)
            for got, want in zip(bundle.weight_grads + bundle.bias_grads,
                                 weight_grads + bias_grads):
                assert got.shape == want.shape and np.array_equal(got, want)


class TestRival:
    def test_tied_rival_picks_the_gradient(self):
        # Q = (1, 3, 3, 0) at x = (1, 0); actions 1 and 2 tie but differ in
        # dQ/dx, so the gradient shows which one was taken
        net = linear_net([[1.0, 3.0, 3.0, 0.0], [0.0, 1.0, -1.0, 0.0]])
        x = np.array([1.0, 0.0])
        grad = input_gradient(net, x, "deficit_margin", 3)
        assert grad.tolist() == [3.0, 1.0]  # d(Q1 - Q3)/dx
        assert attack_loss_value(net, x, "deficit_margin", 3) == 3.0
        for spec in ("lead_margin", "deficit_margin"):
            for action in range(4):
                assert np.array_equal(input_gradient(net, x, spec, action),
                                      reference_input_gradient(net, x, spec, action))

    # ties go to the lowest index other than ``action``, as with the old
    # np.delete + offset code; the all-zero Q comes from a zero net
    @pytest.mark.parametrize("q, action, expected", [
        ([0.5, 2.0, 1.0, 2.0], 1, 3),
        ([0.5, 2.0, 1.0, 2.0], 3, 1),
        ([0.5, 2.0, 1.0, 2.0], 0, 1),
        ("zero_net", 0, 1),
        ("zero_net", 1, 0),
        ("zero_net", 2, 0),
        ("zero_net", 3, 0),
    ])
    def test_rival_skips_action_and_breaks_ties_low(self, q, action, expected):
        if q == "zero_net":
            q = forward(zero_net([2, 4]), np.ones(2))
        assert _rival(np.asarray(q, dtype=np.float64), action) == expected

    def test_all_others_minus_infinity(self):
        q = np.array([-np.inf, -np.inf, -np.inf])
        assert [_rival(q, a) for a in range(3)] == [1, 0, 0]

    def test_single_action_net_rejected(self):
        with pytest.raises(QNetError):
            _rival(np.array([1.0]), 0)


class TestSgdStep:
    def test_zero_gradients_leave_parameters(self):
        net = linear_net([[1.0, 2.0]])
        before = net.weights[0].copy()
        bundle = GradientBundle(0.0, [np.zeros((1, 2))], [np.zeros(2)])
        sgd_step(net, bundle, 0.1)
        assert np.array_equal(net.weights[0], before)

    def test_hand_update(self):
        net = linear_net([[1.0]])
        bundle = GradientBundle(0.0, [np.array([[2.0]])], [np.zeros(1)])
        sgd_step(net, bundle, 0.1)
        assert net.weights[0][0, 0] == pytest.approx(0.8)

    def test_descends_quadratic_loss(self):
        net = linear_net([[5.0]])
        target = zero_net([1, 1])
        batch = [Transition(np.ones(1), 0, 0.0, np.ones(1), True)]
        losses = []
        for _ in range(3):
            bundle = td_loss(net, target, batch, 0.9)
            losses.append(bundle.loss)
            sgd_step(net, bundle, 0.05)
        assert losses[0] > losses[1] > losses[2]


class TestSyncTarget:
    def test_outputs_match_after_sync(self, rng):
        net = random_net(np.random.default_rng(3))
        target = QNetwork.initialize(net.sizes, np.random.default_rng(4))
        sync_target(net, target)
        x = np.random.default_rng(5).normal(size=net.input_dim)
        assert np.array_equal(forward(net, x), forward(target, x))

    def test_target_frozen_after_net_update(self):
        net = linear_net([[1.0, 0.0]])
        target = linear_net([[0.0, 0.0]])
        sync_target(net, target)
        bundle = GradientBundle(0.0, [np.ones((1, 2))], [np.zeros(2)])
        sgd_step(net, bundle, 0.5)
        assert np.array_equal(target.weights[0], np.array([[1.0, 0.0]]))

    def test_idempotent(self):
        net = linear_net([[1.0, 2.0]])
        target = linear_net([[0.0, 0.0]])
        sync_target(net, target)
        once = [w.copy() for w in target.weights]
        sync_target(net, target)
        assert all(np.array_equal(a, b) for a, b in zip(once, target.weights))

    def test_shape_mismatch(self):
        with pytest.raises(QNetError):
            sync_target(zero_net([2, 3]), zero_net([2, 4]))

    def test_td_targets_reproducible_bit_for_bit_after_sync(self):
        rng = np.random.default_rng(21)
        net = random_net(np.random.default_rng(22))
        target = QNetwork.initialize(net.sizes, np.random.default_rng(23))
        sync_target(net, target)
        batch = [Transition(rng.normal(size=net.input_dim), 0, 0.5,
                            rng.normal(size=net.input_dim), False) for _ in range(4)]
        first = td_loss(net, target, batch, 0.9)
        second = td_loss(net, target, batch, 0.9)
        assert first.loss == second.loss
        for a, b in zip(first.weight_grads, second.weight_grads):
            assert a.tobytes() == b.tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = QNetwork.initialize([5, 7, 3], np.random.default_rng(11))
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, meta={"env": {"kind": "basic"}})
        loaded, meta = load_checkpoint(path)
        assert loaded.sizes == net.sizes
        assert meta == {"env": {"kind": "basic"}}
        for a, b in zip(loaded.weights, net.weights):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sizes", [[None, 3], [5.0, 3], [5.5, 3], [True, 3], [5, 0],
                                       [5], ["5", 3]])
    def test_rejects_sizes_that_are_not_positive_ints(self, tmp_path, sizes):
        net = QNetwork.initialize([5, 3], np.random.default_rng(11))
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        payload = json.loads(path.read_text())
        payload["sizes"] = sizes
        path.write_text(json.dumps(payload))
        with pytest.raises(QNetError, match="positive integers"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(QNetError):
            load_checkpoint(path)
