import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefool.dqn import Transition
from tradefool.qnet import (
    Batch,
    GradientBundle,
    QNetError,
    QNetwork,
    _forward_cached,
    _rival,
    attack_loss_value,
    forward,
    input_gradient,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    sync_target,
    target_bootstraps,
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


AGENT_SIZES = [[32, 64, 64, 3], [60, 16, 16, 181]]  # the stored benchmark agents' shapes


@st.composite
def nets_and_states(draw):
    """A net of random layer widths (1-200) or a stored agent's shape, with
    random biases, and 20 states on one of three scales."""
    sizes = draw(st.sampled_from(AGENT_SIZES)
                 | st.lists(st.integers(1, 200), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = QNetwork.initialize(sizes, rng)
    for b in net.biases:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    return net, rng.normal(size=(20, net.input_dim)) * scale


class TestForward:
    @settings(max_examples=100, deadline=None)
    @given(case=nets_and_states())
    def test_a_one_row_batch_has_the_bytes_of_a_state(self, case):
        # the attack driver forwards the rows projection moved as one batch,
        # however few, so a lone row must get the bytes of the 1-D pass
        net, states = case
        for x in states:
            assert forward(net, x[None])[0].tobytes() == forward(net, x).tobytes()

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

    def test_given_bootstraps_replace_the_target_pass(self):
        rng = np.random.default_rng(4)
        net, target = (QNetwork.initialize([3, 5, 2], rng) for _ in range(2))
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(2, size=6), rng.normal(size=6),
                      rng.normal(size=(6, 3)), rng.random(6) < 0.5)
        passed = td_loss(net, target, batch, 0.9)
        given = td_loss(net, zero_net([3, 2]), batch, 0.9, None,
                        target_bootstraps(target, batch.next_states, batch.terminal, 0.9))
        assert given.loss == passed.loss and given.flat.tobytes() == passed.flat.tobytes()
        with pytest.raises(QNetError, match=r"\(5,\) bootstraps for a batch of 6 rows"):
            td_loss(net, target, batch, 0.9, None, np.zeros(5))

    @pytest.mark.parametrize("action", [2, -1])
    def test_rejects_an_action_outside_the_network(self, action):
        # Q is read at flat (row, action) offsets, where row 0's action 2 is row 1's 0
        net = zero_net([1, 2])
        batch = [Transition(np.zeros(1), action, 0.0, np.zeros(1), True),
                 Transition(np.zeros(1), 0, 0.0, np.zeros(1), True)]
        with pytest.raises(ValueError, match="invalid entry"):
            td_loss(net, net.clone(), batch, 0.5)


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


def reference_sgd_step(net, weight_grads, bias_grads, learning_rate):
    """The per-array update that the one flat-vector update replaced."""
    for w, gw in zip(net.weights, weight_grads):
        w -= learning_rate * gw
    for b, gb in zip(net.biases, bias_grads):
        b -= learning_rate * gb


def reference_sync_target(net, target):
    for tw, w in zip(target.weights, net.weights):
        tw[...] = w
    for tb, b in zip(target.biases, net.biases):
        tb[...] = b


def list_layout(net):
    """A copy of ``net`` as separate weight and bias arrays, sharing no memory."""
    return SimpleNamespace(weights=[w.copy() for w in net.weights],
                           biases=[b.copy() for b in net.biases])


# the two benchmark agents' shapes and a small net
BIT_IDENTITY_SIZES = [[32, 64, 64, 3], [60, 16, 16, 181], [5, 7, 4]]


class TestBitIdentity:
    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    @pytest.mark.parametrize("loss_spec", ["cross_entropy", "lead_margin", "deficit_margin"])
    def test_input_gradient_matches_full_backprop(self, sizes, loss_spec):
        rng = np.random.default_rng(sizes[0] * 1000 + sizes[-1])
        for _ in range(4):
            net = QNetwork.initialize(sizes, rng)
            for b in net.biases:
                b[...] = rng.normal(scale=0.1, size=b.shape)
            for _ in range(60):
                x = rng.normal(size=net.input_dim) * rng.choice([1e-3, 1.0, 10.0])
                action = int(rng.integers(net.n_actions))
                assert np.array_equal(input_gradient(net, x, loss_spec, action),
                                      reference_input_gradient(net, x, loss_spec, action))

    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    @pytest.mark.parametrize("loss_spec", ["cross_entropy", "lead_margin", "deficit_margin"])
    def test_input_gradient_from_given_activations(self, sizes, loss_spec):
        rng = np.random.default_rng(sizes[0] * 1000 + sizes[-1] + 1)
        for _ in range(4):
            net = QNetwork.initialize(sizes, rng)
            for b in net.biases:
                b[...] = rng.normal(scale=0.1, size=b.shape)
            for _ in range(60):
                x = rng.normal(size=net.input_dim) * rng.choice([1e-3, 1.0, 10.0])
                action = int(rng.integers(net.n_actions))
                given = input_gradient(net, x, loss_spec, action,
                                       activations=_forward_cached(net, x))
                assert given.tobytes() == input_gradient(net, x, loss_spec, action).tobytes()
        activations = _forward_cached(net, x)  # given activations skip no check
        with pytest.raises(QNetError):
            input_gradient(net, x, loss_spec, net.n_actions, activations)
        with pytest.raises(QNetError):
            input_gradient(net, x[:-1], loss_spec, 0, activations)
        with pytest.raises(QNetError):
            input_gradient(net, x, "hinge", 0, activations)

    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    def test_forward_matches_cached_forward(self, sizes):
        rng = np.random.default_rng(sizes[1])
        net = QNetwork.initialize(sizes, rng)
        for b in net.biases:
            b[...] = rng.normal(scale=0.1, size=b.shape)
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

    @pytest.mark.parametrize("sizes", BIT_IDENTITY_SIZES)
    def test_training_matches_list_layout(self, sizes):
        rng = np.random.default_rng(sizes[0] + sizes[-1])
        net = QNetwork.initialize(sizes, rng)
        for b in net.biases:
            b[...] = rng.normal(scale=0.1, size=b.shape)
        target = net.clone()
        ref, ref_target = list_layout(net), list_layout(target)
        initial = net.params.copy()
        bundle = None  # one bundle for every update, as in dqn.train
        for step in range(1, 2001):
            n = int(rng.integers(1, 33))
            batch = Batch(rng.normal(size=(n, net.input_dim)),
                          rng.integers(net.n_actions, size=n).astype(np.intp),
                          rng.normal(size=n), rng.normal(size=(n, net.input_dim)),
                          rng.random(n) < 0.1)
            bundle = td_loss(net, target, batch, 0.99, bundle)
            sgd_step(net, bundle, 1e-3)
            loss, weight_grads, bias_grads = reference_td_grads(
                ref, ref_target, [Transition(*row) for row in zip(*batch)], 0.99)
            reference_sgd_step(ref, weight_grads, bias_grads, 1e-3)
            assert bundle.loss == loss
            if step % 100 == 0:
                sync_target(net, target)
                reference_sync_target(ref, ref_target)
        assert np.abs(net.params - initial).max() > 1e-3  # the updates did move the net
        for got, want in zip(net.weights + net.biases + target.weights + target.biases,
                             ref.weights + ref.biases + ref_target.weights + ref_target.biases):
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


def hand_nets(tmp_path):
    """One net made each way a net is made: initialize, clone, load_checkpoint
    and by hand."""
    initialized = QNetwork.initialize([5, 7, 4, 3], np.random.default_rng(8))
    save_checkpoint(initialized, tmp_path / "ckpt.json")
    return [initialized, initialized.clone(), load_checkpoint(tmp_path / "ckpt.json")[0],
            zero_net([4, 6, 2]), linear_net([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])]


class TestFlatLayout:
    def test_views_share_the_params_vector(self, tmp_path):
        for net in hand_nets(tmp_path):
            arrays = net.weights + net.biases
            assert [w.shape for w in net.weights] == list(zip(net.sizes[:-1], net.sizes[1:]))
            assert [b.shape for b in net.biases] == [(n,) for n in net.sizes[1:]]
            assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
            assert np.array_equal(net.params, np.concatenate([a.ravel() for a in arrays]))
            assert all(np.shares_memory(a, net.params) for a in arrays)
            net.biases[-1][...] = 7.0
            assert np.all(net.params[-net.n_actions:] == 7.0)

    def test_hand_construction_copies_its_arrays(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        net = QNetwork(sizes=[2, 3], weights=[w], biases=[b])
        assert not np.shares_memory(net.params, w) and not np.shares_memory(net.params, b)

    def test_sync_and_clone_share_no_memory(self, tmp_path):
        for net in hand_nets(tmp_path):
            target = zero_net(net.sizes)
            sync_target(net, target)
            for other in (target, net.clone()):
                assert np.array_equal(other.params, net.params)
                assert not any(np.shares_memory(a, b)
                               for a in [other.params, *other.weights, *other.biases]
                               for b in [net.params, *net.weights, *net.biases])

    def test_list_bundle_is_packed(self):
        bundle = GradientBundle(0.0, [np.ones((2, 3))], [np.full(3, 2.0)])
        assert bundle.flat.tolist() == [1.0] * 6 + [2.0] * 3
        assert all(np.shares_memory(g, bundle.flat)
                   for g in bundle.weight_grads + bundle.bias_grads)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_gradient_in_any_layer_raises(self, bad):
        rng = np.random.default_rng(4)
        net = QNetwork.initialize([5, 7, 4, 3], rng)
        batch = [Transition(rng.normal(size=5), 1, 0.5, rng.normal(size=5), False)]
        for layer in range(2 * len(net.weights)):
            bundle = td_loss(net, net.clone(), batch, 0.9)
            layer_grads = (bundle.weight_grads + bundle.bias_grads)[layer]
            layer_grads.flat[int(rng.integers(layer_grads.size))] = bad
            with pytest.raises(QNetError, match="non-finite"):
                sgd_step(net.clone(), bundle, 1e-3)

    def test_bundle_of_the_wrong_size_rejected(self):
        net = zero_net([2, 4])
        for weights, biases in (([np.zeros((2, 3))], [np.zeros(3)]),
                                ([np.zeros((2, 4))], []),
                                ([np.zeros((2, 4)), np.zeros((4, 1))], [np.zeros(4), np.zeros(1)])):
            with pytest.raises(QNetError, match="gradients for 12 parameters"):
                sgd_step(net, GradientBundle(0.0, weights, biases), 0.1)


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

    @pytest.mark.parametrize("entry", ["10" + "0" * 400, "{}"], ids=["1e400_integer", "object"])
    @pytest.mark.parametrize("array", ["weights", "biases"])
    def test_rejects_entries_that_are_not_float64_numbers(self, tmp_path, array, entry):
        # each once raised OverflowError or TypeError, which the CLI exits 2 on
        net = QNetwork.initialize([2, 3], np.random.default_rng(11))
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        payload = json.loads(path.read_text())
        entries = payload[array][0]
        (entries[0] if array == "weights" else entries)[0] = "ENTRY"
        path.write_text(json.dumps(payload).replace('"ENTRY"', entry))
        with pytest.raises(QNetError, match="must be float64 numbers"):
            load_checkpoint(path)
