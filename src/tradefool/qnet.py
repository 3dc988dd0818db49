"""Small fully connected Q-network with hand-rolled backpropagation.

Hidden layers are rectified, the output layer is linear, one Q-value per
action. Besides parameter gradients for TD training, the network exposes
analytic gradients of attack losses with respect to its *input*, which the
gradient-based observation attacks need.

Parameters live in one float64 vector, ``QNetwork.params``, and gradients in
one of the same layout, which a training run reuses for every update, so SGD
and the finiteness check are one array operation each. ``weights`` and
``biases`` are views of ``params``, every weight matrix then every bias
vector: write them in place, never rebind them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class QNetError(ValueError):
    pass


def _pack(weights, biases) -> tuple[np.ndarray, list, list]:
    """The arrays packed anew, in order, into one vector, and views of it in their shapes."""
    weights, biases = ([np.asarray(a, dtype=np.float64) for a in arrays]
                       for arrays in (weights, biases))
    flat = np.concatenate([a.ravel() for a in (*weights, *biases)] or [np.empty(0)])
    views, end = [], 0
    for a in (*weights, *biases):
        start, end = end, end + a.size
        views.append(flat[start:end].reshape(a.shape))
    return flat, views[:len(weights)], views[len(weights):]


@dataclass
class QNetwork:
    """Feedforward Q-function. ``sizes`` = [input_dim, hidden..., n_actions]."""

    sizes: list[int]
    weights: list[np.ndarray] = field(default_factory=list)  # each (fan_in, fan_out)
    biases: list[np.ndarray] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params, self.weights, self.biases = _pack(self.weights, self.biases)

    @classmethod
    def initialize(cls, sizes, rng: np.random.Generator) -> "QNetwork":
        """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise QNetError(f"bad layer sizes {sizes}")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(sizes=sizes, weights=weights, biases=biases)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def n_actions(self) -> int:
        return self.sizes[-1]

    def clone(self) -> "QNetwork":
        return QNetwork(list(self.sizes), self.weights, self.biases)

    def check_finite(self) -> None:
        if not np.isfinite(self.params).all():
            raise QNetError("non-finite network parameters")


class Batch(NamedTuple):
    """A training batch by column: row ``i`` of every array is one transition."""

    states: np.ndarray  # (n, input_dim)
    actions: np.ndarray  # (n,) intp
    rewards: np.ndarray  # (n,) float64
    next_states: np.ndarray  # (n, input_dim)
    terminal: np.ndarray  # (n,) bool


def _as_batch(batch) -> Batch:
    """``batch`` itself, or a sequence of transitions stacked by column."""
    if isinstance(batch, Batch):
        return batch
    if len(batch) == 0:
        raise QNetError("empty batch")
    return Batch(np.stack([t.state for t in batch]),
                 np.array([t.action for t in batch], dtype=np.intp),
                 np.array([t.reward for t in batch], dtype=np.float64),
                 np.stack([t.next_state for t in batch]),
                 np.array([t.terminal for t in batch], dtype=bool))


@dataclass
class GradientBundle:
    """Loss value plus gradients shaped like the parameters, as views of ``flat``."""

    loss: float
    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weight_grads, self.bias_grads = _pack(self.weight_grads, self.bias_grads)


def _forward_cached(net: QNetwork, x: np.ndarray):
    """Forward pass (one state or a batch) keeping the activations backprop needs."""
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a.dot(w)  # ndarray.dot: the same BLAS call as @, without its wrapper
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def forward(net: QNetwork, state) -> np.ndarray:
    """Q-values for one state (1-D) or a batch of states (2-D)."""
    x = np.asarray(state, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
        raise QNetError(f"state shape {x.shape} does not end in input dim {net.input_dim}")
    return _forward_cached(net, x)[-1]


def target_bootstraps(target: QNetwork, next_states: np.ndarray, terminal: np.ndarray,
                      gamma: float) -> np.ndarray:
    """gamma * max_a' Q_target(s', a') for each row of ``next_states``, 0 for a
    terminal row: the part of the TD target that is not the reward, from one
    pass of ``target`` over all the rows."""
    next_q = _forward_cached(target, next_states)[-1]  # unchecked: a wrong width fails in dot
    return gamma * next_q.max(axis=1) * (~terminal)


def td_loss(net: QNetwork, target: QNetwork, batch, gamma: float,
            grads: GradientBundle | None = None,
            bootstraps: np.ndarray | None = None) -> GradientBundle:
    """Mean squared TD error over a ``Batch`` or a sequence of transitions.

    y = r + gamma * max_a' Q_target(s', a'), or y = r for terminal rows; the
    target branch is treated as a constant. ``bootstraps``, when given, holds
    each row's ``target_bootstraps`` value (kept from an earlier pass of the
    same target, say), and ``target`` is not run; else one pass over the
    batch's next states computes them. ``grads``, a bundle an earlier call for
    ``net`` returned, is overwritten and returned instead of a new one.
    """
    if not 0.0 <= gamma <= 1.0:
        raise QNetError(f"gamma must be in [0,1], got {gamma}")
    states, actions, rewards, next_states, terminal = _as_batch(batch)
    n = len(actions)
    if n == 0:
        raise QNetError("empty batch")

    if bootstraps is None:
        bootstraps = target_bootstraps(target, next_states, terminal, gamma)
    elif np.shape(bootstraps) != (n,):
        raise QNetError(f"{np.shape(bootstraps)} bootstraps for a batch of {n} rows")
    y = rewards + bootstraps

    activations = _forward_cached(net, states)
    q = activations[-1]
    taken = np.ravel_multi_index((np.arange(n), actions), q.shape)  # checks each action
    diff = q.take(taken) - y
    loss = float(np.add.reduce(diff**2) / n)  # np.mean's own computation
    if not math.isfinite(loss):
        raise QNetError("non-finite TD loss")

    delta = np.zeros(q.shape)
    delta.put(taken, 2.0 * diff / n)
    if grads is None:  # packed from the parameters for their shapes, then overwritten
        grads = GradientBundle(loss, net.weights, net.biases)
    grads.loss = loss
    for i in range(len(net.weights) - 1, -1, -1):  # backprop dLoss/dQ into the views
        np.dot(activations[i].T, delta, out=grads.weight_grads[i])
        np.add.reduce(delta, axis=0, out=grads.bias_grads[i])
        if i > 0:
            delta = delta.dot(net.weights[i].T)
            delta *= activations[i] > 0.0
    return grads


def _softmax(q: np.ndarray) -> np.ndarray:
    e = np.exp(q - q.max())
    return e / e.sum()


def _rival(q: np.ndarray, action: int) -> int:
    """The best action other than ``action``; ties go to the lowest index."""
    if q.shape[0] < 2:
        raise QNetError("margin losses need at least two actions")
    masked = q.copy()
    masked[action] = -np.inf
    rival = int(masked.argmax())
    return rival + (rival == action)  # action 0 and every other Q is -inf


def attack_loss_value(net: QNetwork, state, loss_spec: str, action: int) -> float:
    """Scalar attack loss at a state (used by finite-difference checks)."""
    q = forward(net, np.asarray(state, dtype=np.float64))
    if loss_spec == "cross_entropy":
        return float(-np.log(_softmax(q)[action] + 1e-300))
    if loss_spec == "lead_margin":
        return float(max(0.0, q[action] - q[_rival(q, action)]))
    if loss_spec == "deficit_margin":
        return float(max(0.0, q[_rival(q, action)] - q[action]))
    raise QNetError(f"unknown loss_spec {loss_spec!r}")


def input_gradient(net: QNetwork, state, loss_spec: str, action: int,
                   activations=None) -> np.ndarray:
    """Analytic gradient of an attack loss with respect to the input.

    loss_spec:
      cross_entropy  -- -log softmax(Q)[action]
      lead_margin    -- max(0, Q[action] - best other Q)   (dethrone ``action``)
      deficit_margin -- max(0, best other Q - Q[action])   (crown ``action``)

    Only dLoss/dx is backpropagated; the weight and bias products that
    ``td_loss`` needs are skipped. ``activations``, when given, is the list
    ``_forward_cached(net, state)`` returned, and the forward pass is skipped.
    """
    x = np.asarray(state, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise QNetError(f"state shape {x.shape} != ({net.input_dim},)")
    if not 0 <= action < net.n_actions:
        raise QNetError(f"action {action} out of range")
    if activations is None:
        activations = _forward_cached(net, x)
    q = activations[-1]
    if loss_spec == "cross_entropy":
        delta = _softmax(q)
        delta[action] -= 1.0
    elif loss_spec in ("lead_margin", "deficit_margin"):
        delta = np.zeros(net.n_actions)
        rival = _rival(q, action)
        if loss_spec == "lead_margin" and q[action] - q[rival] > 0.0:
            delta[action] = 1.0
            delta[rival] = -1.0
        elif loss_spec == "deficit_margin" and q[rival] - q[action] > 0.0:
            delta[rival] = 1.0
            delta[action] = -1.0
    else:
        raise QNetError(f"unknown loss_spec {loss_spec!r}")
    for i in range(len(net.weights) - 1, 0, -1):
        delta = delta.dot(net.weights[i].T) * (activations[i] > 0.0)
    return delta.dot(net.weights[0].T)


def sgd_step(net: QNetwork, grads: GradientBundle, learning_rate: float) -> QNetwork:
    """In-place plain SGD update; returns the mutated network. The step is
    scaled in ``grads`` itself: its gradients come back times ``learning_rate``."""
    if learning_rate <= 0:
        raise QNetError(f"learning rate must be > 0, got {learning_rate}")
    if grads.flat.shape != net.params.shape:
        raise QNetError(f"{grads.flat.size} gradients for {net.params.size} parameters")
    grads.flat *= learning_rate
    net.params -= grads.flat
    net.check_finite()
    return net


def sync_target(net: QNetwork, target: QNetwork) -> QNetwork:
    """Copy net parameters into the target snapshot (in place)."""
    if net.sizes != target.sizes:
        raise QNetError(f"shape mismatch: {net.sizes} vs {target.sizes}")
    target.params[...] = net.params
    return target


CHECKPOINT_VERSION = 1


def save_checkpoint(net: QNetwork, path, meta: dict | None = None) -> None:
    """Versioned JSON checkpoint; floats round-trip bit-exactly via repr."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "sizes": net.sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)


def load_checkpoint(path) -> tuple[QNetwork, dict]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("meta", {}), dict):
        raise QNetError("a checkpoint and its meta must be JSON objects")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise QNetError(f"unsupported checkpoint version {payload.get('format_version')}")
    for key in ("sizes", "weights", "biases"):
        if not isinstance(payload.get(key), list):
            raise QNetError(f"checkpoint {key!r} must be a list")
    sizes = payload["sizes"]
    if len(sizes) < 2 or not all(type(s) is int and s >= 1 for s in sizes):
        raise QNetError(f"checkpoint sizes {sizes} must be two or more positive integers")
    try:  # JSON holds integers of any size, and objects where numbers belong
        net = QNetwork(sizes, payload["weights"], payload["biases"])
    except (OverflowError, TypeError) as exc:
        raise QNetError(f"checkpoint weights and biases must be float64 numbers: {exc}") from exc
    layers = list(zip(net.sizes[:-1], net.sizes[1:]))
    if len(net.weights) != len(layers) or len(net.biases) != len(layers):
        raise QNetError(f"checkpoint has {len(net.weights)} weight and {len(net.biases)} "
                        f"bias arrays for {len(layers)} layers of sizes {net.sizes}")
    for i, (fan_in, fan_out) in enumerate(layers):
        if net.weights[i].shape != (fan_in, fan_out) or net.biases[i].shape != (fan_out,):
            raise QNetError(f"layer {i} has weights {net.weights[i].shape} and biases "
                            f"{net.biases[i].shape}, sizes {net.sizes} need "
                            f"({fan_in}, {fan_out}) and ({fan_out},)")
    net.check_finite()
    return net, payload.get("meta", {})
