"""Whitebox test-time attacks on the observation channel.

All perturbation attacks touch only the most recent feature tuple of the
served observation window; the rest of the observation is masked off. Every
candidate tuple passes through a domain-constraint projector before the
induced action is evaluated, so emitted perturbations stay plausible
(non-negative relative highs, non-positive relative lows, close bounded
between them and matching the true close's behavior; RSI clamped to
[0, 100] for indicator tuples).

Attack families:
  delay      -- serve the tuple from t-1 in the most recent slot (DoS).
  fgsm       -- single-step sign-of-gradient perturbations tried along an
                increasing epsilon ladder, per-dimension scale factors k_d.
  cw (box)   -- Carlini-Wagner L2 in a tanh-reparameterized [0,1] box.
  cw (scaled)-- the same objective optimized directly in original units with
                per-dimension steps capped at lr * eps * k_d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qnet import QNetwork, _forward_cached, forward, input_gradient

SUCCESS = "success"
PARTIAL = "partial"
NON_TARGET = "non_target"
FAILURE = "failure"

_PRIORITY = {FAILURE: 0, NON_TARGET: 1, PARTIAL: 2, SUCCESS: 3}

CLOSE_MARGIN = 1e-9  # strictly-between nudge for the projected relative close


class AttackError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSpec:
    """Domain rules for a feature tuple plus the affine box used to map the
    tuple into [0,1] for the tanh-box attack."""

    kind: str  # "relative_price" | "indicator" | "box" | "none"
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]

    def box(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.box_low, dtype=np.float64)
        hi = np.asarray(self.box_high, dtype=np.float64)
        if lo.size == 1:
            lo = np.full(dim, lo[0])
            hi = np.full(dim, hi[0])
        if lo.size != dim:
            raise AttackError(f"constraint box is {lo.size}-dimensional, tuple is {dim}")
        if np.any(hi <= lo):
            raise AttackError("constraint box must have positive width")
        return lo, hi


CONSTRAINT_SPECS = {
    "relative_price": ConstraintSpec(
        kind="relative_price", box_low=(-0.05, -0.05, -0.05), box_high=(0.05, 0.05, 0.05)),
    "indicator": ConstraintSpec(
        kind="indicator", box_low=(-0.5, -100.0, 0.0), box_high=(0.5, 100.0, 100.0)),
    "none": ConstraintSpec(kind="none", box_low=(-1.0,), box_high=(1.0,)),
}


def project_constraints(candidate, original, spec: ConstraintSpec) -> np.ndarray:
    """Project a perturbed tuple back into the declared feasible set.

    relative_price: rel_high >= 0, rel_low <= 0, and the close matches the
    original close's behavior (equal to high, equal to low, or strictly
    between). indicator: RSI coordinate clamped to [0, 100]. box: clamp to
    the spec's box. none: identity. Idempotent for a fixed original.
    """
    cand = np.asarray(candidate, dtype=np.float64).copy()
    orig = np.asarray(original, dtype=np.float64)
    if cand.shape != orig.shape:
        raise AttackError(f"shape mismatch {cand.shape} vs {orig.shape}")
    if spec.kind == "none":
        return cand
    if spec.kind == "box":
        lo, hi = spec.box(cand.size)
        return np.clip(cand, lo, hi)
    if spec.kind == "indicator":
        cand[2] = min(max(cand[2], 0.0), 100.0)
        return cand
    if spec.kind != "relative_price":
        raise AttackError(f"unknown constraint kind {spec.kind!r}")
    cand, orig = cand.tolist(), orig.tolist()  # Python floats: the same IEEE operations
    high = max(cand[0], 0.0)
    low = min(cand[1], 0.0)
    if orig[2] == orig[0]:
        close = high
    elif orig[2] == orig[1]:
        close = low
    elif high - low < 2.0 * CLOSE_MARGIN:
        close = (high + low) / 2.0
    else:
        close = min(max(cand[2], low + CLOSE_MARGIN), high - CLOSE_MARGIN)
    return np.array([high, low, close])


def validate_relative_tuple(t) -> bool:
    """The plausibility check applied to emitted relative-price tuples."""
    high, low, close = float(t[0]), float(t[1]), float(t[2])
    return high >= 0.0 and low <= 0.0 and low <= close <= high


@dataclass(frozen=True)
class AttackConfig:
    method: str  # "delay" | "fgsm" | "cw"
    mode: str = "non_targeted"  # | "targeted"
    chance: float = 1.0
    eps_start: float = 1e-4
    eps_end: float = 1e-3
    eps_iters: int = 5
    k_scale: tuple[float, ...] = (1.0, 1.0, 1.0)
    cw_variant: str = "box"  # | "scaled"
    cw_max_iters: int = 100
    cw_lr: float = 0.5
    cw_const: float = 0.1
    cw_eps: float = 1.0  # per-dimension step scale for the "scaled" variant
    constraint: str = "relative_price"
    seed: int | None = None

    def validate(self) -> None:
        if self.method not in ("delay", "fgsm", "cw"):
            raise AttackError(f"unknown method {self.method!r}")
        if self.mode not in ("non_targeted", "targeted"):
            raise AttackError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.chance <= 1.0:
            raise AttackError(f"chance must be in [0,1], got {self.chance}")
        if not 0.0 < self.eps_start <= self.eps_end:
            raise AttackError("need 0 < eps_start <= eps_end")
        if self.eps_iters < 1 or self.cw_max_iters < 1:
            raise AttackError("iteration counts must be >= 1")
        if any(isinstance(k, bool) or not isinstance(k, (int, float)) or not 0.0 < k <= 1.0
               for k in self.k_scale):
            raise AttackError(f"k_scale entries must be numbers in (0, 1], got {self.k_scale}")
        for name in ("cw_lr", "cw_eps", "cw_const"):
            if not getattr(self, name) > 0.0:
                raise AttackError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.cw_variant not in ("box", "scaled"):
            raise AttackError(f"unknown cw variant {self.cw_variant!r}")
        if self.constraint not in CONSTRAINT_SPECS:
            raise AttackError(f"unknown constraint set {self.constraint!r}")
        if self.seed is not None and self.seed < 0:
            raise AttackError(f"seed must be >= 0, got {self.seed}")

    @property
    def spec(self) -> ConstraintSpec:
        return CONSTRAINT_SPECS[self.constraint]


@dataclass(frozen=True)
class PerturbationResult:
    perturbed: np.ndarray  # projected candidate tuple; discarded on failure
    outcome: str
    induced_action: int
    iterations: int
    final_eps: float
    l2: float


@functools.lru_cache
def epsilon_ladder(start: float, end: float, n: int) -> np.ndarray:
    """Geometric interpolation from start to end inclusive, built once per
    (start, end, n) and shared by every caller, so it is read-only."""
    ladder = np.array([end]) if n == 1 else np.geomspace(start, end, n)
    ladder.flags.writeable = False
    return ladder


def least_q_target(net: QNetwork, observation, q=None) -> int:
    """The adversarial target: the action the policy values least.

    ``q`` may carry the observation's Q-values, when the caller has them."""
    return int((forward(net, observation) if q is None else q).argmin())


def classify_outcome(original: int, induced: int, mode: str, target: int | None = None,
                     action_types=None) -> str:
    """Outcome taxonomy shared by all perturbation attacks.

    Non-targeted: success iff the induced action differs (by action *type*
    when a type map is given). Targeted: success iff the exact target is
    induced; partial when only the target's type is matched; any other
    change is a non-target change; everything else is a failure.
    """
    if action_types is not None:
        for idx in (original, induced) + (() if target is None else (target,)):
            if not 0 <= idx < len(action_types):
                raise AttackError(f"unknown action index {idx}")
    if induced == original:
        return FAILURE
    if mode == "non_targeted":
        if action_types is not None:
            return SUCCESS if action_types[induced] != action_types[original] else FAILURE
        return SUCCESS
    if target is None:
        raise AttackError("targeted mode requires a target action")
    if induced == target:
        return SUCCESS
    if action_types is not None and action_types[induced] == action_types[target]:
        return PARTIAL
    return NON_TARGET


def delay_attack(observation, tuple_slice: slice, previous_tuple) -> np.ndarray:
    """Serve the t-1 tuple in the most recent slot; identity when there is
    no previous tuple yet (episode start)."""
    served = np.asarray(observation, dtype=np.float64).copy()
    if previous_tuple is not None:
        served[tuple_slice] = previous_tuple
    return served


def fgsm_rungs(net, config: AttackConfig, observation, tuple_slice, x_orig, k, label):
    """Sign-of-gradient attack along a geometric epsilon ladder.

    The gradient of the cross-entropy loss (against the current greedy
    action, or the adversarial target) is computed once at the original
    observation; each ladder rung tries x +- eps * k (.) sign(g). The driver
    stops at the first full success.
    """
    grad = input_gradient(net, observation, "cross_entropy", label)
    direction = np.sign(grad[tuple_slice])  # ascend away from the greedy action
    if config.mode == "targeted":
        direction = -direction  # descend toward the target
    for eps in epsilon_ladder(config.eps_start, config.eps_end, config.eps_iters):
        yield float(eps), x_orig + eps * k * direction, None


def _margin_gradient(net, mode, label, tuple_slice):
    """The tuple-slice input gradient of the C&W margin loss, as a function of
    ``attacked`` and its ``_forward_cached`` activations that keeps the last
    gradient it computed.

    On a ReLU net that gradient depends on the input only through the rival
    action, whether the margin is active and which hidden units are active.
    While all three repeat, a backward pass would give the kept gradient's
    bytes again, so the kept gradient is returned. A label out of range or a
    Q that is not finite has no key (None) and always gets a fresh gradient.
    """
    # crown the target, or dethrone the greedy action
    loss = "deficit_margin" if mode == "targeted" else "lead_margin"
    kept_key = kept = None

    def gradient(attacked, activations):
        nonlocal kept_key, kept
        q = activations[-1].tolist()
        key = None
        if 0 <= label < len(q) and all(map(math.isfinite, q)):
            lead = q[label]
            q[label] = -math.inf
            rival = q.index(max(q))  # qnet._rival: ties go to the lowest index
            margin = q[rival] - lead if mode == "targeted" else lead - q[rival]
            key = (rival, margin > 0.0, *[(a > 0.0).tobytes() for a in activations[1:-1]])
            if key == kept_key:
                return kept
        kept_key, kept = key, input_gradient(net, attacked, loss, label, activations)[tuple_slice]
        return kept

    return gradient


def cw_box_iterates(net, config: AttackConfig, observation, tuple_slice, x_orig, k, label):
    """Carlini-Wagner L2 in a tanh-reparameterized box.

    The attacked tuple is affinely mapped into [0,1] using the constraint
    spec's box, written as (tanh(w)+1)/2, and w is driven by plain gradient
    descent on ||delta||^2 + c * margin. Every iterate is unscaled and tried;
    the smallest-norm qualifying candidate wins. ``k`` is unused (None).

    The descent stops at a fixed point: once a step leaves w unchanged after
    at least one iterate, every later iterate would repeat the last one, and
    a repeat never replaces the best candidate, so the result (``iterations``
    included) is the one all ``cw_max_iters`` steps would give.
    """
    lo, hi = config.spec.box(x_orig.size)
    width = hi - lo
    x_scaled = np.clip((x_orig - lo) / width, 1e-6, 1.0 - 1e-6)
    w = np.arctanh(2.0 * x_scaled - 1.0).tolist()
    gradient = _margin_gradient(net, config.mode, label, tuple_slice)
    # the step runs on Python floats, with numpy's operations in numpy's order
    # (numpy computes tanh_w ** 2 as tanh_w * tanh_w)
    lo, width, x_scaled = lo.tolist(), width.tolist(), x_scaled.tolist()
    lr, const = config.cw_lr, config.cw_const
    tanh_w = np.tanh(w).tolist()  # numpy's tanh: libm's need not match it
    adv_scaled = [(t + 1.0) / 2.0 for t in tanh_w]
    attacked = observation.copy()
    attacked[tuple_slice] = [low + s * span for low, s, span in zip(lo, adv_scaled, width)]
    activations = _forward_cached(net, attacked)
    for step in range(config.cw_max_iters):
        grad = gradient(attacked, activations)
        grad_w = [(2.0 * (s - x) + const * g * span) * (1.0 - t * t) / 2.0
                  for s, x, g, span, t in zip(adv_scaled, x_scaled, grad.tolist(), width,
                                              tanh_w)]
        if not all(map(math.isfinite, grad_w)):
            return
        next_w = [v - lr * g for v, g in zip(w, grad_w)]
        if step and next_w == w:
            return  # fixed point: the next iterate is the last one yielded
        w = next_w
        tanh_w = np.tanh(w).tolist()
        adv_scaled = [(t + 1.0) / 2.0 for t in tanh_w]
        candidate = np.array([low + s * span for low, s, span in zip(lo, adv_scaled, width)])
        attacked[tuple_slice] = candidate  # the next iteration's point
        activations = _forward_cached(net, attacked)  # Q here, and the next gradient
        yield 0.0, candidate, activations[-1]


def cw_scaled_iterates(net, config: AttackConfig, observation, tuple_slice, x_orig, k, label):
    """Carlini-Wagner objective optimized directly in original feature units.

    Per-dimension steps are lr * eps * k_d times the objective gradient,
    clipped to at most lr * eps * k_d in magnitude so the emitted
    perturbation stays inside |delta_d| <= eps * k_d * max_iters * lr.

    The descent stops at a fixed point: once a step gives back the last
    yielded delta (as it does where Q does not depend on the input, e.g. a
    hidden layer with no active unit), every later iterate would repeat it,
    and a repeat never replaces the best candidate, so the result
    (``iterations`` included) is the one all ``cw_max_iters`` steps would give.
    """
    gradient = _margin_gradient(net, config.mode, label, tuple_slice)
    step_cap = config.cw_lr * config.cw_eps * k
    delta = np.zeros_like(x_orig)
    attacked = observation.copy()
    attacked[tuple_slice] = x_orig + delta
    activations = _forward_cached(net, attacked)
    for step in range(config.cw_max_iters):
        grad = gradient(attacked, activations)
        objective_grad = 2.0 * delta + config.cw_const * grad
        if not np.isfinite(objective_grad).all():
            return
        next_delta = delta - np.clip(step_cap * objective_grad, -step_cap, step_cap)
        if step and np.array_equal(next_delta, delta):
            return  # fixed point: the next iterate is the last one yielded
        delta = next_delta
        proposal = x_orig + delta
        attacked[tuple_slice] = proposal  # the next iteration's point
        activations = _forward_cached(net, attacked)  # Q here, and the next gradient
        yield config.cw_eps, proposal, activations[-1]


# the proposal generator of each attack: config.method for FGSM, config.cw_variant for C&W
PROPOSALS = {"fgsm": fgsm_rungs, "box": cw_box_iterates, "scaled": cw_scaled_iterates}


def _fallback_eps(config: AttackConfig) -> float:
    """``final_eps`` of a result that no proposal made."""
    if config.method == "fgsm":
        return float(epsilon_ladder(config.eps_start, config.eps_end, config.eps_iters)[-1])
    return 0.0 if config.cw_variant == "box" else config.cw_eps


def run_perturbation_attack(net, observation, config: AttackConfig, tuple_slice, target=None,
                            action_types=None, q=None) -> PerturbationResult:
    """The configured perturbation attack: project -> classify -> keep best.

    ``PROPOSALS`` picks the generator, which yields (eps, proposal, q): the
    raw candidate tuple as float64, and None or the Q-values with it in the
    tuple slice. Its ``label`` is the target, or the greedy action when
    non-targeted; ``k`` is ``config.k_scale`` checked against the tuple (None
    for box). A candidate that projection leaves byte-identical is classified
    by that ``q``, any other by a forward pass of its own. The best candidate
    by (outcome priority, then smallest L2) wins. FGSM stops at the first
    full success; C&W tries every proposal, and a target that is already
    greedy is a success with no proposal. ``q``, when given, is
    ``forward(net, observation)``, computed once by the caller.
    """
    if config.method not in ("fgsm", "cw"):
        raise AttackError(f"{config.method!r} is not a perturbation attack")
    fgsm = config.method == "fgsm"
    generator = PROPOSALS[config.method if fgsm else config.cw_variant]
    observation = np.asarray(observation, dtype=np.float64)
    if observation.shape[0] != net.input_dim:
        raise AttackError(f"observation dim {observation.shape[0]} != net input {net.input_dim}")
    x_orig = observation[tuple_slice].copy()
    k = None
    if fgsm or config.cw_variant != "box":
        k = np.asarray(config.k_scale, dtype=np.float64)
        if k.shape != x_orig.shape:
            raise AttackError(f"k scalars shape {k.shape} != tuple shape {x_orig.shape}")
    if config.mode == "targeted" and target is None:
        raise AttackError("targeted mode requires a target action")
    original_action = int((forward(net, observation) if q is None else q).argmax())
    if not fgsm and config.mode == "targeted" and original_action == target:
        return PerturbationResult(x_orig, SUCCESS, original_action, 0, _fallback_eps(config), 0.0)
    label = target if config.mode == "targeted" else original_action
    best_priority, best_l2, best = _PRIORITY[FAILURE], np.inf, None
    attacked = observation.copy()
    for iteration, (eps, proposal, q) in enumerate(
            generator(net, config, observation, tuple_slice, x_orig, k, label), start=1):
        candidate = project_constraints(proposal, x_orig, config.spec)
        # equal bytes imply equal values, and cost a tenth of np.array_equal
        if q is None or candidate.tobytes() != proposal.tobytes():
            attacked[tuple_slice] = candidate
            q = forward(net, attacked)
        induced = int(q.argmax())
        outcome = classify_outcome(original_action, induced, config.mode, target, action_types)
        priority = _PRIORITY[outcome]
        d = candidate - x_orig
        l2 = math.sqrt(d.dot(d))  # np.linalg.norm of a 1-D real array
        if priority > best_priority or (priority == best_priority and l2 < best_l2):
            best_priority, best_l2 = priority, l2
            best = (candidate, outcome, induced, iteration, eps)
        if fgsm and outcome == SUCCESS:
            break
    if best is None:
        iterations = config.eps_iters if fgsm else config.cw_max_iters
        return PerturbationResult(x_orig, FAILURE, original_action, iterations,
                                  _fallback_eps(config), 0.0)
    return PerturbationResult(*best, l2=best_l2)
