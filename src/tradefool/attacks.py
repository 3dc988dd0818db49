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
import sys
from dataclasses import dataclass

import numpy as np

from .fields import RuleTable
from .qnet import QNetwork, _forward_cached, forward, input_gradient

SUCCESS = "success"
PARTIAL = "partial"
NON_TARGET = "non_target"
FAILURE = "failure"

_PRIORITY = {FAILURE: 0, NON_TARGET: 1, PARTIAL: 2, SUCCESS: 3}

CLOSE_MARGIN = 1e-9  # strictly-between nudge for the projected relative close
BLOCK_ROWS = 64  # the most proposals a generator yields, and forwards, in one block


class AttackError(ValueError):
    pass


@dataclass(frozen=True)
class ConstraintSpec:
    """Domain rules for a feature tuple plus the affine box used to map the
    tuple into [0,1] for the tanh-box attack."""

    kind: str  # "relative_price" | "indicator" | "none"
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]

    def box(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.box_low, dtype=np.float64)
        hi = np.asarray(self.box_high, dtype=np.float64)
        if lo.size == 1:
            lo, hi = np.full(dim, lo[0]), np.full(dim, hi[0])
        if lo.size != dim:
            raise AttackError(f"constraint box is {lo.size}-dimensional, tuple is {dim}")
        return lo, hi


CONSTRAINT_SPECS = {
    "relative_price": ConstraintSpec(
        kind="relative_price", box_low=(-0.05, -0.05, -0.05), box_high=(0.05, 0.05, 0.05)),
    "indicator": ConstraintSpec(
        kind="indicator", box_low=(-0.5, -100.0, 0.0), box_high=(0.5, 100.0, 100.0)),
    "none": ConstraintSpec(kind="none", box_low=(-1.0,), box_high=(1.0,)),
}


def _raise_to(x, bound) -> None:
    """``x = max(x, bound)`` per entry, in place, as Python's ``max`` does it:
    ``bound`` only where it is greater, so a NaN or a -0.0 in ``x`` stays."""
    np.copyto(x, bound, where=bound > x)


def _lower_to(x, bound) -> None:
    """``x = min(x, bound)`` per entry, in place, with Python's NaN and zero sign."""
    np.copyto(x, bound, where=bound < x)


def project_constraints(candidate, original, spec: ConstraintSpec) -> np.ndarray:
    """Project a perturbed tuple (d,), or each row of a block (k, d), back
    into the declared feasible set of the original tuple (d,).

    relative_price: rel_high >= 0, rel_low <= 0, and the close matches the
    original close's behavior (equal to high, equal to low, or strictly
    between). indicator: RSI coordinate clamped to [0, 100]. none: identity.
    Idempotent for a fixed original. Each row gets the bytes a call on that
    row alone gives, and the Python-float arithmetic of ``max``, ``min`` and
    ``+ - * /`` would give.
    """
    out = np.array(candidate, dtype=np.float64)  # a copy, projected in place
    orig = np.asarray(original, dtype=np.float64)
    if orig.ndim != 1 or out.ndim not in (1, 2) or out.shape[-1:] != orig.shape:
        raise AttackError(f"shape mismatch {out.shape} vs {orig.shape}")
    if spec.kind == "relative_price":
        if orig.shape != (3,):
            raise AttackError(f"a relative-price tuple has 3 entries, got {orig.shape[0]}")
        high, low, close = out[..., 0], out[..., 1], out[..., 2]  # views, 0-d for one tuple
        _raise_to(high, 0.0)
        _lower_to(low, 0.0)
        if orig[2] == orig[0]:
            close[...] = high
        elif orig[2] == orig[1]:
            close[...] = low
        else:
            _raise_to(close, low + CLOSE_MARGIN)
            _lower_to(close, high - CLOSE_MARGIN)
            with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf: NaN, as in Python
                np.copyto(close, (high + low) / 2.0, where=high - low < 2.0 * CLOSE_MARGIN)
        return out
    if spec.kind == "none":
        return out
    if spec.kind == "indicator":
        rsi = out[..., 2]
        _raise_to(rsi, 0.0)
        _lower_to(rsi, 100.0)
        return out
    raise AttackError(f"unknown constraint kind {spec.kind!r}")


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

    RULES = RuleTable(AttackError, dict(
        method=("delay", "fgsm", "cw"), mode=("non_targeted", "targeted"), chance="[0, 1]",
        eps_start="(0, inf)", eps_end="(0, inf)", eps_iters="[1, inf)", k_scale="(0, 1]",
        cw_variant=("box", "scaled"), cw_max_iters="[1, inf)", cw_lr="(0, inf)",
        cw_const="(0, inf)", cw_eps="(0, inf)", constraint=tuple(CONSTRAINT_SPECS),
        seed="[0, inf)"),
        {"eps_start <= eps_end": lambda eps_start, eps_end: eps_start <= eps_end})

    def __post_init__(self) -> None:
        self.RULES.check(vars(self))

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
    observation; rung i tries x +- eps_i * k (.) sign(g). The ladder comes as
    one block with no Q, or in blocks of at most ``BLOCK_ROWS`` rungs when it
    is longer.
    """
    grad = input_gradient(net, observation, "cross_entropy", label)
    direction = np.sign(grad[tuple_slice])  # ascend away from the greedy action
    if config.mode == "targeted":
        direction = -direction  # descend toward the target
    # eps * step has the bytes of eps * k * direction, as direction is +-1, +-0 or NaN
    step = k * direction
    ladder = epsilon_ladder(config.eps_start, config.eps_end, config.eps_iters)
    for start in range(0, len(ladder), BLOCK_ROWS):
        yield x_orig + ladder[start:start + BLOCK_ROWS, None] * step, None


def _margin_keys(activations, mode, label) -> np.ndarray:
    """Per row of a batch's activations, the key the C&W margin gradient there
    depends on: the rival action (ties to the lowest index, as ``qnet._rival``),
    whether the margin is active and which hidden units are. A Q that is not
    finite, or a label out of range, gives a NaN row: it matches no key, not
    even itself."""
    q = activations[-1]
    if not 0 <= label < q.shape[1]:
        return np.full((len(q), 1), np.nan)
    others = q.copy()
    others[:, label] = -np.inf
    best = others.max(axis=1)
    margin = best - q[:, label] if mode == "targeted" else q[:, label] - best
    keys = np.concatenate([others.argmax(axis=1)[:, None], (margin > 0.0)[:, None],
                           *[a > 0.0 for a in activations[1:-1]]], axis=1, dtype=np.float64)
    return np.where(np.isfinite(q).all(axis=1)[:, None], keys, np.nan)


def _descend(net, config: AttackConfig, observation, tuple_slice, label, state, rule, points):
    """The C&W descent from ``state`` in blocks (proposals (k, d), Q
    (k, n_actions)). The variant gives the step rule and the rows:
    ``rule(grad)`` is the step under one margin gradient, or None when that
    gradient gives no finite step; ``step(state)`` is the next state, the
    same object when it would repeat ``state``, or None to stop; and
    ``points(states)`` is the proposal block (k, d) of some states.

    The descent stops at a fixed point: once a step repeats its state after
    at least one iterate, every later iterate would repeat the last one, and
    a repeat never replaces the best candidate, so the result (``iterations``
    included) is the one all ``cw_max_iters`` steps would give.

    The margin gradient is kept while its key (``_margin_keys``) repeats. A
    sub-block is up to ``size`` steps under the kept gradient, forwarded in
    one pass and cut after the first row whose key differs; the descent
    resumes from that row with the fresh gradient of its activations.
    ``size`` starts at 1, doubles while the key holds, up to ``BLOCK_ROWS``,
    and is 1 again after a change. The kept rows of consecutive sub-blocks
    are held and yielded as one block when the key changes, when the next
    sub-block would take them past ``BLOCK_ROWS``, and when the descent
    ends. No gradient is taken once no step remains."""
    # crown the target, or dethrone the greedy action
    loss = "deficit_margin" if config.mode == "targeted" else "lead_margin"

    def forward_rows(states):
        batch = np.repeat(observation[None], len(states), axis=0)
        batch[:, tuple_slice] = points(states)
        activations = _forward_cached(net, batch)
        return batch, activations, _margin_keys(activations, config.mode, label)

    batch, activations, keys = forward_rows([state])
    fresh, taken, size = 0, 0, 1  # fresh: the row to take a new gradient at, if any
    held = []  # (proposals, Q) of the sub-blocks not yet yielded

    def release():
        proposals, qs = zip(*held)
        held.clear()
        return np.concatenate(proposals), np.concatenate(qs)

    while taken < config.cw_max_iters:
        if fresh is not None:
            kept = keys[fresh]
            step = rule(input_gradient(net, batch[fresh], loss, label,
                                       [a[fresh] for a in activations])[tuple_slice])
        block, states = min(size, config.cw_max_iters - taken), []
        if sum(len(qs) for _, qs in held) + block > BLOCK_ROWS:
            yield release()
        while step is not None and len(states) < block:
            advanced = step(state)
            if advanced is None or advanced is state and (taken or states):
                break  # stopped, or a fixed point past the first iterate
            states.append(advanced)
            state = advanced
        if not states:
            break
        batch, activations, keys = forward_rows(states)
        same = (keys == kept).all(axis=1)
        fresh = None if same.all() else int(same.argmin())
        cut = len(states) if fresh is None else fresh + 1
        held.append((batch[:cut, tuple_slice], activations[-1][:cut]))
        taken += cut
        if fresh is not None:
            state, size = states[fresh], 1
            yield release()
        elif len(states) < block:
            break  # the step rule stopped under the kept gradient
        else:
            size = min(2 * size, BLOCK_ROWS)
    if held:
        yield release()


def cw_box_iterates(net, config: AttackConfig, observation, tuple_slice, x_orig, k, label):
    """Carlini-Wagner L2 in a tanh-reparameterized box.

    The attacked tuple is affinely mapped into [0,1] using the constraint
    spec's box, written as (tanh(w)+1)/2, and w is driven by plain gradient
    descent on ||delta||^2 + c * margin. Every iterate is unscaled and tried;
    the smallest-norm qualifying candidate wins. ``k`` is unused (None).
    ``_descend`` yields the iterates in blocks. A state is (w, tanh(w)) as
    Python floats; each step makes the float operations of a
    one-step-at-a-time descent, and ``points`` maps a block of states to the
    box with numpy's elementwise operations, so every iterate keeps its bytes.
    A step that leaves w unchanged repeats its state.

    The margin term ``const * g * span`` depends only on the gradient, so it
    is computed, and checked, once per gradient: with s = (tanh(w)+1)/2 in
    [0,1], the scaled tuple x in [1e-6, 1-1e-6] and 1 - tanh(w)^2 in [0,1],
    every step's gradient in w is finite exactly when those terms and x are.
    """
    lo, hi = config.spec.box(x_orig.size)
    width = hi - lo
    x_scaled = np.clip((x_orig - lo) / width, 1e-6, 1.0 - 1e-6)
    w = np.arctanh(2.0 * x_scaled - 1.0)
    spans, x_scaled = width.tolist(), x_scaled.tolist()
    lr, const = config.cw_lr, config.cw_const

    # the step runs on Python floats, with numpy's operations in numpy's order
    # (numpy computes tanh_w ** 2 as tanh_w * tanh_w)
    def rule(grad):
        margin = [const * g * span for g, span in zip(grad.tolist(), spans)]
        if not all(map(math.isfinite, margin + x_scaled)):
            return None

        def step(state):
            w, tanh_w = state
            next_w = [v - lr * ((2.0 * ((t + 1.0) / 2.0 - x) + m) * (1.0 - t * t) / 2.0)
                      for v, t, x, m in zip(w, tanh_w, x_scaled, margin)]
            if next_w == w:
                return state
            return next_w, np.tanh(next_w).tolist()  # numpy's tanh: libm's need not match it

        return step

    def points(states):
        return lo + (np.array([tanh_w for _, tanh_w in states]) + 1.0) / 2.0 * width

    yield from _descend(net, config, observation, tuple_slice, label,
                        (w.tolist(), np.tanh(w).tolist()), rule, points)


def cw_scaled_iterates(net, config: AttackConfig, observation, tuple_slice, x_orig, k, label):
    """Carlini-Wagner objective optimized directly in original feature units.

    Per-dimension steps are lr * eps * k_d times the objective gradient,
    clipped to at most lr * eps * k_d in magnitude so the emitted
    perturbation stays inside |delta_d| <= eps * k_d * max_iters * lr.
    ``_descend`` yields the iterates in blocks. A state is delta; each step
    makes the numpy operations of a one-step-at-a-time descent, and
    ``points`` adds a block of deltas to the tuple elementwise, so every
    iterate keeps its bytes. A step that gives back delta (as it does where
    Q does not depend on the input, e.g. a hidden layer with no active unit)
    repeats its state.
    """
    step_cap = config.cw_lr * config.cw_eps * k

    def rule(grad):
        margin = config.cw_const * grad

        def step(delta):
            objective_grad = 2.0 * delta + margin
            if not np.isfinite(objective_grad).all():
                return None
            next_delta = delta - np.clip(step_cap * objective_grad, -step_cap, step_cap)
            return delta if np.array_equal(next_delta, delta) else next_delta

        return step

    yield from _descend(net, config, observation, tuple_slice, label, np.zeros_like(x_orig),
                        rule, lambda deltas: x_orig + np.array(deltas))


# the proposal generator of each attack: config.method for FGSM, config.cw_variant for C&W
PROPOSALS = {"fgsm": fgsm_rungs, "box": cw_box_iterates, "scaled": cw_scaled_iterates}


def _final_eps(config: AttackConfig, iteration: int) -> float:
    """``final_eps`` of a result whose ``iterations`` is ``iteration``: the
    ladder rung of that number for FGSM, the variant's constant for C&W."""
    if config.method == "fgsm":
        ladder = epsilon_ladder(config.eps_start, config.eps_end, config.eps_iters)
        return float(ladder[iteration - 1])
    return 0.0 if config.cw_variant == "box" else config.cw_eps


def run_perturbation_attack(net, observation, config: AttackConfig, tuple_slice, target=None,
                            action_types=None, q=None) -> PerturbationResult:
    """The configured perturbation attack: project -> classify -> keep best.

    ``PROPOSALS`` picks the generator, which yields blocks (proposals, q):
    k <= ``BLOCK_ROWS`` raw candidate tuples as float64 rows (k, d), and None
    or the Q-values (k, n_actions) of the observation with each row in the
    tuple slice. Its ``label`` is the target, or the greedy action when
    non-targeted; ``k`` is ``config.k_scale`` checked against the tuple (None
    for box). A block is projected in one call. A row that projection leaves
    byte-identical is classified by its row of ``q``; the block's other rows
    (every row, when it has no ``q``) share one forward pass, which gives a
    lone row the bytes of a 1-D pass. A batch of several rows may move Q in
    the last bits, which can change a decision only at a top-two Q tie
    within rounding; ``tests/test_oracle.py`` checks across versions that no
    decision moved elsewhere. The best candidate by (outcome priority, then
    smallest L2) wins, the earliest on a tie. A block's squared offsets come
    from one array expression; only a row that ranks higher than the best so
    far, or the same with a squared offset within a relative 1e-9 of the
    best's, gets its exact L2, so the winner keeps the bytes of
    ``np.linalg.norm``. FGSM stops at the first full success, in the row
    order of its ladder; C&W tries every proposal, and a target that is
    already greedy is a success with no proposal. A result's eps is
    ``_final_eps`` of its ``iterations``. ``q``, when given, is
    ``forward(net, observation)``, computed once by the caller.
    """
    # numpy need not warn of an overflow: an overflowed candidate is ranked like any other
    with np.errstate(all="ignore"):
        if config.method not in ("fgsm", "cw"):
            raise AttackError(f"{config.method!r} is not a perturbation attack")
        fgsm = config.method == "fgsm"
        generator = PROPOSALS[config.method if fgsm else config.cw_variant]
        observation = np.asarray(observation, dtype=np.float64)
        if observation.shape[0] != net.input_dim:
            raise AttackError(f"observation dim {observation.shape[0]} "
                              f"!= net input {net.input_dim}")
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
            return PerturbationResult(x_orig, SUCCESS, original_action, 0,
                                      _final_eps(config, 0), 0.0)
        label = target if config.mode == "targeted" else original_action
        best_priority, best_l2, best = _PRIORITY[FAILURE], np.inf, None
        bound = math.inf  # a row at the best's priority whose squared offset is above this loses
        iteration, spec = 0, config.spec
        for proposals, qs in generator(net, config, observation, tuple_slice, x_orig, k, label):
            candidates = project_constraints(proposals, x_orig, spec)
            if qs is None:  # every row needs a forward pass
                moved, qs = np.arange(len(candidates)), np.empty((len(candidates), net.n_actions))
            else:  # equal bytes imply equal values
                moved = np.flatnonzero((candidates.view(np.uint64)
                                        != proposals.view(np.uint64)).any(axis=1))
                if len(moved):
                    qs = qs.copy()  # the generator may still read its own
            if len(moved):
                batch = np.repeat(observation[None], len(moved), axis=0)
                batch[:, tuple_slice] = candidates[moved]
                qs[moved] = forward(net, batch)
            offsets = candidates - x_orig
            squares = np.einsum("ij,ij->i", offsets, offsets).tolist()  # no overflow warning
            for j, induced in enumerate(qs.argmax(axis=1).tolist()):
                iteration += 1
                outcome = classify_outcome(original_action, induced, config.mode, target,
                                           action_types)
                priority = _PRIORITY[outcome]
                if priority < best_priority or priority == best_priority and squares[j] > bound:
                    continue
                d = offsets[j]
                l2 = math.sqrt(d.dot(d))  # np.linalg.norm of a 1-D real array
                if priority > best_priority or l2 < best_l2:
                    best_priority, best_l2 = priority, l2
                    # the two sums of squares differ by a few ulps, so a row more than a
                    # relative 1e-9 above the best's cannot tie it; below the normal
                    # range the ulps are coarse, so every row gets its exact L2
                    bound = squares[j] * (1.0 + 1e-9) if squares[j] >= sys.float_info.min \
                        else math.inf
                    best = (candidates[j], outcome, induced, iteration)
                    if fgsm and outcome == SUCCESS:
                        break  # FGSM keeps the first full success of its ladder
            if fgsm and best_priority == _PRIORITY[SUCCESS]:
                break
        if best is None:
            best, best_l2 = (x_orig, FAILURE, original_action,
                             config.eps_iters if fgsm else config.cw_max_iters), 0.0
        return PerturbationResult(*best, final_eps=_final_eps(config, best[3]), l2=best_l2)
