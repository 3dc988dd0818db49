"""The two trading MDPs.

BasicStockEnv: at most one share, actions wait/buy/close, rewards in percent
of entry price minus commission, 10-bar window of relative price features.

ManagedRiskEnv: cash + asset portfolio, 181-way action table built from the
cartesian product of side x trade-size x stop-loss x take-profit (hold at
index 0), bracket exits checked against bar low/high, Sharpe-ratio reward
over the episode's net-worth returns, 20-bar window of indicator features.

Both environments terminate on a step-count cap or data end only, never on
the agent's actions. ``step`` and ``reset`` build no observation: the one
reader is ``observation(overrides)``, whose override hook lets an attack
harness substitute past window tuples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fields import RuleTable
from .market_data import FeatureSeries, Market, build_feature_series

WAIT, BUY, CLOSE = 0, 1, 2


class EnvError(ValueError):
    pass


@dataclass
class StepResult:
    reward: float
    terminal: bool
    net_worth: float | None = None  # after the step; None for an env without a portfolio


@dataclass(frozen=True)
class ManagedRiskAction:
    side: str  # "hold" | "buy" | "sell"
    fraction: float = 0.0
    stop: float = 0.0
    take: float = 0.0


@dataclass
class Portfolio:
    cash: float
    asset: float


@dataclass
class Order:
    """An executed entry with an attached stop/take exit bracket."""

    side: str
    entry_price: float
    quantity: float
    stop: float
    take: float


def net_worth(portfolio: Portfolio, price: float) -> float:
    """Cash plus asset holdings marked at ``price``."""
    if price <= 0:
        raise EnvError(f"price must be > 0, got {price}")
    return float(portfolio.cash + portfolio.asset * price)


def sharpe_reward(returns, risk_free: float = 0.0, offset: float = 1e-9) -> float:
    """(mean(R - risk_free) + offset) / (population std(R) + offset).

    Empty history yields 0; a flat history yields offset/offset = 1.
    """
    r = np.asarray(returns, dtype=np.float64)
    n = r.size
    if n == 0:
        return 0.0
    # np.mean's and np.std's own reductions, in their order, without their wrappers
    dev = r - np.add.reduce(r) / n
    dev *= dev
    std = math.sqrt(np.add.reduce(dev) / n)
    return float((np.add.reduce(r - risk_free) / n + offset) / (std + offset))


SIZE_FRACTION_GUARD = 1e-3  # keeps the largest trade at 99.9%, never 100%


def build_action_table(stops, takes, size_count: int) -> list[ManagedRiskAction]:
    """HOLD at index 0, then side-major / size / stop / take enumeration.

    Fractions are k/size_count scaled by (1 - guard), reproducing the
    33.3% / 66.6% / 99.9% pattern for size_count=3. Total length is
    2 * size_count * len(stops) * len(takes) + 1.
    """
    if not stops or not takes:
        raise EnvError("stop and take lists must be non-empty")
    table = [ManagedRiskAction(side="hold")]
    for side in ("buy", "sell"):
        for k in range(1, size_count + 1):
            fraction = k / size_count * (1.0 - SIZE_FRACTION_GUARD)
            for stop in stops:
                for take in takes:
                    table.append(
                        ManagedRiskAction(side=side, fraction=fraction, stop=stop, take=take)
                    )
    return table


# a commission of 100% or more buys no asset, or less than none; below 0 it pays
_MARKET_BOUNDS = dict(window="[1, inf)", episode_cap="[1, inf)", commission_pct="[0, 100)")


def _pick_start(rng_or_start, min_start: int, max_start: int) -> int:
    if isinstance(rng_or_start, (int, np.integer)):
        start = int(rng_or_start)
        if not min_start <= start <= max_start:
            raise EnvError(f"start {start} outside [{min_start}, {max_start}]")
        return start
    return int(rng_or_start.integers(min_start, max_start + 1))


def _fill_window(obs: np.ndarray, values: np.ndarray, cursor: int, window: int,
                 overrides: dict[int, np.ndarray] | None) -> None:
    """Write the ``window`` feature tuples ending at ``cursor`` into the head
    of ``obs``, oldest first, serving ``overrides[i]`` in place of tuple i."""
    lo = cursor - window + 1
    obs[:window * 3] = values[lo:cursor + 1].ravel()
    for idx, tup in (overrides or {}).items():
        if lo <= idx <= cursor:
            obs[(idx - lo) * 3:(idx - lo + 1) * 3] = tup


class _MarketEnv:
    """What both envs share: a window of one market's feature tuples ending
    at ``cursor``, and episodes that end on a step cap or at the data end."""

    tuple_dim = 3

    def __init__(self, market: Market, mode: str, window: int, episode_cap: int):
        self.market = market
        self.features: FeatureSeries = build_feature_series(market, mode)
        self.window = window
        self.episode_cap = int(episode_cap)
        self.closes = market.close
        self._min_start = self.features.warmup_length + window - 1
        self._max_start = len(market) - 2
        if self._max_start < self._min_start:
            raise EnvError(f"{len(market)} bars are too short for one step with window {window}")
        self.cursor = -1
        self._done = True

    @property
    def recent_tuple_slice(self) -> slice:
        return slice((self.window - 1) * 3, self.window * 3)

    def _check_action(self, action: int) -> None:
        if self._done:
            raise EnvError("step() after terminal; call reset()")
        if not 0 <= action < self.n_actions:
            raise EnvError(f"action {action} out of range")

    def _advance(self) -> bool:
        """Move to the next bar; True when the episode ends there."""
        self.steps += 1
        self.cursor += 1
        self._done = self.steps > self.episode_cap or self.cursor >= len(self.closes) - 1
        return self._done


class BasicStockEnv(_MarketEnv):
    """Single-share long-only env over relative bar features.

    Observation: window of 10 (rel_high, rel_low, rel_close) tuples, oldest
    first, then the position flag and the open position's unrealized
    profit/loss as a fraction of the entry price (0 while flat), keeping all
    observation channels on comparable scales. Rewards are in percent of the
    entry price. Actions: 0 wait, 1 buy, 2 close.
    """

    n_actions = 3
    action_types = None  # every action is its own type
    RULES = RuleTable(EnvError, _MARKET_BOUNDS)

    def __init__(self, market: Market, window: int = 10, commission_pct: float = 0.1,
                 episode_cap: int = 250):
        self.RULES.check(locals())
        self.commission_pct = float(commission_pct)
        super().__init__(market, "relative", window, episode_cap)

    @property
    def observation_dim(self) -> int:
        return self.window * 3 + 2

    def reset(self, rng_or_start) -> None:
        self.cursor = _pick_start(rng_or_start, self._min_start, self._max_start)
        self.steps = 0
        self.holding = 0
        self.entry_price = 0.0
        self._done = False

    def observation(self, overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
        obs = np.empty(self.observation_dim)
        _fill_window(obs, self.features.values, self.cursor, self.window, overrides)
        obs[-2] = self.holding
        close = self.closes[self.cursor]
        obs[-1] = (close - self.entry_price) / self.entry_price if self.holding else 0.0
        return obs

    def step(self, action: int) -> StepResult:
        self._check_action(action)
        price = float(self.closes[self.cursor])
        reward = 0.0
        if action == BUY and not self.holding:
            self.holding = 1
            self.entry_price = price
            reward = -self.commission_pct
        elif action == CLOSE and self.holding:
            reward = 100.0 * (price - self.entry_price) / self.entry_price - self.commission_pct
            self.holding = 0
            self.entry_price = 0.0
        terminal = self._advance()
        return StepResult(reward, terminal)


class ManagedRiskEnv(_MarketEnv):
    """Portfolio env over (log_return, MACD, RSI) windows with bracket exits.

    Buy converts a fraction of cash into asset at the bar close and attaches
    a stop/take exit; sell mirrors it (asset into cash, bracket re-enters).
    Brackets are checked against each new bar's low/high, stop before take.
    Reward is the Sharpe ratio of the episode's per-step net-worth returns.
    """

    # a stop of 1 or more sets a stop price no bar reaches, a take of 0 or less
    # sells at a loss; the Sharpe reward needs a start net worth to divide by
    # and an offset whose sum with a std is a normal float above 0
    RULES = RuleTable(EnvError, dict(
        _MARKET_BOUNDS, stops="(0, 1)", takes="(0, 1)", size_count="[1, inf)",
        cash="[0, inf)", asset="[0, inf)", risk_free="[-1, 1]",
        sharpe_offset=f"[{sys.float_info.min!r}, inf)"),
        {"cash or asset above 0": lambda cash, asset: cash > 0 or asset > 0})

    def __init__(self, market: Market, window: int = 20, episode_cap: int = 250,
                 stops: tuple[float, ...] = (0.02, 0.04, 0.06),
                 takes: tuple[float, ...] = (0.01, 0.02, 0.03), size_count: int = 10,
                 cash: float = 10_000.0, asset: float = 10.0,
                 risk_free: float = 0.0, sharpe_offset: float = 1e-9,
                 commission_pct: float = 0.0):
        self.RULES.check(locals())
        self.fee = float(commission_pct) / 100.0
        self.action_table = build_action_table(stops, takes, size_count)
        super().__init__(market, "indicator", window, episode_cap)
        self.action_types = [a.side for a in self.action_table]
        self.initial_cash = float(cash)
        self.initial_asset = float(asset)
        self.risk_free = float(risk_free)
        self.sharpe_offset = float(sharpe_offset)

    @property
    def n_actions(self) -> int:
        return len(self.action_table)

    @property
    def observation_dim(self) -> int:
        return self.window * 3

    def reset(self, rng_or_start) -> None:
        self.cursor = _pick_start(rng_or_start, self._min_start, self._max_start)
        self.steps = 0
        self.portfolio = Portfolio(cash=self.initial_cash, asset=self.initial_asset)
        self.open_orders: list[Order] = []
        # one slot per step the episode can take: the step cap, or the bars left
        bars_left = len(self.closes) - 1 - self.cursor
        self._returns = np.empty(min(self.episode_cap + 1, bars_left))
        self._prev_net_worth = net_worth(self.portfolio, self.closes[self.cursor])
        self._done = False

    def observation(self, overrides: dict[int, np.ndarray] | None = None) -> np.ndarray:
        obs = np.empty(self.observation_dim)
        _fill_window(obs, self.features.values, self.cursor, self.window, overrides)
        return obs

    def _execute(self, action: ManagedRiskAction, price: float) -> None:
        pf = self.portfolio
        if action.side == "buy" and pf.cash > 0.0:
            spend = pf.cash * action.fraction
            quantity = spend * (1.0 - self.fee) / price
            pf.cash -= spend
            pf.asset += quantity
        elif action.side == "sell" and pf.asset > 0.0:
            quantity = pf.asset * action.fraction
            pf.asset -= quantity
            pf.cash += quantity * price * (1.0 - self.fee)
        else:
            return
        self.open_orders.append(
            Order(side=action.side, entry_price=price, quantity=quantity,
                  stop=action.stop, take=action.take)
        )

    def _fill_brackets(self, index: int) -> None:
        low, high = float(self.market.low[index]), float(self.market.high[index])
        pf = self.portfolio
        remaining: list[Order] = []
        for order in self.open_orders:
            if order.side == "buy":
                stop_price = order.entry_price * (1.0 - order.stop)
                take_price = order.entry_price * (1.0 + order.take)
                fill = stop_price if low <= stop_price else (
                    take_price if high >= take_price else None)
                if fill is None:
                    remaining.append(order)
                    continue
                quantity = min(order.quantity, pf.asset)
                pf.asset -= quantity
                pf.cash += quantity * fill * (1.0 - self.fee)
            else:
                stop_price = order.entry_price * (1.0 + order.stop)
                take_price = order.entry_price * (1.0 - order.take)
                fill = stop_price if high >= stop_price else (
                    take_price if low <= take_price else None)
                if fill is None:
                    remaining.append(order)
                    continue
                spend = min(order.quantity * fill, pf.cash)
                pf.cash -= spend
                pf.asset += spend * (1.0 - self.fee) / fill
        self.open_orders = remaining

    def step(self, action: int) -> StepResult:
        self._check_action(action)
        self._execute(self.action_table[action], float(self.closes[self.cursor]))
        terminal = self._advance()
        self._fill_brackets(self.cursor)
        worth = net_worth(self.portfolio, self.closes[self.cursor])
        self._returns[self.steps - 1] = worth / self._prev_net_worth - 1.0
        self._prev_net_worth = worth
        reward = sharpe_reward(self._returns[:self.steps], self.risk_free, self.sharpe_offset)
        return StepResult(reward, terminal, worth)


ENVS = {"basic": BasicStockEnv, "managed": ManagedRiskEnv}


def make_env(kind: str, market: Market, **kwargs):
    if kind not in ENVS:
        raise EnvError(f"unknown env kind {kind!r}")
    return ENVS[kind](market, **kwargs)
