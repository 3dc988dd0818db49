"""OHLCV bar ingestion and the feature vectors the trading environments observe.

Two feature families:
  * relative bars  -- (high-open)/open, (low-open)/open, (close-open)/open
  * indicators     -- log close-to-close return, MACD line, Wilder RSI

Indicator warmup bars are flagged invalid rather than zero-filled; callers
must not serve them to an environment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

MACD_FAST = 10
MACD_SLOW = 50
MACD_SIGNAL = 5
RSI_PERIOD = 20


class MarketDataError(ValueError):
    """Bad input data: unparseable rows, invariant violations, too few bars."""


@dataclass(frozen=True)
class Bar:
    """One OHLCV interval. All finite; prices strictly positive,
    low <= open/close <= high."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float
    volume: float = 0.0

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.open, self.high, self.low, self.close,
                                       self.volume))):
            raise MarketDataError("prices and volume must be finite")
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise MarketDataError("prices must be > 0")
        if self.volume < 0:
            raise MarketDataError("volume must be >= 0")
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise MarketDataError(
                f"OHLC ordering violated: o={self.open} h={self.high} l={self.low} c={self.close}"
            )


@dataclass(frozen=True)
class RelativeBarFeatures:
    """Bar prices expressed as ratios to the bar's open."""

    rel_high: float
    rel_low: float
    rel_close: float

    def as_array(self) -> np.ndarray:
        return np.array([self.rel_high, self.rel_low, self.rel_close], dtype=np.float64)


@dataclass(frozen=True)
class IndicatorFeatures:
    log_return: float
    macd: float
    rsi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.log_return, self.macd, self.rsi], dtype=np.float64)


@dataclass(frozen=True)
class FeatureSeries:
    """Per-bar feature tuples aligned to a bar series.

    ``values[i]`` is valid only for ``i >= warmup_length``.
    """

    mode: str  # "relative" | "indicator"
    values: np.ndarray  # shape (n_bars, 3)
    warmup_length: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def tuple_at(self, index: int) -> np.ndarray:
        if index < self.warmup_length:
            raise MarketDataError(f"feature index {index} is inside the warmup region")
        return self.values[index]

    @property
    def tuple_dim(self) -> int:
        return self.values.shape[1]


_CANONICAL_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")


def load_csv(path, schema: dict[str, str] | None = None) -> list[Bar]:
    """Load bars from a CSV with a header row.

    ``schema`` maps canonical column names (timestamp/open/high/low/close/volume)
    to the file's column names; identity by default. Volume is optional and
    defaults to 0. Rows must already be in strictly increasing timestamp order;
    out-of-order data is an error, not silently reordered.
    """
    schema = schema or {}
    colmap = {name: schema.get(name, name) for name in _CANONICAL_COLUMNS}
    bars: list[Bar] = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise MarketDataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MarketDataError(f"{path}: empty file")
        for required in ("timestamp", "open", "high", "low", "close"):
            if colmap[required] not in reader.fieldnames:
                raise MarketDataError(f"{path}: missing column {colmap[required]!r}")
        has_volume = colmap["volume"] in reader.fieldnames
        for row_number, row in enumerate(reader, start=2):  # header is line 1
            try:
                bar = Bar(
                    timestamp=int(row[colmap["timestamp"]]),
                    open=float(row[colmap["open"]]),
                    high=float(row[colmap["high"]]),
                    low=float(row[colmap["low"]]),
                    close=float(row[colmap["close"]]),
                    volume=float(row[colmap["volume"]]) if has_volume else 0.0,
                )
                bar.validate()
            except (ValueError, KeyError, TypeError) as exc:
                raise MarketDataError(f"{path}: row {row_number}: {exc}") from exc
            if bars and bar.timestamp <= bars[-1].timestamp:
                raise MarketDataError(
                    f"{path}: row {row_number}: timestamp {bar.timestamp} not after "
                    f"{bars[-1].timestamp}"
                )
            bars.append(bar)
    if not bars:
        raise MarketDataError(f"{path}: no data rows")
    return bars


def relative_features(bar: Bar) -> RelativeBarFeatures:
    """Prices relative to open: ((h-o)/o, (l-o)/o, (c-o)/o)."""
    if bar.open <= 0:
        raise MarketDataError("open price must be > 0")
    return RelativeBarFeatures(
        rel_high=(bar.high - bar.open) / bar.open,
        rel_low=(bar.low - bar.open) / bar.open,
        rel_close=(bar.close - bar.open) / bar.open,
    )


def ema(series, period: int) -> np.ndarray:
    """Exponential moving average, alpha = 2/(period+1), seeded with series[0]."""
    if period < 1:
        raise MarketDataError(f"ema period must be >= 1, got {period}")
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        raise MarketDataError("ema input is empty")
    alpha = 2.0 / (period + 1.0)
    out = np.empty_like(values)
    out[0] = values[0]
    for t in range(1, values.size):
        out[t] = alpha * values[t] + (1.0 - alpha) * out[t - 1]
    return out


def macd(closes, fast: int = MACD_FAST, slow: int = MACD_SLOW, signal: int = MACD_SIGNAL):
    """MACD line (fast EMA - slow EMA) and its signal line."""
    closes = np.asarray(closes, dtype=np.float64)
    line = ema(closes, fast) - ema(closes, slow)
    signal_line = ema(line, signal)
    return line, signal_line


def rsi(closes, period: int = RSI_PERIOD) -> np.ndarray:
    """Wilder RSI.

    The first average gain/loss is a simple mean over the first ``period``
    deltas; afterwards Wilder smoothing ``avg = (avg*(p-1) + x)/p``. Indices
    before ``period`` bars of history are NaN (warmup, not an error).
    Zero average loss maps to 100, zero average gain to 0.
    """
    if period < 1:
        raise MarketDataError(f"rsi period must be >= 1, got {period}")
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.size
    out = np.full(n, np.nan)
    if n <= period:
        return out
    deltas = np.diff(closes)
    gains = np.where(deltas > 0, deltas, 0.0)
    losses = np.where(deltas < 0, -deltas, 0.0)
    avg_gain = gains[:period].mean()
    avg_loss = losses[:period].mean()
    out[period] = _rsi_value(avg_gain, avg_loss)
    for t in range(period, deltas.size):
        avg_gain = (avg_gain * (period - 1) + gains[t]) / period
        avg_loss = (avg_loss * (period - 1) + losses[t]) / period
        out[t + 1] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0
    if avg_gain == 0.0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def build_feature_series(bars: list[Bar], mode: str) -> FeatureSeries:
    """Compute the aligned feature series for a bar list.

    relative mode: warmup 0. indicator mode: warmup = MACD slow period, which
    dominates the RSI and log-return warmups.
    """
    if mode == "relative":
        values = np.array([relative_features(b).as_array() for b in bars], dtype=np.float64)
        return FeatureSeries(mode="relative", values=values, warmup_length=0)
    if mode == "indicator":
        if len(bars) < MACD_SLOW:
            raise MarketDataError(
                f"indicator mode needs at least {MACD_SLOW} bars, got {len(bars)}"
            )
        closes = np.array([b.close for b in bars], dtype=np.float64)
        log_returns = np.full(len(bars), np.nan)
        log_returns[1:] = np.log(closes[1:]) - np.log(closes[:-1])
        macd_line, _ = macd(closes)
        rsi_values = rsi(closes)
        values = np.column_stack([log_returns, macd_line, rsi_values])
        return FeatureSeries(mode="indicator", values=values, warmup_length=MACD_SLOW)
    raise MarketDataError(f"unknown feature mode {mode!r}")


def synthesize_bars(
    n_bars: int,
    drift: float = 0.0,
    volatility: float = 0.002,
    seed: int = 0,
    start_price: float = 100.0,
    momentum: float = 0.0,
    bar_seconds: int = 60,
    start_timestamp: int = 1_577_836_800,
) -> list[Bar]:
    """Geometric random walk OHLCV generator.

    Per-bar log return r_t = drift + momentum*(r_{t-1} - drift) + volatility*z_t.
    momentum=0 is a plain geometric random walk; a nonzero value makes the
    recent bar informative about the next one (negative = mean reversion).
    Wick sizes scale with volatility, so volatility=0 (with drift 0) yields
    flat bars.
    """
    if n_bars < 1:
        raise MarketDataError("n_bars must be >= 1")
    if not (-1.0 < momentum < 1.0):
        raise MarketDataError("momentum must be in (-1, 1)")
    rng = np.random.default_rng(seed)
    bars: list[Bar] = []
    price = float(start_price)
    prev_ret = drift
    for i in range(n_bars):
        z = rng.standard_normal()
        ret = drift + momentum * (prev_ret - drift) + volatility * z
        prev_ret = ret
        open_ = price
        close = open_ * math.exp(ret)
        wick_up = abs(rng.standard_normal()) * volatility * 0.5
        wick_dn = abs(rng.standard_normal()) * volatility * 0.5
        high = max(open_, close) * math.exp(wick_up)
        low = min(open_, close) * math.exp(-wick_dn)
        volume = float(rng.lognormal(mean=0.0, sigma=0.5))
        bars.append(
            Bar(
                timestamp=start_timestamp + i * bar_seconds,
                open=open_,
                high=high,
                low=low,
                close=close,
                volume=volume,
            )
        )
        price = close
    return bars


def write_bars_csv(bars: list[Bar], path) -> None:
    """Write bars in the canonical CSV layout (byte-deterministic)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "open", "high", "low", "close", "volume"])
        for bar in bars:
            writer.writerow(
                [bar.timestamp, repr(bar.open), repr(bar.high), repr(bar.low),
                 repr(bar.close), repr(bar.volume)]
            )
