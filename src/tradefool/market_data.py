"""OHLCV market data and the feature vectors the trading environments observe.

A ``Market`` holds the bars as read-only numpy columns. Two feature families:
  * relative bars  -- (high-open)/open, (low-open)/open, (close-open)/open
  * indicators     -- log close-to-close return, MACD line, Wilder RSI

Indicator warmup bars are flagged invalid rather than zero-filled; callers
must not serve them to an environment.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .fields import RuleTable

MACD_FAST = 10
MACD_SLOW = 50
RSI_PERIOD = 20


class MarketDataError(ValueError):
    """Bad input data: unparseable rows, invariant violations, too few bars."""


_CANONICAL_COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")
_VALUE_COLUMNS = _CANONICAL_COLUMNS[1:]
_CHUNK_ROWS = 4096  # bars per step of synthesize_bars and write_bars_csv


@dataclass(frozen=True, eq=False)
class Market:
    """OHLCV bars, oldest first, as read-only columns of one length:
    ``timestamp`` int64, the prices and ``volume`` float64.

    ``load_csv`` returns only valid markets: finite, prices > 0, volume >= 0,
    low <= open/close <= high and strictly increasing timestamps. Slicing
    gives a market over a bar range.
    """

    timestamp: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        n = len(self.timestamp)
        for name in _CANONICAL_COLUMNS:
            dtype = np.int64 if name == "timestamp" else np.float64
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            if column.shape != (n,):
                raise MarketDataError(f"column {name} has shape {column.shape}, expected ({n},)")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index: slice) -> Market:
        if not isinstance(index, slice):
            raise TypeError("a Market takes slices; read one bar from its columns")
        return Market(*(getattr(self, name)[index] for name in _CANONICAL_COLUMNS))


def _check_bars(source, market: Market) -> None:
    """Raise MarketDataError naming the CSV row (the header is row 1) of the
    first invalid bar; a bar breaking several invariants gives the first
    reason in the order checked below."""
    ts, o, h, l, c, v = (getattr(market, name) for name in _CANONICAL_COLUMNS)
    masks = (~np.isfinite([o, h, l, c, v]).all(axis=0),
             (np.array([o, h, l, c]) <= 0).any(axis=0),
             v < 0,
             ~((l <= o) & (o <= h) & (l <= c) & (c <= h)),
             np.concatenate(([False], ts[1:] <= ts[:-1])))
    failing = [(int(mask.argmax()), rank) for rank, mask in enumerate(masks) if mask.any()]
    if failing:
        i, rank = min(failing)
        reason = ("prices and volume must be finite", "prices must be > 0", "volume must be >= 0",
                  f"OHLC ordering violated: o={float(o[i])} h={float(h[i])} l={float(l[i])} "
                  f"c={float(c[i])}",
                  f"timestamp {int(ts[i])} not after {int(ts[i - 1])}")[rank]
        raise MarketDataError(f"{source}: row {i + 2}: {reason}")


def _market_from_arrays(timestamps: array, values: array) -> Market:
    """A market over ``timestamps`` and ``values``, the latter holding each
    bar's (open, high, low, close, volume) in turn; the columns are views."""
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, len(_VALUE_COLUMNS))
    return Market(np.frombuffer(timestamps, dtype=np.int64), *rows.T)


@dataclass(frozen=True)
class FeatureSeries:
    """Per-bar feature tuples aligned to a market.

    ``values[i]`` is valid only for ``i >= warmup_length``.
    """

    mode: str  # "relative" | "indicator"
    values: np.ndarray  # shape (n_bars, 3), read-only
    warmup_length: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def tuple_at(self, index: int) -> np.ndarray:
        if index < self.warmup_length:
            raise MarketDataError(f"feature index {index} is inside the warmup region")
        return self.values[index]


def load_csv(path) -> Market:
    """Load a market from a CSV whose header row names the columns timestamp,
    open, high, low, close and, optionally, volume (0 when absent). Rows must
    already be in strictly increasing timestamp order; out-of-order data is an
    error, not silently reordered. Blank lines are skipped; "row N" in an
    error counts the header as row 1 and skips them too.

    The rows are parsed in one ``np.loadtxt`` pass. If that pass fails, warns
    or finds no rows, the file is read again by ``_load_csv_rows``, the row
    loop that names the first bad row, so both accept the same files and give
    the same errors. A file that is not UTF-8 text is an error.
    """
    with _open_csv(path) as handle:
        _, positions = _read_header(path, csv.reader(handle))
        names = [name for name in _CANONICAL_COLUMNS if positions[name] is not None]
        dtype = np.dtype([(name, np.int64 if name == "timestamp" else np.float64)
                          for name in names])
        try:
            # the rest of the open handle, so rows split as csv.reader splits
            # them; warnings as errors: an empty file, or numpy < 2 truncating
            # a float timestamp with a DeprecationWarning, goes to the row loop
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bars = np.loadtxt(handle, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', usecols=[positions[name] for name in names],
                                  ndmin=1)
        except (ValueError, Warning):
            bars = None
    if bars is None or len(bars) == 0:
        return _load_csv_rows(path)
    market = Market(*(bars[name] if name in names else np.zeros(len(bars))
                      for name in _CANONICAL_COLUMNS))
    _check_bars(path, market)
    return market


@contextlib.contextmanager
def _open_csv(path):
    """The file as UTF-8 text; a byte that does not decode is a ``MarketDataError``."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise MarketDataError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise MarketDataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_header(path, reader) -> tuple[int, dict]:
    """The number of header fields, and the position of each canonical column
    among them (``None`` for a missing volume)."""
    header = next(reader, None)
    if header is None:
        raise MarketDataError(f"{path}: empty file")
    # a repeated column name means its last column, as with csv.DictReader
    position = {name: i for i, name in enumerate(header)}
    for required in _CANONICAL_COLUMNS[:5]:
        if required not in position:
            raise MarketDataError(f"{path}: missing column {required!r}")
    return len(header), {name: position.get(name) for name in _CANONICAL_COLUMNS}


def _load_csv_rows(path) -> Market:
    """``load_csv`` one row at a time: the first row that does not parse is
    named in the error, after any invalid bar before it."""
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        width, positions = _read_header(path, reader)
        t_at, o_at, h_at, l_at, c_at, v_at = positions.values()
        timestamps, values = array("q"), array("d")
        row_number = 1  # header
        for row in reader:
            if not row:
                continue
            row_number += 1
            try:
                timestamp = int(row[t_at])
                parsed = (float(row[o_at]), float(row[h_at]), float(row[l_at]),
                          float(row[c_at]), float(row[v_at]) if v_at is not None else 0.0)
                timestamps.append(timestamp)
            except (ValueError, OverflowError, IndexError) as exc:
                reason = (f"{len(row)} fields, header has {width}"
                          if isinstance(exc, IndexError) else exc)
                _check_bars(path, _market_from_arrays(timestamps, values))
                raise MarketDataError(f"{path}: row {row_number}: {reason}") from exc
            values.extend(parsed)
    if not timestamps:
        raise MarketDataError(f"{path}: no data rows")
    market = _market_from_arrays(timestamps, values)
    _check_bars(path, market)
    return market


def ema(series, period: int) -> np.ndarray:
    """Exponential moving average, alpha = 2/(period+1), seeded with series[0]."""
    if period < 1:
        raise MarketDataError(f"ema period must be >= 1, got {period}")
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        raise MarketDataError("ema input is empty")
    alpha = 2.0 / (period + 1.0)
    # Python float arithmetic is numpy's IEEE double arithmetic without a numpy
    # scalar per step; array("d") holds the values unboxed, so no list of float
    # objects builds up.
    out = array("d", values[:1].tobytes())
    for x in array("d", values[1:].tobytes()):
        out.append(alpha * x + (1.0 - alpha) * out[-1])
    return np.frombuffer(out)


def macd(closes, fast: int = MACD_FAST, slow: int = MACD_SLOW) -> np.ndarray:
    """MACD line: fast EMA minus slow EMA."""
    return ema(closes, fast) - ema(closes, slow)


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
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    values = array("d", [_rsi_value(avg_gain, avg_loss)])  # Python floats, as in ema
    for gain, loss in zip(array("d", gains[period:].tobytes()),
                          array("d", losses[period:].tobytes())):
        avg_gain = (avg_gain * (period - 1) + gain) / period
        avg_loss = (avg_loss * (period - 1) + loss) / period
        values.append(_rsi_value(avg_gain, avg_loss))
    out[period:] = values
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        return 100.0
    if avg_gain == 0.0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def build_feature_series(market: Market, mode: str) -> FeatureSeries:
    """The market's read-only feature series for ``mode``.

    relative mode: warmup 0. indicator mode: warmup = MACD slow period, which
    dominates the RSI and log-return warmups.
    """
    if mode == "relative":
        o = market.open
        if np.any(o <= 0):
            raise MarketDataError("open price must be > 0")
        values = np.column_stack([(market.high - o) / o, (market.low - o) / o,
                                  (market.close - o) / o])
        warmup = 0
    elif mode == "indicator":
        if len(market) < MACD_SLOW:
            raise MarketDataError(
                f"indicator mode needs at least {MACD_SLOW} bars, got {len(market)}"
            )
        closes = market.close
        log_returns = np.full(len(market), np.nan)
        log_returns[1:] = np.log(closes[1:]) - np.log(closes[:-1])
        macd_line = macd(closes)
        rsi_values = rsi(closes)
        values = np.column_stack([log_returns, macd_line, rsi_values])
        warmup = MACD_SLOW
    else:
        raise MarketDataError(f"unknown feature mode {mode!r}")
    values.flags.writeable = False
    return FeatureSeries(mode=mode, values=values, warmup_length=warmup)


def synthesize_bars(
    n_bars: int,
    drift: float = 0.0,
    volatility: float = 0.002,
    seed: int = 0,
    start_price: float = 100.0,
    momentum: float = 0.0,
    bar_seconds: int = 60,
    start_timestamp: int = 1_577_836_800,
) -> Market:
    """Geometric random walk OHLCV generator.

    Per-bar log return r_t = drift + momentum*(r_{t-1} - drift) + volatility*z_t.
    momentum=0 is a plain geometric random walk; a nonzero value makes the
    recent bar informative about the next one (negative = mean reversion).
    Wick sizes scale with volatility, so volatility=0 (with drift 0) yields
    flat bars. Parameters, or prices, that ``load_csv`` would refuse are a
    ``MarketDataError``.
    """
    _SYNTH_RULES.check(locals())
    rng = np.random.default_rng(seed)
    bars = np.empty((n_bars, len(_VALUE_COLUMNS)))  # open, high, low, close, volume
    price = float(start_price)
    ret = drift
    try:
        for first in range(0, n_bars, _CHUNK_ROWS):
            # Four standard normals per bar (z, up wick, down wick, lognormal
            # volume), in one (n_bars, 4) stream. The numpy ops round as Python
            # float ops; an inf or NaN they make fails the finite check below.
            draws = rng.standard_normal((min(_CHUNK_ROWS, n_bars - first), 4))
            with np.errstate(over="ignore"):
                shocks = (volatility * draws[:, 0]).tolist()
                wicks = np.abs(draws[:, 1:3]) * volatility * 0.5
            closes = [price]
            for shock in shocks:
                ret = drift + momentum * (ret - drift) + shock
                price = price * math.exp(ret)
                closes.append(price)
            rows = bars[first:first + len(shocks)]
            rows[:, 0], rows[:, 3] = closes[:-1], closes[1:]
            with np.errstate(over="ignore", invalid="ignore"):
                rows[:, 1] = np.maximum(rows[:, 0], rows[:, 3]) * _exp(wicks[:, 0])
                rows[:, 2] = np.minimum(rows[:, 0], rows[:, 3]) * _exp(-wicks[:, 1])
            rows[:, 4] = _exp(0.5 * draws[:, 3])  # Generator.lognormal(0.0, 0.5)
        timestamps = array("q", range(start_timestamp, start_timestamp + n_bars * bar_seconds,
                                      bar_seconds))
    except OverflowError as exc:
        raise MarketDataError(f"synthesized bars overflow: {exc}") from exc
    # the wicks bracket open and close by construction, so bars whose values are
    # all finite and > 0 pass load_csv; max and min check that without temporaries
    if not (math.isfinite(bars.max()) and bars.min() > 0):
        raise MarketDataError(f"synthesized prices leave the positive finite range with "
                              f"drift {drift}, volatility {volatility}")
    return Market(np.frombuffer(timestamps, dtype=np.int64), *bars.T)


_SYNTH_RULES = RuleTable(MarketDataError, dict(
    n_bars="[1, inf)", drift="(-inf, inf)", volatility="[0, inf)", seed="[0, inf)",
    start_price="(0, inf)", momentum="(-1, 1)", bar_seconds="[1, inf)",
    start_timestamp="(-inf, inf)"), owner=synthesize_bars)


def _exp(values: np.ndarray) -> list[float]:
    """libm's ``math.exp`` of each value, whose bits ``np.exp`` need not match."""
    return list(map(math.exp, values.tolist()))


def write_bars_csv(market: Market, path) -> None:
    """Write a market in the canonical CSV layout (byte-deterministic), as
    ``csv.writer`` would: a float's ``repr`` never needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_CANONICAL_COLUMNS) + "\r\n")
        for first in range(0, len(market), _CHUNK_ROWS):
            columns = (getattr(market, name)[first:first + _CHUNK_ROWS].tolist()
                       for name in _CANONICAL_COLUMNS)
            handle.write("".join(map("%d,%r,%r,%r,%r,%r\r\n".__mod__, zip(*columns))))
