import csv
import hashlib
import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefool import market_data
from tradefool.market_data import (
    Market,
    MarketDataError,
    build_feature_series,
    ema,
    load_csv,
    macd,
    rsi,
    synthesize_bars,
    write_bars_csv,
)

from conftest import make_market

COLUMNS = ("timestamp", "open", "high", "low", "close", "volume")
CHUNK = market_data._CHUNK_ROWS
# lengths on either side of the chunk boundaries of synthesize_bars and write_bars_csv
CHUNK_LENGTHS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def write_csv(path, rows, header="timestamp,open,high,low,close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_loads_three_rows_in_order(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5,1", "120,10.5,11,10,10.8,2", "180,10.8,11,10,10.2,0"])
        market = load_csv(path)
        assert len(market) == 3
        assert market.timestamp.tolist() == [60, 120, 180]
        assert market.close[0] == 10.5

    def test_high_below_low_names_the_row(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5,1", "120,10,9,11,10,1"])
        with pytest.raises(MarketDataError, match="row 3"):
            load_csv(path)

    @pytest.mark.parametrize("row", ["120,10,inf,9,10.5,1", "120,10,11,9,nan,1",
                                     "120,10,11,9,10.5,inf", "120,10,11,9,10.5,nan"])
    def test_non_finite_price_or_volume_names_the_row(self, tmp_path, row):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5,1", row])
        with pytest.raises(MarketDataError, match="row 3: prices and volume must be finite"):
            load_csv(path)

    def test_out_of_order_timestamps_rejected_not_reordered(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["120,10,11,9,10.5,1", "60,10,11,9,10.5,1", "180,10,11,9,10.5,1"])
        with pytest.raises(MarketDataError, match="row 3"):
            load_csv(path)

    def test_invalid_row_reported_before_a_later_unparseable_row(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5,1", "120,10,9,11,10,1", "180,ten,11,9,10.5,1"])
        with pytest.raises(MarketDataError, match="row 3: OHLC ordering violated"):
            load_csv(path)

    def test_volume_optional(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5"], header="timestamp,open,high,low,close")
        assert load_csv(path).volume[0] == 0.0

    def test_missing_file_and_empty_series(self, tmp_path):
        with pytest.raises(MarketDataError):
            load_csv(tmp_path / "nope.csv")
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,open,high,low,close\n")
        with pytest.raises(MarketDataError, match="no data rows"):
            load_csv(path)

    @pytest.mark.parametrize("data", [b"timestamp,open,high,low,close\n60,10,11,9,10.5\xe9\n",
                                      b"timestamp,open,high,low,close\xe9\n60,10,11,9,10.5\n"])
    def test_non_utf8_file_is_an_error_naming_the_file(self, tmp_path, data):
        path = tmp_path / "bars.csv"
        path.write_bytes(data)
        with pytest.raises(MarketDataError, match=r"bars\.csv: not UTF-8 text"):
            load_csv(path)

    @given(st.integers(1, 12), st.data(),
           st.sampled_from(["inf", "nan", "zero_price", "negative_volume", "high_below_close",
                            "repeated_timestamp", "short_row"]),
           st.lists(st.booleans(), min_size=13, max_size=13))
    def test_one_bad_row_is_named(self, tmp_path_factory, n_rows, data, fault, blank_after):
        bad = data.draw(st.integers(1 if fault == "repeated_timestamp" else 0, n_rows - 1)
                        if n_rows > 1 else st.just(0))
        if fault == "repeated_timestamp" and bad == 0:
            fault = "short_row"
        rows = [[60 * (i + 1), 10.0 + i, 11.0 + i, 9.0 + i, 10.5 + i, 1.0]
                for i in range(n_rows)]
        row = rows[bad]
        if fault in ("inf", "nan"):
            row[data.draw(st.integers(1, 5))] = fault
        elif fault == "zero_price":
            row[data.draw(st.integers(1, 4))] = 0.0
        elif fault == "negative_volume":
            row[5] = -1.0
        elif fault == "high_below_close":
            row[4] = row[2] + 0.5
        elif fault == "repeated_timestamp":
            row[0] = rows[bad - 1][0]
        else:
            row.pop()
        lines = []
        for i, fields in enumerate(rows):
            lines.append(",".join(map(str, fields)))
            if blank_after[i]:
                lines.append("")  # skipped, and not counted as a row
        path = tmp_path_factory.mktemp("bad") / "bars.csv"
        write_csv(path, lines)
        with pytest.raises(MarketDataError, match=f": row {bad + 2}: "):
            load_csv(path)


# Parts that one path might read differently from the other.
TIMESTAMP_TOKENS = ["1.5", "12.0", "1e3", "1_000", " 7 ", "+8", "-0", str(2**53 + 1),
                    str(2**63), "", "x"]
VALUE_TOKENS = ["nan", "inf", "-Infinity", "1_0.5", "1e3", "12.0", " 10 ", "\t10", "", "ten"]
FIELD_FORMS = ["{}", '"{}"', " {} ", "\t{}", '" {} "', '"{}" ']
BAD_FIELD_FORMS = [' "{}"', '"{}', '{}"']
EXTRA_LINES = [" ", "\t", "  \t", "# note", '""']


@st.composite
def csv_files(draw):
    """CSV text built from the parts the fast path and the row loop must agree
    on. Each field, row and gap between rows goes wrong with chance
    ``noise``/20: a token, a bad quote, a wrong field count or extra lines. At
    0 every file with rows loads."""
    noise = draw(st.sampled_from([0, 1, 4]))

    def noisy():
        return draw(st.integers(0, 19)) < noise

    columns = list(COLUMNS if draw(st.booleans()) else COLUMNS[:5])
    header = draw(st.permutations(columns))
    if draw(st.booleans()):  # a repeated name: only its last column is read
        repeated = draw(st.sampled_from(header))
        header.insert(draw(st.integers(0, header.index(repeated))), repeated)
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    last = {name: i for i, name in enumerate(header)}
    start = draw(st.sampled_from([60, 2**53 - 120, 2**62]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 6))):
        bar = {"timestamp": str(start + 60 * i), "open": repr(10.0 + i), "high": repr(11.0 + i),
               "low": repr(9.0 + i), "close": repr(10.5 + i), "volume": repr(0.5 * i)}
        fields = []
        for at, name in enumerate(header):
            if name not in COLUMNS or last[name] != at:
                fields.append(draw(st.sampled_from(["x", "1", "-1"])))
                continue
            text = bar[name]
            if noisy():
                text = draw(st.sampled_from(TIMESTAMP_TOKENS if name == "timestamp"
                                            else VALUE_TOKENS))
            forms = FIELD_FORMS + BAD_FIELD_FORMS if noisy() else FIELD_FORMS
            fields.append(draw(st.sampled_from(forms)).format(text))
        if noisy():
            if draw(st.booleans()):
                fields.append("1")
            else:
                fields.pop()
        lines.append(",".join(fields))
        if draw(st.integers(0, 3)) == 0:
            lines.append("")  # skipped by both paths
        if noisy():
            lines.extend(draw(st.lists(st.sampled_from(EXTRA_LINES), min_size=1, max_size=2)))
    return newline.join(lines) + newline


def load_outcome(load, path):
    """The market's columns as (dtype, bytes), or the error text."""
    try:
        market = load(path)
    except MarketDataError as exc:
        return str(exc)
    return [(getattr(market, name).dtype.str, getattr(market, name).tobytes())
            for name in COLUMNS]


class TestFastPathMatchesRowLoop:
    @settings(max_examples=300)
    @given(csv_files())
    def test_same_market_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "bars.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_csv, path) == load_outcome(market_data._load_csv_rows, path)

    def test_fast_path_loads_without_the_row_loop(self, tmp_path, monkeypatch):
        def row_loop(path):
            raise AssertionError(f"{path} fell back to the row loop")

        market = synthesize_bars(300, drift=-5e-5, volatility=0.02, momentum=0.4, seed=5)
        write_bars_csv(market, tmp_path / "bars.csv")
        write_csv(tmp_path / "no_volume.csv", ["60,10,11,9,10.5", "120,10.5,11,10,10.8"],
                  header="timestamp,open,high,low,close")
        write_csv(tmp_path / "repeated.csv", ['"60",x,1,10,11,9,10.5', '"120",x,2,10.5,11,10,10.8'],
                  header='"timestamp",close,volume,open,high,low,close')  # the last close is read
        monkeypatch.setattr(market_data, "_load_csv_rows", row_loop)
        loaded = load_csv(tmp_path / "bars.csv")
        for name in COLUMNS:
            assert np.array_equal(getattr(loaded, name), getattr(market, name)), name
        assert load_csv(tmp_path / "no_volume.csv").volume.tolist() == [0.0, 0.0]
        repeated = load_csv(tmp_path / "repeated.csv")
        assert repeated.timestamp.tolist() == [60, 120] and repeated.close.tolist() == [10.5, 10.8]
        assert repeated.open.tolist() == [10.0, 10.5] and repeated.volume.tolist() == [1.0, 2.0]


def relative_tuple(open_, high, low, close):
    return build_feature_series(make_market([(0, open_, high, low, close)]), "relative").values[0]


class TestRelativeFeatures:
    def test_flat_bar_is_zero(self):
        rel_high, rel_low, rel_close = relative_tuple(100, 100, 100, 100)
        assert (rel_high, rel_low, rel_close) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        rel_high, rel_low, rel_close = relative_tuple(100, 102, 99, 101)
        assert rel_high == pytest.approx(0.02)
        assert rel_low == pytest.approx(-0.01)
        assert rel_close == pytest.approx(0.01)

    def test_close_at_low_sample_shape(self):
        # (0, -0.004, -0.004): rel_close equals rel_low when the bar closes on its low
        rel_high, rel_low, rel_close = relative_tuple(100, 100, 99.6, 99.6)
        assert rel_high == 0.0
        assert rel_low == pytest.approx(-0.004)
        assert rel_close == rel_low

    @given(st.floats(10, 1000), st.floats(0, 0.1), st.floats(0, 0.1), st.floats(0, 1))
    def test_ordering_invariants(self, open_, up, down, mix):
        high = open_ * (1 + up)
        low = open_ * (1 - down)
        close = low + mix * (high - low)
        rel_high, rel_low, rel_close = relative_tuple(open_, high, low, close)
        assert rel_high >= 0
        assert rel_low <= 0
        assert rel_low <= rel_close <= rel_high


class TestEma:
    def test_constant_is_fixed_point(self):
        assert np.allclose(ema([5.0] * 10, 4), 5.0)

    def test_period_one_is_identity(self):
        assert np.allclose(ema([0.0, 1.0], 1), [0.0, 1.0])

    def test_hand_recurrence_alpha_half(self):
        assert np.allclose(ema([1.0, 2.0, 3.0], 3), [1.0, 1.5, 2.25])

    def test_bad_period(self):
        with pytest.raises(MarketDataError):
            ema([1.0], 0)


def brute_force_ema(series, period):
    alpha = 2.0 / (period + 1)
    out = [series[0]]
    for x in series[1:]:
        out.append(alpha * x + (1 - alpha) * out[-1])
    return out


class TestMacd:
    def test_constant_closes_give_zero(self):
        assert np.allclose(macd([42.0] * 120), 0.0)

    def test_ramp_eventually_positive_vs_brute_force(self):
        closes = [100.0 + i for i in range(100)]
        line = macd(closes)
        expected = np.array(brute_force_ema(closes, 10)) - np.array(brute_force_ema(closes, 50))
        assert np.allclose(line, expected)
        assert np.all(line[10:] > 0)

    def test_single_element(self):
        assert macd([7.0]).tolist() == [0.0]


def brute_force_rsi(closes, period=20):
    """Independent recurrence used as the oracle for the packaged rsi()."""
    out = [float("nan")] * len(closes)
    deltas = [closes[i + 1] - closes[i] for i in range(len(closes) - 1)]
    if len(deltas) < period:
        return out
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    g = sum(gains[:period]) / period
    l = sum(losses[:period]) / period

    def value(g, l):
        if l == 0:
            return 100.0
        if g == 0:
            return 0.0
        return 100.0 - 100.0 / (1.0 + g / l)

    out[period] = value(g, l)
    for t in range(period, len(deltas)):
        g = (g * (period - 1) + gains[t]) / period
        l = (l * (period - 1) + losses[t]) / period
        out[t + 1] = value(g, l)
    return out


class TestRsi:
    def test_monotone_up_is_100(self):
        closes = [100.0 + i for i in range(60)]
        values = rsi(closes)
        assert np.all(values[20:] == 100.0)

    def test_monotone_down_is_0(self):
        closes = [100.0 - 0.5 * i for i in range(60)]
        values = rsi(closes)
        assert np.all(values[20:] == 0.0)

    def test_symmetric_alternation_averages_to_50(self):
        # Wilder smoothing makes pointwise RSI oscillate around 50; the mean
        # over an even tail (after the transient decays) is 50 exactly.
        closes = [100.0 + (i % 2) for i in range(2000)]
        values = rsi(closes)
        assert abs(np.mean(values[-1000:]) - 50.0) < 1e-9

    def test_matches_brute_force_recurrence(self):
        rng = np.random.default_rng(3)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=200)))
        expected = brute_force_rsi(list(closes))
        got = rsi(closes)
        assert np.allclose(got[21:], expected[21:])
        assert np.all(np.isnan(got[:20]))

    @given(st.lists(st.floats(-0.05, 0.05), min_size=25, max_size=120))
    def test_bounded_0_100(self, log_returns):
        closes = 100.0 * np.exp(np.cumsum(log_returns))
        values = rsi(closes)
        valid = values[~np.isnan(values)]
        assert np.all(valid >= 0.0) and np.all(valid <= 100.0)


# The numpy-scalar loops that ema and rsi ran before their recurrences moved
# to Python floats. Both do the same IEEE double arithmetic in the same order,
# so the checks below use exact equality, never a tolerance.
def reference_ema(series, period):
    values = np.asarray(series, dtype=np.float64)
    alpha = 2.0 / (period + 1.0)
    out = np.empty_like(values)
    out[0] = values[0]
    for t in range(1, values.size):
        out[t] = alpha * values[t] + (1.0 - alpha) * out[t - 1]
    return out


def reference_rsi(closes, period):
    closes = np.asarray(closes, dtype=np.float64)
    out = np.full(closes.size, np.nan)
    if closes.size <= period:
        return out
    deltas = np.diff(closes)
    gains = np.where(deltas > 0, deltas, 0.0)
    losses = np.where(deltas < 0, -deltas, 0.0)
    avg_gain = gains[:period].mean()
    avg_loss = losses[:period].mean()
    out[period] = market_data._rsi_value(avg_gain, avg_loss)
    for t in range(period, deltas.size):
        avg_gain = (avg_gain * (period - 1) + gains[t]) / period
        avg_loss = (avg_loss * (period - 1) + losses[t]) / period
        out[t + 1] = market_data._rsi_value(avg_gain, avg_loss)
    return out


class TestRecurrencesMatchNumpyLoops:
    @pytest.mark.parametrize("period", [1, 2, 5, 10, 20, 50])
    def test_random_series(self, period):
        rng = np.random.default_rng(period)
        for size in (1, 2, period, period + 1, period + 2, 3 * period + 7, 500):
            closes = 100.0 * np.exp(np.cumsum(rng.normal(0, rng.choice([1e-4, 0.01, 0.3]), size)))
            closes[rng.random(size) < 0.2] = closes[0]  # flat steps: zero gains and losses
            assert np.array_equal(ema(closes, period), reference_ema(closes, period))
            assert np.array_equal(rsi(closes, period), reference_rsi(closes, period),
                                  equal_nan=True)
            signed = rng.normal(0, 10, size)
            assert np.array_equal(ema(signed, period), reference_ema(signed, period))

    def test_up_and_down_runs(self):
        for closes in ([100.0 + i for i in range(60)], [100.0 - 0.5 * i for i in range(60)],
                       [100.0 + (i % 2) for i in range(300)]):
            for period in (1, 20):
                assert np.array_equal(rsi(closes, period), reference_rsi(closes, period),
                                      equal_nan=True)


class TestBuildFeatureSeries:
    def test_relative_mode_flat(self, flat_bars):
        series = build_feature_series(flat_bars[:10], "relative")
        assert series.warmup_length == 0
        assert np.allclose(series.values, 0.0)
        assert len(series) == 10

    def test_indicator_mode_warmup(self, trending_bars):
        series = build_feature_series(trending_bars[:60], "indicator")
        assert series.warmup_length == 50
        assert len(series) == 60
        assert np.all(np.isfinite(series.values[50:]))

    def test_too_few_bars_for_indicator_mode(self, trending_bars):
        with pytest.raises(MarketDataError):
            build_feature_series(trending_bars[:40], "indicator")

    def test_warmup_tuples_not_served(self, trending_bars):
        series = build_feature_series(trending_bars[:60], "indicator")
        with pytest.raises(MarketDataError):
            series.tuple_at(49)

    def test_deterministic(self, trending_bars):
        a = build_feature_series(trending_bars[:], "indicator")
        b = build_feature_series(trending_bars[:], "indicator")
        assert a is not b
        assert a.values.tobytes() == b.values.tobytes()

    def test_relative_mode_matches_per_bar_arithmetic(self, trending_bars):
        series = build_feature_series(trending_bars[:], "relative")
        m = trending_bars
        expected = [[(h - o) / o, (l - o) / o, (c - o) / o]
                    for o, h, l, c in zip(m.open.tolist(), m.high.tolist(), m.low.tolist(),
                                          m.close.tolist())]
        assert np.array_equal(series.values, np.array(expected))

    def test_read_only(self, trending_bars):
        series = build_feature_series(trending_bars[:], "relative")
        with pytest.raises(ValueError):
            series.values[0, 0] = 1.0


def reference_synthesize(n_bars, drift=0.0, volatility=0.002, seed=0, start_price=100.0,
                         momentum=0.0, bar_seconds=60, start_timestamp=1_577_836_800):
    """synthesize_bars as a per-bar loop drawing each random number on its own."""
    rng = np.random.default_rng(seed)
    rows, price, prev_ret = [], float(start_price), drift
    for i in range(n_bars):
        ret = drift + momentum * (prev_ret - drift) + volatility * rng.standard_normal()
        prev_ret = ret
        open_, close = price, price * math.exp(ret)
        wick_up = abs(rng.standard_normal()) * volatility * 0.5
        wick_dn = abs(rng.standard_normal()) * volatility * 0.5
        rows.append((start_timestamp + i * bar_seconds, open_,
                     max(open_, close) * math.exp(wick_up), min(open_, close) * math.exp(-wick_dn),
                     close, float(rng.lognormal(mean=0.0, sigma=0.5))))
        price = close
    return rows


def reference_outcome(**params):
    """synthesize_bars as the per-bar reference with the checks of the one-pass
    loop it replaced: the columns, or the text of its MarketDataError."""
    try:
        rows = reference_synthesize(**params)
        array("q", (row[0] for row in rows))
    except OverflowError as exc:
        return f"synthesized bars overflow: {exc}"
    values = np.array([row[1:] for row in rows])
    if not (np.isfinite(values).all() and (values > 0).all()):
        return (f"synthesized prices leave the positive finite range with "
                f"drift {params.get('drift', 0.0)}, volatility {params.get('volatility', 0.002)}")
    return [list(column) for column in zip(*rows)]


def synthesize_outcome(**params):
    """synthesize_bars' columns, or the text of its MarketDataError; a numpy
    warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            market = synthesize_bars(**params)
        except MarketDataError as exc:
            return str(exc)
    return [getattr(market, name).tolist() for name in COLUMNS]


# the acceptance suite's and perfbench's two markets, and the sha256 of their CSVs
BENCHMARK_MARKETS = [
    (dict(n_bars=50_000, drift=1e-4, volatility=0.05, momentum=-0.5, seed=11),
     "ffa2a681bd977e941f14d762d1bbb9399139c840d0dbc94776c259612e0c191e"),
    (dict(n_bars=12_000, drift=2e-4, volatility=0.01, momentum=-0.3, seed=77,
          start_price=1000.0, bar_seconds=3600),
     "b0978f855075d46866bebbc3c08f09c49cf42a06fee0f6ca44e4a55ec7542c51"),
]


class TestSynthesize:
    @pytest.mark.parametrize("n_bars", [50, *CHUNK_LENGTHS])
    def test_zero_volatility_is_flat(self, n_bars):
        market = synthesize_bars(n_bars, drift=0.0, volatility=0.0, seed=9)
        for name in ("open", "high", "low", "close"):
            assert np.all(getattr(market, name) == 100.0)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bars_csv(synthesize_bars(200, drift=1e-4, volatility=0.01, seed=4), a)
        write_bars_csv(synthesize_bars(200, drift=1e-4, volatility=0.01, seed=4), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("params", [
        dict(n_bars=300, drift=-5e-5, volatility=0.02, momentum=0.4, seed=5),
        dict(n_bars=120, drift=2e-4, volatility=0.01, momentum=-0.3, seed=77,
             start_price=1000.0, bar_seconds=3600),
        *(dict(n_bars=n, drift=1e-4, volatility=0.05, momentum=-0.5, seed=11)
          for n in CHUNK_LENGTHS),
    ])
    def test_matches_per_bar_reference(self, params):
        market = synthesize_bars(**params)
        expected = list(zip(*reference_synthesize(**params)))
        for name, column in zip(COLUMNS, expected):
            assert getattr(market, name).tolist() == list(column), name

    def test_round_trips_through_load_csv(self, tmp_path):
        path, again = tmp_path / "bars.csv", tmp_path / "again.csv"
        market = synthesize_bars(300, drift=-5e-5, volatility=0.02, momentum=0.4, seed=5)
        write_bars_csv(market, path)
        loaded = load_csv(path)
        assert len(loaded) == 300
        for name in COLUMNS:
            assert np.array_equal(getattr(loaded, name), getattr(market, name)), name
        write_bars_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("params, digest", BENCHMARK_MARKETS)
    def test_benchmark_markets_keep_their_bytes(self, tmp_path, params, digest):
        write_bars_csv(synthesize_bars(**params), tmp_path / "bars.csv")
        assert hashlib.sha256((tmp_path / "bars.csv").read_bytes()).hexdigest() == digest


class TestSynthesizeErrors:
    @pytest.mark.parametrize("params", [
        dict(n_bars=10, volatility=1e300),  # exp of a finite return
        dict(n_bars=10, drift=-1e6, volatility=2000.0),  # exp of a wick; closes reach 0
        dict(n_bars=100, volatility=1e308),  # some shocks are inf in numpy
    ])
    def test_an_overflowing_exp_is_a_market_data_error(self, params):
        assert synthesize_outcome(**params) == "synthesized bars overflow: math range error"

    @pytest.mark.parametrize("params", [
        dict(n_bars=20, start_timestamp=2**63 - 19, bar_seconds=1),
        dict(n_bars=3, start_timestamp=2**62, bar_seconds=2**62),
        dict(n_bars=1, start_timestamp=-2**63 - 1),
    ])
    def test_timestamps_outside_int64_are_an_error_not_a_wrap(self, params):
        assert synthesize_outcome(**params) == "synthesized bars overflow: int too big to convert"

    @pytest.mark.parametrize("params, last", [
        (dict(n_bars=20, start_timestamp=2**63 - 20, bar_seconds=1), 2**63 - 1),
        (dict(n_bars=3, start_timestamp=-2**63, bar_seconds=2**62), 0),
        (dict(n_bars=1, start_timestamp=2**63 - 1, bar_seconds=10**30), 2**63 - 1),
    ])
    def test_timestamps_up_to_the_int64_ends_are_kept(self, params, last):
        assert synthesize_bars(**params).timestamp[-1] == last

    @pytest.mark.parametrize("params", [
        # closes overflow to inf, then a wick factor of 0 makes a NaN low
        dict(n_bars=2, drift=1.0, volatility=1150.0, seed=0, start_price=1e308),
        # an open near the float maximum times a wick factor overflows in numpy
        dict(n_bars=10, drift=-1.0, volatility=0.1, start_price=1.797e308),
        # prices overflow in the third chunk
        dict(n_bars=2 * CHUNK + 200, drift=0.085, volatility=0.001),
    ])
    def test_prices_leaving_the_finite_range_are_an_error_without_warnings(self, params):
        assert synthesize_outcome(**params) == (
            f"synthesized prices leave the positive finite range with "
            f"drift {params.get('drift', 0.0)}, volatility {params['volatility']}")

    @settings(max_examples=60, deadline=None)
    @given(n_bars=st.sampled_from([1, 2, 7, CHUNK + 1]),
           drift=st.floats(-1e6, 1e6),
           volatility=st.floats(0.0, 1e308),
           momentum=st.floats(-0.99, 0.99),
           start_price=st.floats(5e-324, 1.7976931348623157e308),
           start_timestamp=st.integers(-2**63 - 2, 2**63 + 1),
           bar_seconds=st.integers(1, 2**62),
           seed=st.integers(0, 2**32))
    def test_matches_the_reference_on_any_parameters(self, **params):
        assert synthesize_outcome(**params) == reference_outcome(**params)


def csv_writer_bars(market, path):
    """write_bars_csv as one csv.writer pass over whole columns."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        writer.writerows(zip(market.timestamp.tolist(),
                             *(map(repr, getattr(market, name).tolist()) for name in COLUMNS[1:])))


def odd_market():
    """Values a CSV writer might quote or spell differently, at negative timestamps."""
    values = [-0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"), 0.1, -2.5e-7]
    return Market(np.arange(-4, 4) * 7, *(np.roll(values, shift) for shift in range(5)))


class TestWriteBarsCsv:
    @pytest.mark.parametrize("market", [
        *(pytest.param(lambda n=n: synthesize_bars(n, volatility=0.01, seed=n), id=f"n={n}")
          for n in CHUNK_LENGTHS),
        pytest.param(odd_market, id="odd-values"),
        pytest.param(lambda: synthesize_bars(2 * CHUNK + 1, seed=3)[5:-3], id="slice"),
        pytest.param(lambda: synthesize_bars(3 * CHUNK, seed=3)[1::2], id="step-slice"),
        pytest.param(lambda: synthesize_bars(1)[:0], id="empty"),
    ])
    def test_bytes_equal_a_csv_writer_pass(self, tmp_path, market):
        market = market()
        write_bars_csv(market, tmp_path / "chunked.csv")
        csv_writer_bars(market, tmp_path / "reference.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def traced_peak(call) -> int:
    """The peak bytes that tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """On the 50k-bar benchmark market, passes over whole columns peaked at
    12.0 MB (synthesize_bars, whose result is 2.4 MB) and 10.2 MB
    (write_bars_csv); chunked, they peak at about 2.8 MB and 1.8 MB."""

    def test_synthesize_bars_holds_one_chunk_beyond_its_result(self):
        assert traced_peak(lambda: synthesize_bars(**BENCHMARK_MARKETS[0][0])) < 4.5e6

    def test_write_bars_csv_holds_one_chunk(self, tmp_path):
        market = synthesize_bars(**BENCHMARK_MARKETS[0][0])
        assert traced_peak(lambda: write_bars_csv(market, tmp_path / "bars.csv")) < 3e6


class TestMarket:
    def test_slices_are_read_only_markets(self, trending_bars):
        part = trending_bars[10:20]
        assert isinstance(part, Market) and len(part) == 10
        assert part.close.tolist() == trending_bars.close[10:20].tolist()
        with pytest.raises(ValueError):
            part.close[0] = 1.0
