import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradefool.market_data import (
    MarketDataError,
    build_feature_series,
    ema,
    load_csv,
    macd,
    relative_features,
    rsi,
    synthesize_bars,
    write_bars_csv,
)

from conftest import make_bar


def write_csv(path, rows, header="timestamp,open,high,low,close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_loads_three_rows_in_order(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5,1", "120,10.5,11,10,10.8,2", "180,10.8,11,10,10.2,0"])
        bars = load_csv(path)
        assert len(bars) == 3
        assert [b.timestamp for b in bars] == [60, 120, 180]
        assert bars[0].close == 10.5

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

    def test_volume_optional(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5"], header="timestamp,open,high,low,close")
        assert load_csv(path)[0].volume == 0.0

    def test_missing_file_and_empty_series(self, tmp_path):
        with pytest.raises(MarketDataError):
            load_csv(tmp_path / "nope.csv")
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,open,high,low,close\n")
        with pytest.raises(MarketDataError, match="no data rows"):
            load_csv(path)

    def test_schema_mapping(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_csv(path, ["60,10,11,9,10.5"], header="ts,o,h,l,c")
        bars = load_csv(path, schema={"timestamp": "ts", "open": "o", "high": "h",
                                      "low": "l", "close": "c"})
        assert bars[0].high == 11


class TestRelativeFeatures:
    def test_flat_bar_is_zero(self):
        feats = relative_features(make_bar(0, 100, 100, 100, 100))
        assert (feats.rel_high, feats.rel_low, feats.rel_close) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        feats = relative_features(make_bar(0, 100, 102, 99, 101))
        assert feats.rel_high == pytest.approx(0.02)
        assert feats.rel_low == pytest.approx(-0.01)
        assert feats.rel_close == pytest.approx(0.01)

    def test_close_at_low_sample_shape(self):
        # (0, -0.004, -0.004): rel_close equals rel_low when the bar closes on its low
        feats = relative_features(make_bar(0, 100, 100, 99.6, 99.6))
        assert feats.rel_high == 0.0
        assert feats.rel_low == pytest.approx(-0.004)
        assert feats.rel_close == feats.rel_low

    @given(st.floats(10, 1000), st.floats(0, 0.1), st.floats(0, 0.1), st.floats(0, 1))
    def test_ordering_invariants(self, open_, up, down, mix):
        high = open_ * (1 + up)
        low = open_ * (1 - down)
        close = low + mix * (high - low)
        feats = relative_features(make_bar(0, open_, high, low, close))
        assert feats.rel_high >= 0
        assert feats.rel_low <= 0
        assert feats.rel_low <= feats.rel_close <= feats.rel_high


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
        line, signal = macd([42.0] * 120)
        assert np.allclose(line, 0.0)
        assert np.allclose(signal, 0.0)

    def test_ramp_eventually_positive_vs_brute_force(self):
        closes = [100.0 + i for i in range(100)]
        line, _ = macd(closes)
        expected = np.array(brute_force_ema(closes, 10)) - np.array(brute_force_ema(closes, 50))
        assert np.allclose(line, expected)
        assert np.all(line[10:] > 0)

    def test_single_element(self):
        line, signal = macd([7.0])
        assert line.tolist() == [0.0] and signal.tolist() == [0.0]


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
        a = build_feature_series(trending_bars, "indicator")
        b = build_feature_series(trending_bars, "indicator")
        assert a.values.tobytes() == b.values.tobytes()


class TestSynthesize:
    def test_zero_volatility_is_flat(self):
        bars = synthesize_bars(50, drift=0.0, volatility=0.0, seed=9)
        for bar in bars:
            assert bar.open == bar.high == bar.low == bar.close == 100.0

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bars_csv(synthesize_bars(200, drift=1e-4, volatility=0.01, seed=4), a)
        write_bars_csv(synthesize_bars(200, drift=1e-4, volatility=0.01, seed=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips_through_load_csv(self, tmp_path):
        path = tmp_path / "bars.csv"
        bars = synthesize_bars(300, drift=-5e-5, volatility=0.02, momentum=0.4, seed=5)
        write_bars_csv(bars, path)
        loaded = load_csv(path)
        assert len(loaded) == 300
        assert all(math.isclose(x.close, y.close) for x, y in zip(bars, loaded))
