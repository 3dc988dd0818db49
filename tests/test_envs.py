import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefool.envs import (
    BasicStockEnv,
    EnvError,
    ManagedRiskEnv,
    Portfolio,
    build_action_table,
    make_env,
    net_worth,
    sharpe_reward,
)
from tradefool.market_data import synthesize_bars

from conftest import make_market


class TestBasicStep:
    def test_close_reward_hand_formula(self):
        # buy at 100, close at 110, C=0.1 -> 100*(110-100)/100 - 0.1 = 9.9
        bars = make_market([(60 * i, 100, 100, 100, 100) for i in range(12)]
                           + [(60 * (12 + i), 110, 110, 110, 110) for i in range(5)])
        env = BasicStockEnv(bars, commission_pct=0.1, episode_cap=15)
        env.reset(10)
        assert env.step(1).reward == pytest.approx(-0.1)  # buy at 100
        env.step(0)
        assert env.step(2).reward == pytest.approx(9.9)  # close at 110

    def test_close_at_entry_price_costs_commission(self, flat_bars):
        env = BasicStockEnv(flat_bars, commission_pct=0.25)
        env.reset(10)
        assert env.step(1).reward == pytest.approx(-0.25)
        assert env.step(2).reward == pytest.approx(-0.25)

    def test_wait_is_free_and_slides_window(self, trending_bars):
        env = BasicStockEnv(trending_bars)
        env.reset(20)
        obs0 = env.observation()
        result = env.step(0)
        assert result.reward == 0.0 and result.net_worth is None
        # the window slid: old tuple k+1 is new tuple k
        assert np.allclose(env.observation()[:27], obs0[3:30])

    def test_buy_while_holding_is_noop(self, flat_bars):
        env = BasicStockEnv(flat_bars, commission_pct=0.1)
        env.reset(10)
        env.step(1)
        entry = env.entry_price
        assert env.step(1).reward == 0.0
        assert env.holding == 1 and env.entry_price == entry

    def test_close_while_flat_is_noop(self, flat_bars):
        env = BasicStockEnv(flat_bars, commission_pct=0.1)
        env.reset(10)
        assert env.step(2).reward == 0.0
        assert env.holding == 0

    def test_position_flag_and_pnl_observation(self, trending_bars):
        env = BasicStockEnv(trending_bars)
        env.reset(15)
        obs = env.observation()
        assert obs[-2] == 0 and obs[-1] == 0.0
        entry = env.closes[env.cursor]
        env.step(1)
        obs = env.observation()
        assert obs[-2] == 1
        assert obs[-1] == pytest.approx(env.closes[env.cursor] / entry - 1.0)

    def test_out_of_range_action(self, flat_bars):
        env = BasicStockEnv(flat_bars)
        env.reset(10)
        with pytest.raises(EnvError):
            env.step(3)

    def test_terminal_exactly_once_at_cap(self, flat_bars):
        env = BasicStockEnv(flat_bars, episode_cap=25)
        env.reset(10)
        flags = []
        for _ in range(26):
            flags.append(env.step(0).terminal)
        assert flags == [False] * 25 + [True]
        with pytest.raises(EnvError):
            env.step(0)

    def test_terminal_at_data_end(self, flat_bars):
        env = BasicStockEnv(flat_bars[:30], episode_cap=1000)
        env.reset(10)
        steps = 0
        while not env.step(0).terminal:
            steps += 1
        assert env.cursor == len(flat_bars[:30]) - 1

    def test_episode_reward_identity_from_trade_log(self, trending_bars):
        env = BasicStockEnv(trending_bars, commission_pct=0.2, episode_cap=200)
        env.reset(50)
        rng = np.random.default_rng(8)
        total = 0.0
        replayed = 0.0
        entry = None  # the replayed position's entry price, None while flat
        trades = 0
        terminal = False
        while not terminal:
            action = int(rng.integers(3))
            price = env.closes[env.cursor]  # the bar the action executes at
            result = env.step(action)
            total += result.reward
            terminal = result.terminal
            if action == 1 and entry is None:
                entry = price
                replayed -= 0.2
                trades += 1
            elif action == 2 and entry is not None:
                replayed += 100.0 * (price - entry) / entry - 0.2
                entry = None
        assert trades > 1
        assert total == pytest.approx(replayed)


class TestActionTable:
    def test_default_action_space_size(self):
        table = build_action_table((0.02, 0.04, 0.06), (0.01, 0.02, 0.03), 10)
        assert len(table) == 181
        assert table[0].side == "hold"

    def test_minimal_table(self):
        table = build_action_table((0.02,), (0.01,), 1)
        assert len(table) == 3
        assert [a.side for a in table] == ["hold", "buy", "sell"]

    def test_size_three_fractions(self):
        table = build_action_table((0.02,), (0.01,), 3)
        fractions = sorted({a.fraction for a in table if a.side != "hold"})
        assert np.allclose(fractions, [0.333, 0.666, 0.999], atol=1e-12)

    def test_enumeration_is_bijective(self):
        table = build_action_table((0.02, 0.04), (0.01, 0.03), 4)
        keys = {(a.side, a.fraction, a.stop, a.take) for a in table[1:]}
        assert len(keys) == len(table) - 1 == 2 * 4 * 2 * 2

    def test_empty_lists_rejected(self):
        with pytest.raises(EnvError):
            build_action_table((), (0.01,), 3)


def list_sharpe_reward(returns, risk_free=0.0, offset=1e-9):
    """The list-based reference: numpy's own mean and std of the whole history."""
    if not returns:
        return 0.0
    r = np.asarray(returns, dtype=np.float64)
    return float((np.mean(r - risk_free) + offset) / (np.std(r) + offset))


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


magnitudes = st.one_of(st.just(0.0), st.floats(1e-300, 1e150))
signed_returns = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), magnitudes)


class TestSharpeReward:
    @settings(max_examples=200)
    @given(st.lists(signed_returns, max_size=300),
           st.sampled_from([0.0, 1e-4, -0.02, 0.5]), st.sampled_from([1e-9, 1e-12, 1e-3, 1.0]))
    def test_same_bits_as_list_reference(self, returns, risk_free, offset):
        expected = list_sharpe_reward(returns, risk_free, offset)
        assert bits(sharpe_reward(returns, risk_free, offset)) == bits(expected)
        buffer = np.array(returns + [7.0])[:len(returns)]  # a view, as the env passes it
        assert bits(sharpe_reward(buffer, risk_free, offset)) == bits(expected)

    def test_flat_history_is_one(self):
        assert sharpe_reward([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_alternating_returns_tend_to_zero(self):
        value = sharpe_reward([0.01, -0.01] * 50, offset=1e-12)
        assert abs(value) < 1e-9

    def test_hand_computed_ratio(self):
        value = sharpe_reward([0.01, 0.02, 0.03], risk_free=0.0, offset=1e-9)
        assert value == pytest.approx(0.02 / np.std([0.01, 0.02, 0.03]), rel=1e-6)
        assert value == pytest.approx(2.4495, abs=1e-4)

    def test_empty_history_is_zero(self):
        assert sharpe_reward([]) == 0.0


class TestNetWorth:
    def test_default_starting_portfolio(self):
        assert net_worth(Portfolio(cash=10_000.0, asset=10.0), 1000.0) == 20_000.0

    def test_zero_holdings(self):
        assert net_worth(Portfolio(cash=123.0, asset=0.0), 55.0) == 123.0

    def test_linear_in_price(self):
        pf = Portfolio(cash=10.0, asset=2.0)
        assert net_worth(pf, 30.0) - net_worth(pf, 20.0) == pytest.approx(2.0 * 10.0)

    def test_rejects_non_positive_price(self):
        with pytest.raises(EnvError):
            net_worth(Portfolio(cash=1.0, asset=1.0), 0.0)


@pytest.fixture(scope="module")
def managed_bars():
    return synthesize_bars(800, drift=1e-4, volatility=0.01, seed=31, start_price=1000.0)


class TestManagedStep:
    def test_hold_on_flat_prices_preserves_net_worth(self, flat_bars):
        env = ManagedRiskEnv(flat_bars, episode_cap=20)
        env.reset(env._min_start)
        start = net_worth(env.portfolio, env.closes[env.cursor])
        for _ in range(5):
            result = env.step(0)
        assert result.net_worth == pytest.approx(start)

    def test_buy_converts_fraction_of_cash(self, managed_bars):
        # wide bracket so the exit cannot fill on the next bar
        env = ManagedRiskEnv(managed_bars, cash=10_000.0, asset=0.0,
                             stops=(0.5,), takes=(0.5,), size_count=10)
        env.reset(env._min_start)
        price = env.closes[env.cursor]
        buy_full = next(i for i, a in enumerate(env.action_table)
                        if a.side == "buy" and a.fraction == pytest.approx(0.999))
        env.step(buy_full)
        assert env.portfolio.cash == pytest.approx(10.0)
        assert env.portfolio.asset == pytest.approx(9990.0 / price)

    def test_bracket_stop_fills_at_stop_price(self):
        # entry at 100 with 2% stop; next bar dips to 97 -> filled at 98
        prices = [100.0] * 77 + [97.0, 97.0]
        bars = make_market((60 * i, 100.0, 100.0, min(100.0, p), p)
                           for i, p in enumerate(prices))
        env = ManagedRiskEnv(bars, cash=1000.0, asset=0.0, stops=(0.02,), takes=(0.5,),
                             size_count=1, episode_cap=10)
        env.reset(75)  # close 100; the 97-low bar arrives two steps later
        env.step(1)  # buy 99.9% with stop 2%, take 50%
        quantity = env.portfolio.asset
        result = env.step(0)  # advancing onto the 97-low bar triggers the stop
        assert env.portfolio.asset == pytest.approx(0.0)
        assert env.portfolio.cash == pytest.approx(1.0 + quantity * 98.0)
        assert not env.open_orders
        assert result.net_worth < 1000.0

    def test_sell_bracket_reenters_on_price_rise(self):
        prices = [100.0] * 77 + [103.0, 103.0]
        bars = make_market((60 * i, 100.0, max(100.0, p), 100.0, p)
                           for i, p in enumerate(prices))
        env = ManagedRiskEnv(bars, cash=0.0, asset=10.0, stops=(0.02,), takes=(0.5,),
                             size_count=1, episode_cap=10)
        env.reset(75)
        sell_full = next(i for i, a in enumerate(env.action_table) if a.side == "sell")
        env.step(sell_full)  # sell 99.9% of the asset at 100 with stop 2%
        cash_after = env.portfolio.cash
        assert cash_after == pytest.approx(9.99 * 100.0)
        env.step(0)  # high 103 >= 102 -> forced buy-back at 102
        assert env.portfolio.cash == pytest.approx(0.0, abs=1e-9)
        assert env.portfolio.asset == pytest.approx(0.01 + 999.0 / 102.0)
        assert not env.open_orders

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 180), min_size=5, max_size=40), st.integers(0, 10_000))
    def test_cash_and_asset_never_negative(self, actions, seed):
        bars = synthesize_bars(140, drift=0.0, volatility=0.03, seed=seed, start_price=500.0)
        env = ManagedRiskEnv(bars, episode_cap=len(actions) + 5)
        env.reset(env._min_start)
        for action in actions:
            result = env.step(action)
            assert env.portfolio.cash >= 0.0
            assert env.portfolio.asset >= 0.0
            if result.terminal:
                break

    def test_net_worth_conserved_across_commission_free_order(self, managed_bars):
        env = ManagedRiskEnv(managed_bars, commission_pct=0.0)
        env.reset(env._min_start)
        price = env.closes[env.cursor]
        before = net_worth(env.portfolio, price)
        env._execute(env.action_table[5], price)
        assert net_worth(env.portfolio, price) == pytest.approx(before)

    @pytest.mark.parametrize("episode_cap, start_from_end", [
        (250, 400), (30, 400), (250, 60), (1, 60), (250, 1)])
    def test_every_reward_is_the_list_reference(self, managed_bars, episode_cap,
                                                start_from_end):
        # episodes cut by the step cap and by the data end, step 0 included
        env = ManagedRiskEnv(managed_bars, episode_cap=episode_cap, risk_free=1e-5)
        env.reset(len(managed_bars) - 1 - start_from_end)
        rng = np.random.default_rng(episode_cap + start_from_end)
        previous = net_worth(env.portfolio, env.closes[env.cursor])
        returns = []
        while True:
            result = env.step(int(rng.integers(env.n_actions)))
            returns.append(float(result.net_worth / previous - 1.0))
            previous = result.net_worth
            assert bits(result.reward) == bits(list_sharpe_reward(returns, 1e-5))
            if result.terminal:
                break
        assert len(returns) == min(episode_cap + 1, start_from_end)

    def test_terminal_exactly_once(self, managed_bars):
        env = ManagedRiskEnv(managed_bars, episode_cap=30)
        env.reset(env._min_start)
        flags = [env.step(0).terminal for _ in range(31)]
        assert flags == [False] * 30 + [True]


class TestMakeEnv:
    def test_dispatch(self, trending_bars):
        assert isinstance(make_env("basic", trending_bars), BasicStockEnv)
        assert isinstance(make_env("managed", trending_bars), ManagedRiskEnv)
        with pytest.raises(EnvError):
            make_env("exotic", trending_bars)

    @pytest.mark.parametrize("kind", ["basic", "managed"])
    def test_window_too_long_for_the_market_fails_at_construction(self, trending_bars, kind):
        with pytest.raises(EnvError, match="too short"):
            make_env(kind, trending_bars, window=len(trending_bars))

    @pytest.mark.parametrize("fields", [
        {"cash": 0.0, "asset": 0.0}, {"cash": -1.0}, {"asset": float("nan")},
        {"sharpe_offset": 0.0}, {"sharpe_offset": float("nan")},
        {"risk_free": 1.5}, {"risk_free": float("nan")},
    ])
    def test_managed_fields_out_of_range_fail_at_construction(
            self, managed_bars, fields):
        with pytest.raises(EnvError, match="|".join(fields)):
            make_env("managed", managed_bars, **fields)

    @pytest.mark.parametrize("fields", [
        {"cash": 0.0}, {"risk_free": -1.0}, {"risk_free": 1.0},
    ])
    def test_managed_fields_at_their_bounds_build(self, managed_bars, fields):
        env = make_env("managed", managed_bars, **fields)
        env.reset(env._min_start)
        assert np.isfinite(env.step(0).reward)

    # each made a nonsense trade: a managed commission of 250 turned a buy into
    # a negative asset, 100 spent cash for nothing, a basic -5 paid +5 for
    # buying, a take of -0.5 sold every buy back at half price on the next bar,
    # and a stop of 1.5 set a stop price below 0, where no bar reaches it
    @pytest.mark.parametrize("kind, fields", [
        ("managed", {"commission_pct": 250.0}), ("managed", {"commission_pct": 100.0}),
        ("basic", {"commission_pct": 100.0}), ("basic", {"commission_pct": -5.0}),
        ("managed", {"commission_pct": -1e-9}), ("basic", {"commission_pct": float("nan")}),
        ("managed", {"takes": (-0.5,)}), ("managed", {"takes": (0.01, 1.0)}),
        ("managed", {"stops": (1.5,)}), ("managed", {"stops": (0.0, 0.02)}),
        ("managed", {"stops": (float("nan"),)}),
    ])
    def test_trade_fields_out_of_range_fail_at_construction(self, trending_bars, kind,
                                                            fields):
        with pytest.raises(EnvError, match="|".join(fields)):
            make_env(kind, trending_bars, **fields)

    @pytest.mark.parametrize("kind, fields", [
        ("basic", {"commission_pct": 0.0}), ("basic", {"commission_pct": 99.9}),
        ("managed", {"commission_pct": 99.9, "stops": (1e-9,), "takes": (0.999,)}),
    ])
    def test_trade_fields_at_their_bounds_build(self, managed_bars, kind, fields):
        env = make_env(kind, managed_bars, **fields)
        env.reset(env._min_start)
        result = env.step(1)  # a buy
        assert np.isfinite(result.reward)
        if kind == "managed":
            assert env.portfolio.cash >= 0.0 and env.portfolio.asset >= 0.0
