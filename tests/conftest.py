import hypothesis
import numpy as np
import pytest

from tradefool.market_data import Market, _check_bars, synthesize_bars

hypothesis.settings.register_profile("default", max_examples=60, deadline=None)
hypothesis.settings.load_profile("default")


def make_market(rows) -> Market:
    """A validated market from (timestamp, open, high, low, close[, volume]) rows;
    volume defaults to 0."""
    rows = [tuple(row) + (0.0,) * (6 - len(row)) for row in rows]
    market = Market(*(np.array(column) for column in zip(*rows)))
    _check_bars("make_market", market)
    return market


@pytest.fixture(scope="session")
def flat_bars():
    return make_market((60 * i, 100.0, 100.0, 100.0, 100.0) for i in range(400))


@pytest.fixture(scope="session")
def trending_bars():
    return synthesize_bars(2000, drift=2e-4, volatility=0.004, momentum=0.3, seed=7)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
