"""Fixed benchmark inputs: the two synthetic markets and the stored agents.

The markets use the parameters of the acceptance suite. The agents are the
acceptance-scale agents trained on them; ``make_agents.py`` regenerates the
checkpoints through the public ``tradefool train`` command, and
``AGENT_SHA256`` pins their bytes so the benchmark refuses to time anything
against a different agent.
"""

from __future__ import annotations

import hashlib
import os
import time

HERE = os.path.dirname(os.path.abspath(__file__))
AGENT_DIR = os.path.join(HERE, "agents")

BASIC_MARKET = dict(n_bars=50_000, drift=1e-4, volatility=0.05, momentum=-0.5, seed=11)
MANAGED_MARKET = dict(n_bars=12_000, drift=2e-4, volatility=0.01, momentum=-0.3,
                      seed=77, start_price=1000.0, bar_seconds=3600)
MARKETS = {"basic": BASIC_MARKET, "managed": MANAGED_MARKET}

# Training settings of the acceptance fixtures, as `tradefool train` flags
# plus a config-file trainer block.
AGENT_TRAINING = {
    "basic": dict(seed=0, preset="basic", trainer={"preset": "basic"}),
    "managed": dict(seed=3, preset="managed",
                    trainer={"preset": "managed", "clip_rewards": True,
                             "hidden_sizes": [16, 16]}),
}

AGENT_SHA256 = {
    "basic": "98e3430118c6172bd9c0005412268e0abbcc645f0200fa4aa3820e39a5bfc112",
    "managed": "133738c0e46d48f74c41eff70b22d5629cadcf779c09dc287243ff7612a352a4",
}


def agent_path(name: str) -> str:
    return os.path.join(AGENT_DIR, f"{name}.json")


def sha256_file(path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def write_market(name: str, path) -> float:
    """Synthesize one market and write it as CSV; returns the seconds spent
    in ``synthesize_bars``."""
    from tradefool.market_data import synthesize_bars, write_bars_csv

    started = time.perf_counter()
    bars = synthesize_bars(**MARKETS[name])
    seconds = time.perf_counter() - started
    write_bars_csv(bars, path)
    return seconds


def verify_agents() -> None:
    """Refuse to go on when a stored agent is not the one recorded."""
    for name, digest in AGENT_SHA256.items():
        if sha256_file(agent_path(name)) != digest:
            raise SystemExit(f"stored agent {agent_path(name)} does not match its sha256; "
                             f"refusing to time anything")
