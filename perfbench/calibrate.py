"""Host speed probe: a fixed kernel that shares no code with tradefool.

On a few cores of a shared machine the speed of the same code flips
between two levels about 1.4x apart, in phases of seconds to minutes.
Timing this kernel just before and after each of the workload's CLI calls
tells the benchmark how fast the host ran around the call, so the call's
seconds can be rescaled to one fixed reference speed. The kernel mixes
interpreted Python with small numpy operations at the agents' shapes, as
the workloads do. It must never change: rescaled seconds are comparable only
under the same kernel and REFERENCE_S.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Seconds of one kernel sample, about its mean on a 2-core 2.0 GHz Xeon VM;
# it only fixes the unit of rescaled seconds.
REFERENCE_S = 0.02
SAMPLES = 10

_RNG = np.random.default_rng(20101138)
_W1 = _RNG.normal(0.0, 0.2, size=(32, 64))
_W2 = _RNG.normal(0.0, 0.2, size=(64, 3))
_X = _RNG.normal(0.0, 1.0, size=32)


def _kernel() -> float:
    total = 0.0
    row = _X.copy()
    history = []
    for step in range(1000):
        hidden = np.maximum(row @ _W1, 0.0)
        q = hidden @ _W2
        action = int(np.argmax(q))
        total += float(q[action])
        history.append((step, action, total))
        row = np.roll(row, 1)
        row[0] = total * 1e-3
        for value in range(40):
            total += (value * step) % 7 * 1e-6
    return total + len(history)


def rescale(seconds: float, host_before: float, host_after: float) -> float:
    """``seconds`` measured between two host probes, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (host_before + host_after)


def host_seconds() -> float:
    """Mean seconds of SAMPLES runs of the kernel. The mean, not the median:
    within a probe the host flips between its fast and slow speeds, and the
    mean follows the share of time spent in each."""
    samples = []
    for _ in range(SAMPLES):
        started = perf_counter()
        _kernel()
        samples.append(perf_counter() - started)
    return statistics.fmean(samples)
