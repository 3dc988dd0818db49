"""Micro rows: qnet kernels timed on fixed seeded inputs at the basic
agent's shapes (32 -> 64 -> 64 -> 3), reported as median microseconds."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from tradefool.dqn import Transition
from tradefool.qnet import forward, input_gradient, load_checkpoint, sgd_step, td_loss

REPEATS = 7
TARGET_SECONDS = 0.05  # per repeat


def _median_us(fn) -> float:
    started = perf_counter()
    for _ in range(100):
        fn()
    loops = max(1, int(TARGET_SECONDS * 100 / (perf_counter() - started)))
    samples = []
    for _ in range(REPEATS):
        started = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - started) / loops)
    return statistics.median(samples) * 1e6


def micro_rows(checkpoint) -> dict[str, float]:
    net, _ = load_checkpoint(checkpoint)
    rng = np.random.default_rng(1234)
    row = rng.normal(0.0, 0.02, size=net.input_dim)
    batch_rows = rng.normal(0.0, 0.02, size=(32, net.input_dim))
    batch = [Transition(rng.normal(0.0, 0.02, size=net.input_dim),
                        int(rng.integers(net.n_actions)), float(rng.normal()),
                        rng.normal(0.0, 0.02, size=net.input_dim), bool(i % 7 == 0))
             for i in range(32)]
    trainee, target = net.clone(), net.clone()

    def update():
        sgd_step(trainee, td_loss(trainee, target, batch, 0.99), 1e-12)

    return {
        "qnet.forward_1row_us": _median_us(lambda: forward(net, row)),
        "qnet.forward_32rows_us": _median_us(lambda: forward(net, batch_rows)),
        "qnet.input_gradient_us": _median_us(
            lambda: input_gradient(net, row, "cross_entropy", 0)),
        "qnet.update_us": _median_us(update),
    }
