"""Spans around the public functions of each tradefool layer, from outside.

``Tracer.patched()`` replaces each traced function where its caller looks the
name up (``tradefool.attacks.input_gradient``, ``tradefool.harness.forward``,
``BasicStockEnv.step``, ...) with a wrapper that records a span, and puts the
originals back on exit. Nothing under ``src/`` changes.

A span is (id, name, start, end, parent id, thread id). Spans stay in memory
and are reduced by ``layer_metrics`` after the traced round. A span's self
time is its duration minus the union of the intervals its child spans cover.
A span that starts on a thread with an empty stack (a sweep worker) takes
the ``harness.run_sweep`` span that encloses it in time as parent, so the
sweep's self time is the part of it in which no worker was inside a traced
call.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from tradefool import attacks, cli, dqn, envs, harness, qnet

LAYERS = ("qnet", "attacks", "envs", "market_data", "harness", "dqn", "cli")
# spans reported as <name>.calls and as <name>.self_s
COUNTED_SPANS = (
    "qnet.forward", "qnet.input_gradient", "qnet.td_loss", "qnet.sgd_step",
    "attacks.run_perturbation_attack", "attacks.project_constraints",
    "attacks.least_q_target", "attacks.delay_attack",
    "envs.make_env", "envs.basic.step", "envs.managed.step", "envs.observation", "envs.reset",
    "market_data.load_csv", "market_data.build_feature_series", "harness.export_report",
    "dqn.select_action", "dqn.replay.push", "dqn.replay.sample", "cli.main")
TIMED_SPANS = (
    "qnet.forward", "qnet.input_gradient", "qnet.td_loss", "qnet.sgd_step",
    "qnet.load_checkpoint", "qnet.save_checkpoint",
    "attacks.run_perturbation_attack", "attacks.project_constraints",
    "envs.make_env", "envs.basic.step", "envs.managed.step", "envs.observation",
    "market_data.load_csv", "market_data.build_feature_series",
    "harness.run_sweep", "harness.export_report", "dqn.train", "dqn.select_action",
    "dqn.replay.push", "dqn.replay.sample", "cli.main", "cli.file_digest",
    "cli.append_manifest")


class _ThreadBuffer:
    """One thread's open-span stack, finished spans and counts."""

    def __init__(self):
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def wrap(self, name, fn, observe=None):
        """``fn`` recording one span per call; ``observe(counts, args, result)``
        adds counts taken from the call."""
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._buffer()
            stack = state.stack
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                state.spans.append((span_id, name, start, end, parent, state.tid))
            if observe is not None:
                observe(state.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the original functions on exit."""
        forward = self.wrap("qnet.forward", qnet.forward, _count_rows)
        targets = [
            (cli, "file_digest", self.wrap("cli.file_digest", cli.file_digest)),
            (cli, "append_manifest", self.wrap("cli.append_manifest", cli.append_manifest)),
            (cli, "load_checkpoint", self.wrap("qnet.load_checkpoint", cli.load_checkpoint)),
            (cli, "save_checkpoint", self.wrap("qnet.save_checkpoint", cli.save_checkpoint)),
            (cli, "load_csv", self.wrap("market_data.load_csv", cli.load_csv)),
            (cli, "make_env", self.wrap("envs.make_env", cli.make_env)),
            (cli, "run_sweep", self.wrap("harness.run_sweep", cli.run_sweep,
                                         _count_episodes)),
            (cli, "train", self.wrap("dqn.train", cli.train, _count_train_steps)),
            (envs, "build_feature_series",
             self.wrap("market_data.build_feature_series", envs.build_feature_series)),
            (harness, "export_report", self.wrap("harness.export_report",
                                                 harness.export_report)),
            (harness, "run_perturbation_attack",
             self.wrap("attacks.run_perturbation_attack", harness.run_perturbation_attack,
                       _count_attempt)),
            (harness, "least_q_target", self.wrap("attacks.least_q_target",
                                                  harness.least_q_target)),
            (harness, "delay_attack", self.wrap("attacks.delay_attack", harness.delay_attack)),
            (attacks, "project_constraints", self.wrap("attacks.project_constraints",
                                                       attacks.project_constraints)),
            (attacks, "input_gradient", self.wrap("qnet.input_gradient",
                                                  attacks.input_gradient)),
            (dqn, "td_loss", self.wrap("qnet.td_loss", dqn.td_loss)),
            (dqn, "sgd_step", self.wrap("qnet.sgd_step", dqn.sgd_step)),
            (dqn, "select_action", self.wrap("dqn.select_action", dqn.select_action)),
            (dqn.ReplayBuffer, "push", self.wrap("dqn.replay.push", dqn.ReplayBuffer.push)),
            (dqn.ReplayBuffer, "sample", self.wrap("dqn.replay.sample",
                                                   dqn.ReplayBuffer.sample)),
            (envs.BasicStockEnv, "step", self.wrap("envs.basic.step", envs.BasicStockEnv.step)),
            (envs.ManagedRiskEnv, "step", self.wrap("envs.managed.step",
                                                    envs.ManagedRiskEnv.step)),
        ]
        for env_class in (envs.BasicStockEnv, envs.ManagedRiskEnv):
            targets.append((env_class, "observation",
                            self.wrap("envs.observation", env_class.observation)))
            targets.append((env_class, "reset", self.wrap("envs.reset", env_class.reset)))
        for module in (qnet, harness, attacks, dqn):
            targets.append((module, "forward", forward))
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def main(self, argv) -> int:
        """``tradefool.cli.main`` under a ``cli.main`` span."""
        return self.wrap("cli.main", cli.main)(argv)

    def drain(self):
        """All spans and counts recorded so far; resets the recorder."""
        spans, counts = [], Counter()
        with self._lock:
            for buffer in self._buffers:
                spans.extend(buffer.spans)
                counts.update(buffer.counts)
                buffer.spans = []
                buffer.counts = Counter()
        return spans, counts


def _count_rows(counts, args, result):
    counts["qnet.forward.rows"] += 1 if np.ndim(args[1]) == 1 else len(args[1])


def _count_episodes(counts, args, result):
    counts["harness.episodes"] += len(args[2])


def _count_train_steps(counts, args, result):
    counts["dqn.train.steps"] += args[1].total_timesteps


def _count_attempt(counts, args, result):
    counts["attacks.iterations"] += result.iterations
    counts["attacks.useful"] += result.outcome in (attacks.SUCCESS, attacks.PARTIAL)


def _union_length(intervals, lo, hi) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _resolve_sweep_parents(spans):
    """Point root spans of other threads (parent -1) at the enclosing sweep."""
    sweeps = [(s[2], s[3], s[0]) for s in spans if s[1] == "harness.run_sweep"]
    resolved = []
    for span in spans:
        if span[4] == -1:
            parent = next((sid for start, end, sid in sweeps
                           if start <= span[2] and span[3] <= end), 0)
            span = span[:4] + (parent,) + span[5:]
        resolved.append(span)
    return resolved


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer calls, self seconds, counts, ratios and shares of one round."""
    spans = _resolve_sweep_parents(spans)
    children = defaultdict(list)
    by_id = {}
    for span_id, name, start, end, parent, _ in spans:
        by_id[span_id] = (name, parent)
        children[parent].append((start, end))
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for span_id, name, start, end, *_ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _union_length(children[span_id], start, end)

    def in_attack(span_id) -> bool:
        while span_id:
            name, span_id = by_id.get(span_id, ("", 0))
            if name == "attacks.run_perturbation_attack":
                return True
        return False

    attempts = calls["attacks.run_perturbation_attack"]
    forward_in_attack = sum(1 for span_id, name, *_ in spans
                            if name == "qnet.forward" and in_attack(by_id[span_id][1]))
    metrics = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = calls[name]
    for name in TIMED_SPANS:
        metrics[f"{name}.self_s"] = self_s[name]
    for name in ("qnet.forward.rows", "harness.episodes", "dqn.train.steps",
                 "attacks.iterations"):
        metrics[name] = counts[name]
    metrics["attacks.attempts"] = attempts
    metrics["attacks.useful_ratio"] = counts["attacks.useful"] / attempts if attempts else 0.0
    metrics["attacks.input_gradient_per_attempt"] = \
        calls["qnet.input_gradient"] / attempts if attempts else 0.0
    metrics["attacks.forward_per_attempt"] = forward_in_attack / attempts if attempts else 0.0
    busy = sum(self_s.values())
    metrics["trace.busy_thread_s"] = busy
    for layer in LAYERS:
        layer_self = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
        metrics[f"share.{layer}"] = layer_self / busy if busy else 0.0
    return metrics
