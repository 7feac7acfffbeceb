"""Spans around calls into cknet, kept in memory and written out at the end.

A span records a name, an optional tag (the architecture, or the battery
order), its start and end, the span that was open when it began, and the
run it belongs to (one set-up or one round). A layer's self time is its
span minus the time its direct child spans cover.

The traced training loop calls the same public functions in the same order
as ``cknet.training.train`` (forward, loss, zero_grad, backward, Adam step),
so it ends on the same parameters bit for bit; the benchmark checks that.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from cknet import training

# Architectures of the compare harness, named family + order.
ARCHES = ("ck1", "ck2", "ck3", "ck4", "dense2", "dense3", "dense4")
BATTERY_ORDERS = (1, 2, 3, 4)

# per-layer metric -> span whose median self time (ms) it reports
SELF_TIME_MS = {
    "tensor.backward_ms": "tensor.backward",
    "architectures.forward_ms": "architectures.forward",
    "architectures.eval_direct_ms": "architectures.eval_direct",
    "architectures.eval_state_ms": "architectures.eval_state",
    "training.adam_step_ms": "training.adam_step",
    "training.loss_ms": "training.loss",
    # the step's own time: batch gather, zero_grad, accuracy bookkeeping
    "training.loop_other_ms": "training.step",
    "experiments.perturbation_ms": "experiments.perturbation",
}
PER_ARCH = (
    "architectures.forward_ms",
    "architectures.eval_direct_ms",
    "architectures.eval_state_ms",
    "tensor.backward_ms",
    "training.adam_step_ms",
)
COUNTS = ("training.steps", "training.samples", "training.params", "verify.cases", "verify.failed_checks")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    tag: str | None
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Records spans and counts while enabled; a no-op otherwise."""

    def __init__(self):
        self.enabled = False
        self.run = ""
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._open: list[int] = []

    def begin(self, run: str, enabled: bool) -> None:
        """Start attributing spans to ``run``; record only when ``enabled``."""
        self.run = run
        self.enabled = enabled

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        if not self.enabled:
            yield
            return
        record = Span(len(self.spans), name, tag, perf_counter(), 0.0,
                      self._open[-1] if self._open else None, self.run)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counts[self.run][name] += value

    def train(self, network, dataset, config, tag: str):
        """``training.train`` when disabled; the same loop with spans when enabled."""
        if not self.enabled:
            return training.train(network, dataset, config)
        self.count("training.params", sum(p.data.size for p in network.parameters()))
        rng = np.random.default_rng(config.seed)
        optimizer = training.Adam(network.parameters(), learning_rate=config.learning_rate)
        metrics = []
        n = len(dataset)
        for epoch in range(config.epochs):
            order = rng.permutation(n) if config.shuffle else np.arange(n)
            total_loss = 0.0
            total_correct = 0
            for start in range(0, n, config.batch_size):
                with self.span("training.step", tag):
                    idx = order[start : start + config.batch_size]
                    batch_x = dataset.inputs[idx]
                    batch_y = dataset.labels[idx]
                    with self.span("architectures.forward", tag):
                        logits = network.forward(batch_x, mode="direct")
                    with self.span("training.loss", tag):
                        loss = training.softmax_cross_entropy(logits, batch_y)
                        loss_value = loss.item()
                    if not np.isfinite(loss_value) or loss_value > training.LOSS_DIVERGENCE_LIMIT:
                        raise training.TrainingError(
                            f"loss diverged at epoch {epoch} (loss={loss_value!r})"
                        )
                    network.zero_grad()
                    with self.span("tensor.backward", tag):
                        loss.backward()
                    with self.span("training.adam_step", tag):
                        optimizer.step()
                    total_loss += loss_value * len(idx)
                    total_correct += int((logits.data.argmax(axis=1) == batch_y).sum())
                self.count("training.steps", 1)
                self.count("training.samples", len(idx))
            metrics.append(training.EpochMetrics(epoch, total_loss / n, total_correct / n))
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "tag": s.tag, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run}))
                fh.write("\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tracer: Tracer, setup_runs, traced_runs, traced_walls, untraced_walls) -> dict:
    """Per-layer values from the spans of the traced set-ups and rounds."""
    child_time: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    traced_runs = set(traced_runs)
    self_ms = defaultdict(list)  # (span name, tag or None) -> self times in ms
    step_ms, step_total, backward_total = [], 0.0, 0.0
    setup_s = defaultdict(lambda: defaultdict(float))  # span name -> run -> seconds
    for s in tracer.spans:
        duration = s.end - s.start
        if s.run in traced_runs:
            own = 1e3 * (duration - child_time[s.id])
            self_ms[s.name, None].append(own)
            self_ms[s.name, s.tag].append(own)
            if s.name == "training.step":
                step_ms.append(1e3 * duration)
                step_total += duration
            elif s.name == "tensor.backward":
                backward_total += duration
        elif s.run in setup_runs:
            setup_s[s.name][s.run] += duration

    out = {metric: _median(self_ms[span, None]) for metric, span in SELF_TIME_MS.items()}
    for metric in PER_ARCH:
        for arch in ARCHES:
            out[f"{metric}.{arch}"] = _median(self_ms[SELF_TIME_MS[metric], arch])
    for k in BATTERY_ORDERS:
        out[f"verify.battery_ms.k{k}"] = _median(self_ms["verify.battery", f"k{k}"])
    out["training.step_ms"] = _median(step_ms)
    out["tensor.backward_share"] = backward_total / step_total if step_total else 0.0
    for name in COUNTS:
        counts = [tracer.counts[run][name] for run in traced_runs]
        out[name] = statistics.median_low(counts) if counts else 0
    out["data.generate_s"] = _median(list(setup_s["data.generate"].values()))
    out["architectures.build_s"] = _median(list(setup_s["architectures.build"].values()))
    out["trace.overhead_ratio"] = _median(traced_walls) / _median(untraced_walls) - 1.0
    return out
