"""In-memory spans around the public functions of each softhandoff layer.

The tracer replaces a function by a timing wrapper in the namespace its
caller looks it up in (``softhandoff.cli.inner_boundary`` for the CLI,
``softhandoff.conf_sim.run_rx_conferencing`` for ``measure_mux_gains``, the
``softhandoff.gaussian_mi`` module for the oracle workload), so no source
file changes.  Wrappers are installed only for traced passes and removed
afterwards, which keeps untraced passes free of any tracing cost.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

# (module the caller looks the name up in, attribute, span name)
WRAPPED = [
    ("softhandoff.cli", "main", "cli.main"),
    ("softhandoff.cli", "inner_boundary", "inner_bound.inner_boundary"),
    ("softhandoff.cli", "outer_region", "outer_bound.outer_region"),
    ("softhandoff.cli", "mux_region", "mux_gain.mux_region"),
    ("softhandoff.cli", "build_silencing", "conf_sim.build_silencing"),
    ("softhandoff.cli", "run_rx_conferencing", "conf_sim.run_rx_conferencing"),
    ("softhandoff.cli", "run_tx_conferencing", "conf_sim.run_tx_conferencing"),
    ("softhandoff.cli", "measure_mux_gains", "conf_sim.measure_mux_gains"),
    ("softhandoff.cli", "event_log_rows", "conf_sim.event_log_rows"),
    ("softhandoff.conf_sim", "run_rx_conferencing", "conf_sim.run_rx_conferencing"),
    ("softhandoff.conf_sim", "run_tx_conferencing", "conf_sim.run_tx_conferencing"),
    ("softhandoff.gaussian_mi", "layered_covariance", "gaussian_mi.layered_covariance"),
    ("softhandoff.gaussian_mi", "gaussian_mi", "gaussian_mi.gaussian_mi"),
    ("softhandoff.gaussian_mi", "mc_mutual_information", "gaussian_mi.mc_mutual_information"),
]


def _count_result(span: str, kwargs, result) -> dict[str, int]:
    """Work counters recorded at the layer boundary of one call."""
    if span == "inner_bound.inner_boundary":
        return {"inner_bound.bins": len(result)}
    if span in ("conf_sim.run_rx_conferencing", "conf_sim.run_tx_conferencing"):
        return {"conf_sim.users": len(result.per_user), "conf_sim.conf_msgs": len(result.conf_log)}
    if span == "gaussian_mi.mc_mutual_information":
        return {"gaussian_mi.mc_samples": kwargs["samples"]}  # the benchmark always passes it
    return {}


@dataclass
class Span:
    name: str
    pass_id: int
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counters; written out once the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._pass_id, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            counts = self.counters[self._pass_id]
            for key, val in _count_result(name, kwargs, result).items():
                counts[key] += val
            return result

        return wrapper

    @contextlib.contextmanager
    def traced_pass(self, pass_id: int):
        """Install every wrapper for the duration of one pass."""
        self._pass_id = pass_id
        saved = []
        try:
            for mod_name, attr, span in WRAPPED:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, span))
            yield self.counters[pass_id]
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def pass_layers(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds within one pass.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap because calls are sequential.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.pass_id == pass_id and span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, span in enumerate(self.spans):
            if span.pass_id != pass_id:
                continue
            dur = span.end - span.start
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[idx]
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "pass": s.pass_id, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def wrapper_cost(batches: int = 9, calls: int = 2000) -> float:
    """Seconds one span wrapper adds to a call.

    Times batches of a wrapped no-op, each right after a batch of the bare
    no-op, and takes the median of their differences, so that a change of
    the host's speed between batches cancels.
    """
    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration")
    diffs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        diffs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(diffs)
