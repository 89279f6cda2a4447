"""Measurement helpers: counters, latency recorders, throughput windows.

The registry doubles as the flight recorder's event source: every op
completion, error, and counter bump is mirrored (as one bounded-ring
append) into :data:`repro.obs.flight.RECORDER`, so a postmortem dump
shows the last few thousand things the system did even when tracing was
off.  The mirror is append-only and result-neutral; ``bind_clock``
gives it simulated timestamps.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.flight import RECORDER as _FLIGHT

__all__ = ["LatencyRecorder", "OpStats", "StatsRegistry", "percentile"]


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank-with-interpolation percentile; *p* in [0, 100].

    Accepts an unsorted list; returns NaN on empty input so that callers can
    render missing series without special-casing.
    """
    if not samples:
        return float("nan")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    return _sorted_percentile(sorted(samples), p)


def _sorted_percentile(data: List[float], p: float) -> float:
    """:func:`percentile` of non-empty, already sorted *data*."""
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] + (data[hi] - data[lo]) * frac


class LatencyRecorder:
    """Collects per-operation latency samples for one operation type."""

    def __init__(self):
        self.samples: List[float] = []

    def record(self, latency: float) -> None:
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return sum(self.samples) / len(self.samples)

    def p50(self) -> float:
        return percentile(self.samples, 50.0)

    def p95(self) -> float:
        return percentile(self.samples, 95.0)

    def p99(self) -> float:
        return percentile(self.samples, 99.0)

    def p999(self) -> float:
        return percentile(self.samples, 99.9)


@dataclass
class OpStats:
    """Aggregate results for one operation type over a measurement window."""

    ops: int = 0
    errors: int = 0
    retries: int = 0
    cas_issued: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    def throughput(self, window: float) -> float:
        """Completed operations per second of simulated time."""
        if window <= 0:
            return 0.0
        return self.ops / window


class StatsRegistry:
    """Per-op-type statistics plus free-form counters.

    A single registry is shared by all clients of one system-under-test so
    benchmark harnesses read aggregate numbers from one place.
    """

    def __init__(self):
        self.per_op: Dict[str, OpStats] = defaultdict(OpStats)
        self.counters: Dict[str, float] = defaultdict(float)
        self.window_start: float = 0.0
        self.window_end: Optional[float] = None
        self.recording = True
        self._env = None

    def bind_clock(self, env) -> None:
        """Attach the simulation clock (stamps flight-recorder events)."""
        self._env = env

    def _now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    def op(self, name: str) -> OpStats:
        return self.per_op[name]

    def record_op(self, name: str, latency: float, *, cas: int = 0,
                  retries: int = 0) -> None:
        if _FLIGHT.enabled:
            env = self._env
            _FLIGHT.events.append(
                (env.now if env is not None else 0.0, "op." + name,
                 round(latency * 1e6, 3)))
        if not self.recording:
            return
        stats = self.per_op[name]
        stats.ops += 1
        if cas:
            stats.cas_issued += cas
        if retries:
            stats.retries += retries
        stats.latency.samples.append(latency)

    def record_error(self, name: str) -> None:
        if _FLIGHT.enabled:
            _FLIGHT.events.append((self._now(), "err." + name, None))
        if self.recording:
            self.per_op[name].errors += 1

    def bump(self, counter: str, amount: float = 1.0) -> None:
        if _FLIGHT.enabled:
            _FLIGHT.events.append((self._now(), "ctr." + counter, amount))
        if self.recording:
            self.counters[counter] += amount

    # -- windowing --------------------------------------------------------

    def open_window(self, now: float) -> None:
        """Start a fresh measurement window (drops warm-up samples)."""
        self.per_op = defaultdict(OpStats)
        self.counters = defaultdict(float)
        self.window_start = now
        self.window_end = None
        self.recording = True

    def close_window(self, now: float) -> None:
        self.window_end = now
        self.recording = False

    @property
    def window(self) -> float:
        if self.window_end is None:
            raise RuntimeError("window not closed")
        return self.window_end - self.window_start

    def _safe_window(self) -> float:
        """The window length, or 0.0 when unclosed/zero-length — lets
        summary paths degrade to zero throughput instead of raising."""
        if self.window_end is None:
            return 0.0
        return max(self.window_end - self.window_start, 0.0)

    def total_ops(self) -> int:
        return sum(s.ops for s in self.per_op.values())

    def total_throughput(self) -> float:
        window = self._safe_window()
        if window <= 0:
            return 0.0
        return self.total_ops() / window

    def throughput(self, name: str) -> float:
        return self.per_op[name].throughput(self._safe_window())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Flat dict of headline numbers per op type (for reports)."""
        window = self._safe_window()
        out: Dict[str, Dict[str, float]] = {}
        nan = float("nan")
        for name, stats in sorted(self.per_op.items()):
            # One sort per op type serves all four percentiles.
            data = sorted(stats.latency.samples)
            if data:
                p50, p95, p99, p999 = (_sorted_percentile(data, p)
                                       for p in (50.0, 95.0, 99.0, 99.9))
            else:
                p50 = p95 = p99 = p999 = nan
            out[name] = {
                "ops": stats.ops,
                "throughput": stats.throughput(window),
                "p50_us": p50 * 1e6,
                "p95_us": p95 * 1e6,
                "p99_us": p99 * 1e6,
                "p999_us": p999 * 1e6,
                "mean_cas": stats.cas_issued / stats.ops if stats.ops else 0.0,
                "retries": stats.retries,
                "errors": stats.errors,
            }
        return out
