"""Differential battery: run splitting never changes an artifact.

:meth:`repro.sim.engine.Environment.run` dispatches whole
same-timestamp runs per queue call and claims the result is
bit-identical to one-at-a-time pops.  These tests run real harness
entry points (a fig-runner cell, a chaos scenario, a YCSB window) under
every dispatch variant of ``tests.conftest.DISPATCH_VARIANTS`` — the
shipped queue plus ones that split runs after 1, 2 or 3 entries — and
require the emitted artifacts to match byte-for-byte, modulo the cells
measured with the *host* clock.

The per-entry ordering contract (FIFO ties, in-batch cancels, limits)
is fuzzed separately in ``test_sched_fuzz.py``; the engine conformance
suite (``test_sim_engine.py``) already runs once per variant via the
parametrized ``env`` fixture.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

import repro.sim.engine as engine
from repro.bench.common import SCALES, build_cluster, set_seed, ycsb_result
from repro.bench.parallel import run_targets
from repro.chaos import run_scenario
from repro.obs import Observability
from tests.conftest import DISPATCH_VARIANTS

VARIANTS = list(DISPATCH_VARIANTS)

#: Cells measured with the host clock (see test_determinism).
_HOST_CLOCK_CELLS = {"test_gbps"}


@contextmanager
def _variant(name: str):
    """Make every Environment built inside dispatch as ``name``."""
    old = engine.HeapqScheduler
    engine.HeapqScheduler = DISPATCH_VARIANTS[name]
    try:
        yield
    finally:
        engine.HeapqScheduler = old


def _strip_rows(result):
    return [{k: v for k, v in row.items() if k not in _HOST_CLOCK_CELLS}
            for row in result.rows]


def _verdict_outcomes(result):
    # Detail strings may embed host-clock numbers (e.g. tab02's codec
    # GB/s); the checks and their outcomes must still match exactly.
    return [(v["check"], v["ok"]) for v in result.verdicts]


# ------------------------------------------------------------ provenance

def test_bench_meta_records_backend():
    """Every BENCH json must say which queue produced it."""
    run = run_targets(["tab02"], "smoke", seed=2)[0]
    assert run.result.meta["scheduler"] == "heapq"
    assert "sched_compiled" not in run.result.meta
    assert "sched_migration_target" not in run.result.meta


# ---------------------------------------------------- fig-runner cell

@pytest.mark.slow
def test_fig_runner_identical_across_backends():
    """One tab02 smoke cell: identical rows, verdicts and meta under
    every dispatch variant."""
    outs = {}
    for name in VARIANTS:
        with _variant(name):
            outs[name] = run_targets(["tab02"], "smoke", seed=5)[0].result
    ref = outs[VARIANTS[0]]
    for name in VARIANTS[1:]:
        got = outs[name]
        assert _strip_rows(got) == _strip_rows(ref), name
        assert _verdict_outcomes(got) == _verdict_outcomes(ref), name
        assert got.meta == ref.meta, name


# ------------------------------------------------------------ chaos

def _chaos_bytes(seed: int, obs=None) -> bytes:
    report = run_scenario("mn_single_hot", seed=seed, obs=obs)
    return json.dumps(report, sort_keys=True).encode()


def test_chaos_report_identical_across_backends():
    """Fault injection, recovery timelines, invariant verdicts: the
    whole report serialises to the same bytes under every variant."""
    ref = None
    for name in VARIANTS:
        with _variant(name):
            got = _chaos_bytes(seed=3)
        if ref is None:
            ref = got
        else:
            assert got == ref, name


@pytest.mark.parametrize("name", VARIANTS)
def test_tracing_neutral_under_each_backend(name):
    """Observability stays a pure observer under every variant."""
    with _variant(name):
        plain = _chaos_bytes(seed=3)
        traced = _chaos_bytes(seed=3, obs=Observability(enabled=True))
    assert plain == traced


# ------------------------------------------------------------ YCSB

@pytest.mark.slow
def test_ycsb_window_identical_across_backends():
    """Full measurement window: per-op latencies, counters, durations."""
    outs = {}
    for name in VARIANTS:
        with _variant(name):
            set_seed(11)
            try:
                scale = SCALES["smoke"]
                cluster = build_cluster("aceso", scale)
                res = ycsb_result(cluster, scale, "A")
                outs[name] = {"per_op": res.per_op,
                              "counters": res.counters,
                              "total_ops": res.total_ops,
                              "duration": res.duration}
            finally:
                set_seed(0)
    ref = outs[VARIANTS[0]]
    for name in VARIANTS[1:]:
        assert outs[name] == ref, name
