"""Observability v2: causal span graph, latency attribution, flight
recorder, trend gate."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.bench.common import SCALES, build_cluster, ycsb_result
from repro.config import aceso_config
from repro.errors import ConfigError
from repro.obs import (
    DEFAULT_METRICS_WINDOW,
    METRICS_WINDOW_ENV,
    Observability,
    obs_provenance,
    resolve_metrics_window,
    use_metrics_window,
)
from repro.obs import flight
from repro.obs.attr import (
    COMPONENTS,
    aggregate,
    attribution_tables,
    check_conservation,
    op_breakdowns,
)
from repro.obs.export import chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer

from tests.conftest import make_aceso

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0


class FakeObs:
    """Just enough for attr/export: a tracer and empty metrics."""

    def __init__(self, tracer):
        self.tracer = tracer


def _sum_components(row):
    return sum(row[c] for c in COMPONENTS)


# ------------------------------------------------------------ span graph

def test_span_ids_unique_and_parents_nest():
    clock = FakeClock()
    tr = Tracer(clock, enabled=True)
    with tr.span("outer", cat="op", track="cli0") as outer:
        clock.now = 1.0
        with tr.span("inner", cat="phase", track="cli0") as inner:
            clock.now = 2.0
        clock.now = 3.0
    assert outer.id != inner.id
    assert inner.parent == outer.id
    assert outer.parent is None
    ids = [s.id for s in tr.spans]
    assert len(ids) == len(set(ids))


def test_complete_parents_to_open_span_on_same_track():
    # The mechanism that links fabric verbs to the suspended op span.
    clock = FakeClock()
    tr = Tracer(clock, enabled=True)
    with tr.span("UPDATE", cat="op", track="cli3") as op:
        verb = tr.complete("WRITE", "verb", "cli3", 0.5, 1.5, rtt_us=1.0)
        other = tr.complete("WRITE", "verb", "nic.mn0", 0.5, 1.5)
        clock.now = 2.0
    assert verb.parent == op.id
    assert other.parent is None  # different track: no open parent
    after = tr.complete("WRITE", "verb", "cli3", 2.5, 3.0)
    assert after.parent is None  # op closed, stack empty


def test_clear_resets_ids_and_open_stacks():
    tr = Tracer(FakeClock(), enabled=True)
    with tr.span("a", track="t"):
        pass
    tr.clear()
    assert tr.spans == [] and tr._open == {}
    with tr.span("b", track="t") as sp:
        pass
    assert sp.id == 0


# ------------------------------------------------------- chrome exporter

def test_chrome_trace_round_trip_carries_causal_ids():
    clock = FakeClock()
    obs = Observability(clock, enabled=True)
    with obs.tracer.span("SEARCH", cat="op", track="cli0"):
        obs.tracer.complete("READ", "verb", "cli0", 0.2, 0.8,
                            bytes=256, queue_us=0.1)
        clock.now = 1.0
    obs.tracer.instant("crash.mn0", cat="fault", track="faults")
    payload = json.loads(json.dumps(chrome_trace(obs)))
    events = payload["traceEvents"]
    thread_names = [e for e in events if e.get("name") == "thread_name"]
    assert {e["args"]["name"] for e in thread_names} \
        == {"cli0", "faults"}
    xs = [e for e in events if e["ph"] == "X"]
    assert all("ts" in e and "dur" in e and "id" in e["args"] for e in xs)
    verb = next(e for e in xs if e["name"] == "READ")
    op = next(e for e in xs if e["name"] == "SEARCH")
    assert verb["args"]["parent"] == op["args"]["id"]
    assert verb["args"]["bytes"] == 256  # user args survive
    assert any(e["ph"] == "i" for e in events)


# ----------------------------------------------------------- attribution

def _hand_built_obs():
    """Op [0,10] with overlapping phases and verbs:

    * lock_wait [1,3] (live span), holding a verb [1.2,1.8] *under* it,
    * degraded_read [2,4] (retroactive, overlaps lock_wait),
    * free verbs [5,7] and [6,8] (overlap each other).
    """
    clock = FakeClock()
    tr = Tracer(clock, enabled=True)
    with tr.span("UPDATE", cat="op", track="cli0"):
        clock.now = 1.0
        with tr.span("lock_wait", cat="phase", track="cli0"):
            tr.complete("READ", "verb", "cli0", 1.2, 1.8, rtt_us=1.0)
            clock.now = 3.0
        tr.complete("degraded_read", "phase", "cli0", 2.0, 4.0)
        tr.complete("WRITE", "verb", "cli0", 5.0, 7.0,
                    queue_us=1.0, service_us=1.0, rtt_us=2.0)
        tr.complete("CAS", "verb", "cli0", 6.0, 8.0, rtt_us=1.0)
        clock.now = 10.0
    return FakeObs(tr)


def test_attribution_hand_built_graph():
    rows = op_breakdowns(_hand_built_obs())
    [row] = rows
    assert row["duration_us"] == pytest.approx(10e6)
    # degraded_read outranks lock_wait on the overlap [2,3].
    assert row["degraded_read"] == pytest.approx(2e6)
    assert row["lock_wait"] == pytest.approx(1e6)
    # Free verbs cover [5,8] = 3s, split 1:1:3 by recorded weights
    # (the under-phase READ contributes neither coverage nor weight).
    assert row["queue"] == pytest.approx(0.6e6)
    assert row["service"] == pytest.approx(0.6e6)
    assert row["rtt"] == pytest.approx(1.8e6)
    assert row["other"] == pytest.approx(4e6)
    check_conservation(rows)


def test_attribution_conservation_violation_raises():
    rows = op_breakdowns(_hand_built_obs())
    rows[0]["other"] += 1.0  # 1us leak
    with pytest.raises(AssertionError, match="attribution leak"):
        check_conservation(rows)


def test_attribution_zero_duration_op():
    tr = Tracer(FakeClock(), enabled=True)
    with tr.span("SEARCH", cat="op", track="cli0"):
        pass
    [row] = op_breakdowns(FakeObs(tr))
    assert row["duration_us"] == 0.0
    assert _sum_components(row) == 0.0


def test_aggregate_emits_tail_rows_for_large_groups():
    tr = Tracer(FakeClock(), enabled=True)
    clock_end = 0.0
    for i in range(40):
        dur = 1e-6 * (i + 1)
        tr.complete("SEARCH", "op", f"cli{i}", clock_end, clock_end + dur)
        clock_end += dur
    rows = op_breakdowns(FakeObs(tr))
    agg = aggregate(rows)
    names = [r["op"] for r in agg]
    assert names == ["SEARCH", "SEARCH p99+"]
    tail = agg[1]
    assert tail["count"] < len(rows)
    assert tail["mean_us"] > agg[0]["mean_us"]


def test_attribution_on_real_cluster_conserves():
    # Fast end-to-end: the real verb/phase instrumentation must
    # decompose without leaks on a live (small) cluster.
    from repro.core.store import AcesoCluster
    from tests.conftest import small_cluster_kwargs
    obs = Observability(enabled=True)
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs()), obs=obs)
    cluster.start()
    client = cluster.clients[0]
    for i in range(30):
        key = b"k%03d" % i
        cluster.run_op(client.insert(key, b"v" * 64))
        cluster.run_op(client.search(key))
    rows = op_breakdowns(obs)
    assert len(rows) == 60
    check_conservation(rows)
    # Ops did real fabric work: fabric components are non-trivial.
    fabric = sum(r["queue"] + r["service"] + r["rtt"] for r in rows)
    assert fabric > 0.0


@pytest.mark.slow
@pytest.mark.parametrize("figure", ["fig8", "fig9"])
def test_attribution_conserves_on_figure_smoke(figure):
    # Acceptance: attribution conservation asserted on fig8/fig9 smoke
    # runs (attribution_tables runs check_conservation internally; a
    # leak raises out of run_targets).
    from repro.bench.parallel import run_targets
    [run] = run_targets([figure], "smoke", seed=0, trace=True,
                        trace_dir="/tmp")
    attribution = run.result.meta.get("attribution")
    assert attribution, "traced bench run must attach attribution tables"
    for tables in attribution.values():
        assert any(t["count"] > 0 for t in tables)
        for t in tables:
            total = sum(t[f"{c}_us"] for c in COMPONENTS)
            assert total == pytest.approx(t["mean_us"], rel=1e-6,
                                          abs=1e-3)


# ------------------------------------------------------- flight recorder

def test_flight_ring_evicts_oldest():
    rec = FlightRecorder(cap=16)
    for i in range(40):
        rec.note(float(i), "op.SEARCH", i)
    assert len(rec) == 16
    assert rec.snapshot()[0]["t"] == 24.0
    assert rec.snapshot()[-1]["detail"] == 39


def test_flight_disabled_records_nothing():
    rec = FlightRecorder(cap=16, enabled=False)
    rec.note(0.0, "op.SEARCH")
    assert len(rec) == 0


def test_flight_dump_writes_ring_and_context(tmp_path):
    rec = FlightRecorder(cap=32)
    rec.note(1.0, "op.SEARCH", 12.5)
    rec.note(2.0, "err.UPDATE")
    path = rec.dump("oracle failed!", directory=str(tmp_path),
                    context={"scenario": "mn_crash"})
    assert os.path.basename(path) == "FLIGHT_oracle-failed-.json"
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["reason"] == "oracle failed!"
    assert payload["capacity"] == 32 and payload["recorded"] == 2
    assert payload["events"][0] == {"t": 1.0, "kind": "op.SEARCH",
                                    "detail": 12.5}
    assert payload["events"][1] == {"t": 2.0, "kind": "err.UPDATE"}
    assert payload["context"] == {"scenario": "mn_crash"}
    # Repeat dumps never clobber earlier postmortems.
    second = rec.dump("oracle failed!", directory=str(tmp_path))
    assert second != path and os.path.exists(second)
    assert rec.dumped == [path, second]


def test_stats_registry_feeds_flight_recorder(monkeypatch):
    from repro.sim import stats as stats_mod
    rec = FlightRecorder(cap=64)
    monkeypatch.setattr(stats_mod, "_FLIGHT", rec)
    reg = stats_mod.StatsRegistry()
    clock = FakeClock()
    clock.now = 0.25
    reg.bind_clock(clock)
    reg.record_op("SEARCH", 3e-6)
    reg.record_error("UPDATE")
    reg.bump("commit_conflicts")
    kinds = [kind for _t, kind, _d in rec.events]
    assert kinds == ["op.SEARCH", "err.UPDATE", "ctr.commit_conflicts"]
    assert all(t == 0.25 for t, _k, _d in rec.events)
    # recording=False still feeds the ring (postmortems cover warm-up).
    reg.recording = False
    reg.record_op("SEARCH", 1e-6)
    assert len(rec.events) == 4
    assert reg.per_op["SEARCH"].ops == 1


def test_engine_failure_auto_dumps_flight(tmp_path, monkeypatch):
    monkeypatch.setenv(flight.ENV_DIR, str(tmp_path))
    cluster = make_aceso()

    def boom():
        yield cluster.env.timeout(1e-6)
        raise RuntimeError("boom")

    cluster.env.process(boom(), name="boom")
    flight.note(0.0, "test.marker")
    with pytest.raises(AssertionError, match="boom"):
        cluster.run(until=1e-3)
    dumps = list(tmp_path.glob("FLIGHT_engine-failure*.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text())
    assert payload["context"]["first"] == "boom"
    assert "RuntimeError" in payload["context"]["error"]


def test_forced_chaos_oracle_failure_dumps_flight(tmp_path, monkeypatch):
    # Acceptance: a failing chaos oracle produces FLIGHT_*.json with
    # the last N events, without any --trace flag.
    import repro.chaos.__main__ as chaos_main

    def fake_run_scenario(name, seed=0, obs=None, **_kw):
        return {
            "scenario": name, "seed": seed, "ok": False,
            "checks": [{"invariant": "zero_acked_loss", "ok": False,
                        "detail": "forced for test"}],
            "counters": {"ops_acked": 7, "keys_replayed": 0,
                         "keys_lost": 7},
            "injections": [], "timeline": [], "recoveries": [],
            "sim_time": 0.01,
        }

    monkeypatch.setattr(chaos_main, "run_scenario", fake_run_scenario)
    monkeypatch.setenv(flight.ENV_DIR, str(tmp_path))
    flight.note(0.123, "op.UPDATE", 9.9)
    result = chaos_main.run_matrix(["forced"], [1])
    assert result.verdicts[0]["ok"] is False
    dumps = list(tmp_path.glob("FLIGHT_chaos-forced-s1*.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text())
    assert payload["context"]["failed_checks"] == ["zero_acked_loss"]
    assert any(e["kind"] == "op.UPDATE" for e in payload["events"])


def test_flight_recorder_is_result_neutral():
    # Determinism contract: recorder on vs off, bit-identical results.
    was = flight.RECORDER.enabled
    try:
        flight.RECORDER.enable()
        on = ycsb_fingerprint(seed=3)
        flight.RECORDER.disable()
        off = ycsb_fingerprint(seed=3)
    finally:
        flight.RECORDER.enabled = was
    assert on == off


def ycsb_fingerprint(seed: int):
    from repro.bench.common import set_seed
    set_seed(seed)
    try:
        scale = SCALES["smoke"]
        cluster = build_cluster("aceso", scale)
        res = ycsb_result(cluster, scale, "A")
        return {"per_op": res.per_op, "counters": res.counters,
                "total_ops": res.total_ops, "duration": res.duration}
    finally:
        set_seed(0)


# ------------------------------------------------- metrics window plumbing

def test_resolve_metrics_window_precedence(monkeypatch):
    monkeypatch.delenv(METRICS_WINDOW_ENV, raising=False)
    assert resolve_metrics_window() == DEFAULT_METRICS_WINDOW
    assert resolve_metrics_window("auto") == DEFAULT_METRICS_WINDOW
    monkeypatch.setenv(METRICS_WINDOW_ENV, "0.002")
    assert resolve_metrics_window() == 0.002
    assert resolve_metrics_window(5e-4) == 5e-4  # explicit beats env
    with pytest.raises(ValueError):
        resolve_metrics_window("bogus")
    with pytest.raises(ValueError):
        resolve_metrics_window(-1.0)


def test_use_metrics_window_exports_env(monkeypatch):
    monkeypatch.delenv(METRICS_WINDOW_ENV, raising=False)
    assert use_metrics_window("0.0005") == 5e-4
    assert os.environ[METRICS_WINDOW_ENV] == repr(5e-4)
    assert Observability(FakeClock()).metrics.window == 5e-4


def test_sim_config_metrics_window_validates():
    cfg = aceso_config()
    assert cfg.sim.metrics_window == "auto"
    cfg.sim.metrics_window = "not-a-number"
    with pytest.raises(ConfigError, match="metrics window"):
        cfg.validate()


def test_cluster_config_window_reaches_collector(monkeypatch):
    from repro.core.store import AcesoCluster
    from tests.conftest import small_cluster_kwargs
    monkeypatch.delenv(METRICS_WINDOW_ENV, raising=False)
    cfg = aceso_config(**small_cluster_kwargs())
    cfg.sim.metrics_window = 2e-3
    obs = Observability(enabled=True)
    AcesoCluster(cfg, obs=obs)
    assert obs.metrics.window == 2e-3


def test_obs_provenance_shape(monkeypatch):
    monkeypatch.delenv(METRICS_WINDOW_ENV, raising=False)
    prov = obs_provenance()
    assert prov["metrics_window_s"] == DEFAULT_METRICS_WINDOW
    assert isinstance(prov["flight_recorder"], bool)


# ------------------------------------------------------------ trend gate

def _load_trend():
    path = os.path.join(REPO_ROOT, "tools", "bench_trend.py")
    spec = importlib.util.spec_from_file_location("bench_trend", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _figure_payload(**over):
    base = {
        "figure": "fig9",
        "columns": ["op", "throughput_kops", "p50_us", "p99_us",
                    "wall_s"],
        "rows": [
            {"op": "INSERT", "throughput_kops": 100.0, "p50_us": 10.0,
             "p99_us": 50.0, "wall_s": 12.0},
            {"op": "SEARCH", "throughput_kops": 400.0, "p50_us": 3.0,
             "p99_us": 9.0, "wall_s": 12.0},
        ],
        "verdicts": [
            {"check": "shape", "ok": True, "detail": ""},
            {"check": "flaky", "ok": True, "noisy": True},
        ],
    }
    base.update(over)
    return base


def test_trend_identical_payloads_pass():
    trend = _load_trend()
    diff = trend.compare_figure(_figure_payload(), _figure_payload())
    assert diff.ok and not diff.changes
    assert diff.checked > 0


def test_trend_flags_directional_regressions():
    trend = _load_trend()
    cur = _figure_payload()
    cur["rows"][0]["throughput_kops"] = 90.0   # -10% < -5%: regressed
    cur["rows"][0]["p99_us"] = 54.0            # +8% <= 10% tail slack: ok
    cur["rows"][1]["p50_us"] = 3.6             # +20% > 5%: regressed
    cur["rows"][1]["wall_s"] = 99.0            # wall clock: ignored
    diff = trend.compare_figure(_figure_payload(), cur)
    assert len(diff.regressions) == 2
    assert any("throughput_kops" in r for r in diff.regressions)
    assert any("p50_us" in r for r in diff.regressions)


def test_trend_improvements_and_noisy_verdicts():
    trend = _load_trend()
    cur = _figure_payload()
    cur["rows"][0]["p99_us"] = 30.0  # -40%: improvement, not regression
    cur["verdicts"][1]["ok"] = False  # noisy: excluded
    diff = trend.compare_figure(_figure_payload(), cur)
    assert diff.ok
    assert any("p99_us" in line for line in diff.improvements)


def test_trend_verdict_flip_and_shape_change_regress():
    trend = _load_trend()
    flipped = _figure_payload()
    flipped["verdicts"][0]["ok"] = False
    diff = trend.compare_figure(_figure_payload(), flipped)
    assert any("flipped to FAIL" in r for r in diff.regressions)
    shrunk = _figure_payload()
    shrunk["rows"] = shrunk["rows"][:1]
    diff = trend.compare_figure(_figure_payload(), shrunk)
    assert any("shape changed" in r for r in diff.regressions)


def test_trend_cli_against_committed_baselines(tmp_path):
    # The committed baselines must self-compare clean (the "unchanged
    # tree reports zero regressions" acceptance, minus the bench rerun).
    trend = _load_trend()
    baselines = os.path.join(REPO_ROOT, "benchmarks", "baselines")
    names = sorted(os.listdir(baselines))
    assert names, "committed baselines missing"
    rc = trend.main(["--current-dir", baselines,
                     "--baseline-dir", baselines])
    assert rc == 0
