"""Engine micro-benchmark: raw event-dispatch and end-to-end op rates.

Run directly (CI uploads the json artifact)::

    PYTHONPATH=src python benchmarks/sim_perf.py [--json-dir DIR] [--check]

Four probes, smallest to largest:

* ``timeout_churn`` — pure engine throughput: processes that do nothing
  but ``yield env.timeout(...)``; isolates Event/Timeout allocation plus
  the event queue.
* ``fabric_posts`` — RDMA verb completions through the Fabric/RNIC path
  (the Deferred fast path).
* ``ycsb_a`` — a full YCSB-A measurement window on the smoke cluster;
  events/sec here is what bounds every figure runner's wall clock.
* ``flight_overhead`` — the always-on flight recorder's cost over the
  same full-stack window, by direct attribution: count the feed events
  an on-run actually appends, microbenchmark the per-event append in a
  tight loop, and express their product as a fraction of the window's
  CPU time.  (Differencing two multi-second on/off runs cannot resolve
  a sub-1% effect under shared-runner noise — the paired runs are still
  executed, but only to assert result-neutrality: both modes must
  complete the exact same op count.)  The recorder rides every hot
  path, so its cost is contractually bounded: ``--check`` fails if the
  attributed overhead exceeds ``--max-flight-overhead`` (default 5%).

Emits ``BENCH_simperf.json`` with events/sec, ops/sec, ns/event and a
``meta`` provenance block, so regressions show up as a number, not a
feeling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.common import SCALES, build_cluster, run_mix  # noqa: E402
from repro.config import aceso_config  # noqa: E402
from repro.obs import obs_provenance  # noqa: E402
from repro.rdma.network import Fabric  # noqa: E402
from repro.rdma.nic import RNIC  # noqa: E402
from repro.sim import Environment, sched_provenance  # noqa: E402
from repro.workloads import ycsb_stream  # noqa: E402


def _bench_timeout_churn(n_procs: int = 100, n_events: int = 200_000):
    """Pure engine: n_procs generators ping-ponging timeouts."""
    env = Environment()
    per_proc = n_events // n_procs

    def churner(delay):
        for _ in range(per_proc):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(churner(1e-6 * (1 + i % 7)))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    dispatched = n_procs * per_proc
    return {"events": dispatched, "wall_s": wall,
            "events_per_sec": dispatched / wall,
            "ns_per_event": wall / dispatched * 1e9}


def _bench_fabric_posts(n_ops: int = 50_000):
    """Verb completions through the Fabric fast path (one client QP
    hammering one MN with signaled 1 KB WRITEs)."""
    cfg = aceso_config(num_cns=1, clients_per_cn=1, index_buckets=64,
                       blocks_per_mn=8, block_size=64 * 1024, kv_size=1024)
    env = Environment()
    fabric = Fabric(env)
    src = fabric.register(RNIC(env, cfg.cluster.nic, node_id=0, name="cn0"))
    dst = fabric.register(RNIC(env, cfg.cluster.nic, node_id=1, name="mn0"))

    def poster():
        for _ in range(n_ops):
            yield fabric.write(src, dst, 1024)

    proc = env.process(poster())
    start = time.perf_counter()
    env.run_until_event(proc)
    wall = time.perf_counter() - start
    return {"ops": n_ops, "wall_s": wall,
            "ops_per_sec": n_ops / wall,
            "ns_per_op": wall / n_ops * 1e9}


def _bench_ycsb_a():
    """Full-stack: one YCSB-A measurement window at smoke scale."""
    scale = SCALES["smoke"]
    cluster = build_cluster("aceso", scale)
    start = time.perf_counter()
    res = run_mix(cluster, scale,
                  lambda cli_id: ycsb_stream("A", cli_id, scale.total_keys,
                                             scale.kv_size - 64))
    wall = time.perf_counter() - start
    events = cluster.env.scheduled_count  # events scheduled, whole run
    return {"total_ops": res.total_ops, "wall_s": wall,
            "sim_events": events,
            "events_per_sec": events / wall,
            "ops_per_sec": res.total_ops / wall,
            "sim_mops": res.total_ops / res.duration / 1e6}


#: Tight-loop iterations for the per-event append microbenchmark.
FLIGHT_CALIB_EVENTS = 200_000


def _bench_flight_overhead():
    """Flight-recorder cost over a full-stack YCSB-A window.

    Two independent measurements, deliberately *not* a paired wall-clock
    diff (shared CI runners show +-10% run-to-run variance on a 2 s
    window — differencing that cannot resolve the recorder's sub-1%
    true cost and the gate would flap):

    * result-neutrality: one run with the ring enabled, one disabled;
      both must complete the exact same op count (hard assert);
    * attributed overhead: the enabled run counts the events it
      actually fed (deterministic), a tight loop replays those appends
      to price one (``ns_per_event``), and the gate metric is
      ``feed_events * ns_per_event / window_cpu``.
    """
    from collections import deque

    from repro.obs.flight import RECORDER

    scale = SCALES["smoke"]

    def run_once():
        cluster = build_cluster("aceso", scale)
        start = time.process_time()
        res = run_mix(cluster, scale,
                      lambda cli_id: ycsb_stream("A", cli_id,
                                                 scale.total_keys,
                                                 scale.kv_size - 64))
        return time.process_time() - start, res.total_ops

    was_enabled, was_ring = RECORDER.enabled, RECORDER.events
    try:
        # Enabled run on an unbounded ring so the feed count is exact.
        RECORDER.enabled = True
        RECORDER.events = deque()
        cpu_on, ops_on = run_once()
        fed = list(RECORDER.events)

        RECORDER.enabled = False
        cpu_off, ops_off = run_once()
    finally:
        RECORDER.enabled, RECORDER.events = was_enabled, was_ring
    if ops_on != ops_off:
        raise AssertionError(
            f"flight recorder perturbed results: {ops_on} ops recorded "
            f"on vs {ops_off} off")

    # Price one append by replaying recorded events through a bounded
    # ring, re-executing the op-feed body (clock read, prefix concat,
    # round, tuple build, append) — the most expensive of the three
    # StatsRegistry feed variants, so this is an upper bound.
    class _Clock:
        __slots__ = ("now",)
    clock = _Clock()
    ring = deque(maxlen=was_ring.maxlen)
    sample = [(t, k.split(".", 1)[-1], d if isinstance(d, float) else 0.0)
              for t, k, d in fed[:1024]] or [(0.0, "NOOP", 0.0)]
    reps = max(1, FLIGHT_CALIB_EVENTS // len(sample))
    calib0 = time.process_time()
    for _ in range(reps):
        for t, name, lat in sample:
            clock.now = t
            ring.append((clock.now, "op." + name, round(lat * 1e6, 3)))
    calib = time.process_time() - calib0
    ns_per_event = calib / (reps * len(sample)) * 1e9

    window_cpu = min(cpu_on, cpu_off)
    overhead_pct = (len(fed) * ns_per_event * 1e-9) / window_cpu * 100.0
    return {"ops": ops_on, "ring_capacity": was_ring.maxlen,
            "feed_events": len(fed), "ns_per_event": ns_per_event,
            "cpu_on_s": cpu_on, "cpu_off_s": cpu_off,
            "overhead_pct": overhead_pct}


def _fmt(row: dict) -> str:
    return ", ".join(f"{k}={v:,.1f}" if isinstance(v, float) else
                     f"{k}={v:,}" if isinstance(v, int) else f"{k}={v}"
                     for k, v in row.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_simperf.json")
    parser.add_argument("--no-json", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="perf gate: exit 1 if the flight recorder's "
                             "attributed CPU overhead exceeds "
                             "--max-flight-overhead")
    parser.add_argument("--max-flight-overhead", type=float, default=5.0,
                        help="flight-recorder overhead ceiling in "
                             "percent for --check (default: 5.0)")
    args = parser.parse_args(argv)

    results = {}
    for name, fn in (("timeout_churn", _bench_timeout_churn),
                     ("fabric_posts", _bench_fabric_posts),
                     ("ycsb_a", _bench_ycsb_a),
                     ("flight_overhead", _bench_flight_overhead)):
        results[name] = fn()
        print(f"{name}: {_fmt(results[name])}")

    flight = results["flight_overhead"]
    print(f"[flight recorder: {flight['overhead_pct']:+.3f}% attributed "
          f"CPU overhead ({flight['feed_events']:,} feed events at "
          f"{flight['ns_per_event']:.0f} ns) over {flight['ops']:,} ops]")

    if not args.no_json:
        path = os.path.join(args.json_dir, "BENCH_simperf.json")
        meta = {"flight_overhead_pct": round(flight["overhead_pct"], 3),
                **sched_provenance(), **obs_provenance()}
        with open(path, "w") as fh:
            json.dump({"benchmark": "simperf", "meta": meta,
                       "results": results}, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {path}]")

    if args.check:
        if flight["overhead_pct"] > args.max_flight_overhead:
            print(f"PERF GATE FAIL: flight recorder costs "
                  f"{flight['overhead_pct']:.2f}% CPU, ceiling is "
                  f"{args.max_flight_overhead}%", file=sys.stderr)
            return 1
        print(f"PERF GATE PASS: flight overhead "
              f"{flight['overhead_pct']:.2f}% "
              f"<= {args.max_flight_overhead}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
