#!/usr/bin/env python3
"""End-to-end benchmark of the Aceso reproduction.

Three closed-loop YCSB workloads run through the public API (see
``perfbench/README.md`` for why these three and what each one exercises):

* ``ycsb-a``         smoke geometry, 50% SEARCH / 50% UPDATE, no faults;
* ``ycsb-c-paper``   the paper's geometry (184 clients), 100% SEARCH;
* ``ycsb-a-mncrash`` ``ycsb-a`` with one MN crashed a fixed simulated
  offset into the window, clients running through tiered recovery.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--seconds`` sets the simulated window through a fixed per-workload rate
(simulated seconds per requested host second), so one run measures about
that long on a 2-core host while every ``sim_*`` metric stays a pure
function of ``(workload, seed, seconds)``.

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` reports the per-layer metrics (``perfbench/layers.py``)
from a separate traced run.  Each run reads every key back after the timed
phase and exits non-zero when a value is wrong.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str                  # geometry tier in repro.bench.common.SCALES
    mix: str                    # YCSB core workload letter
    #: Simulated window per requested host second (calibrated on a
    #: 2-core host with the pure-Python event core).
    sim_s_per_host_s: float
    crash: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ycsb-a", "smoke", "A", 0.005),
    Workload("ycsb-c-paper", "paper", "C", 0.0012),
    Workload("ycsb-a-mncrash", "smoke", "A", 0.005, crash=True),
)}

#: Each run repeats set-up plus timed phase this many times on identical
#: inputs.  Host-clock metrics are medians over the repetitions, and the
#: simulated results must repeat bit for bit.
REPS = 5

#: The crashed MN and when it dies, as a fraction of the window.
VICTIM = 1
CRASH_AT = 0.2


def import_repro() -> None:
    """Put the checkout's ``src`` on the path; exit non-zero without a
    result when the benchmark is run outside a full checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/repro not found; run from the root "
                 "of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# set-up: cluster build, load phase, input generation
# ----------------------------------------------------------------------

@dataclass
class Setup:
    """One built and loaded cluster, with the inputs of its timed phase."""

    cluster: object
    runner: object
    streams: List
    #: key -> hashes of every value loaded or issued for it.
    allowed: Dict[bytes, set] = field(default_factory=lambda: defaultdict(set))
    #: Host seconds spent generating inputs (op streams only when timed).
    gen_s: float = 0.0
    #: Ops the clients have taken from their streams.
    pulled: int = 0


def _recorded(stream, setup: Setup):
    """Pass a client's op stream through, counting ops and remembering
    issued values."""
    allowed = setup.allowed
    for op in stream:
        setup.pulled += 1
        if op[0] == "UPDATE":
            allowed[op[1]].add(hash(op[2]))
        yield op


def _timed(stream, setup: Setup):
    """Pass a client's op stream through, adding the host time spent
    generating each op to ``setup.gen_s``."""
    clock = time.perf_counter
    pull = stream.__next__
    while True:
        t0 = clock()
        try:
            op = pull()
        except StopIteration:
            return
        finally:
            setup.gen_s += clock() - t0
        yield op


def build(wl: Workload, seed: int, obs=None,
          time_streams: bool = False) -> Setup:
    """Build the workload's cluster, load every key, and create the
    clients' op streams (``time_streams`` times their generation)."""
    from repro.bench.common import SCALES, build_cluster
    from repro.workloads import WorkloadRunner, ycsb_load_ops, ycsb_stream

    scale = SCALES[wl.scale]
    value_size = scale.kv_size - 64
    cluster = build_cluster("aceso", scale, obs=obs)
    n = len(cluster.clients)
    t0 = time.perf_counter()
    loads = [ycsb_load_ops(c.cli_id, n, scale.total_keys, value_size,
                           seed=seed) for c in cluster.clients]
    setup = Setup(cluster, WorkloadRunner(cluster), [],
                  gen_s=time.perf_counter() - t0)
    for ops in loads:
        for _verb, key, value in ops:
            setup.allowed[key].add(hash(value))
    setup.runner.load(loads)
    streams = [ycsb_stream(wl.mix, c.cli_id, scale.total_keys, value_size,
                           seed=seed) for c in cluster.clients]
    if time_streams:
        streams = [_timed(s, setup) for s in streams]
    setup.streams = [_recorded(s, setup) for s in streams]
    return setup


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------

def window_of(wl: Workload, seconds: float) -> float:
    """Simulated window of one repetition."""
    return seconds / REPS * wl.sim_s_per_host_s


def counters(cluster) -> Dict[str, float]:
    """Cumulative simulator counters, read at a phase boundary through
    public attributes only (adds no events to the environment)."""
    env = cluster.env
    out = {
        "now": env.now,
        "events": env.scheduled_count,
        "pending": len(env.sched),
        "wire_bytes": sum(cluster.fabric.bytes_by_class.values()),
        "cache_hits": sum(c.cache.hits for c in cluster.clients),
        "cache_misses": sum(c.cache.misses for c in cluster.clients),
    }
    for i, mn in cluster.mns.items():
        out[f"nic{i}"] = mn.nic.busy_time
        for core in ("rpc", "ec", "ckpt_send", "ckpt_recv"):
            out[f"cpu{i}.{core}"] = getattr(mn, f"{core}_core").busy_time
    return out


@dataclass
class Phase:
    """What one timed phase produced."""

    result: object              # repro.workloads.RunResult (the window)
    host_s: float
    #: Ops issued in the whole phase: warm-up, window and drain.
    issued: int
    before: Dict[str, float]
    after: Dict[str, float]
    crash_at: float = 0.0
    milestones: Dict[str, float] = field(default_factory=dict)


def run_phase(wl: Workload, setup: Setup, window: float) -> Phase:
    """Closed-loop *window* of the workload, plus (crash workload) the
    remainder of the victim's recovery."""
    from repro.bench.common import SCALES
    from repro.cluster.failures import FailureInjector
    from repro.cluster.master import MnState

    cluster = setup.cluster
    env = cluster.env
    scale = SCALES[wl.scale]
    crash_at = 0.0
    events = {}
    if wl.crash:
        crash_at = env.now + scale.warmup + CRASH_AT * window
        FailureInjector(env, cluster).schedule_mn_crash(crash_at, VICTIM)
        # Milestone events are created untriggered here (no scheduling);
        # recovery triggers these same objects with the time reached.
        events = {s: cluster.master.milestone(VICTIM, s)
                  for s in (MnState.META_RECOVERED, MnState.INDEX_RECOVERED,
                            MnState.RECOVERED)}
    before = counters(cluster)
    pulled = setup.pulled
    t0 = time.perf_counter()
    result = setup.runner.measure(setup.streams, duration=window,
                                  warmup=scale.warmup)
    host_s = time.perf_counter() - t0
    after = counters(cluster)
    # Each retiring client loop takes one op it never issues.
    issued = setup.pulled - pulled - len(cluster.clients)
    if wl.crash:
        env.run_until_event(events[MnState.RECOVERED], limit=env.now + 1.0)
    return Phase(result, host_s, issued, before, after, crash_at,
                 {s: ev.value for s, ev in events.items()})


# ----------------------------------------------------------------------
# correctness: read every key back
# ----------------------------------------------------------------------

def read_back(setup: Setup) -> List[str]:
    """SEARCH every key through the clients; returns the problems found
    (empty when every key holds a value loaded or issued for it)."""
    from repro.errors import KeyNotFoundError

    cluster = setup.cluster
    env = cluster.env
    keys = sorted(setup.allowed)
    got: Dict[bytes, object] = {}

    def reader(client, mine):
        for key in mine:
            try:
                got[key] = yield from client.search(key)
            except KeyNotFoundError:
                got[key] = None

    clients = [c for c in cluster.clients if c.alive]
    procs = [env.process(reader(c, keys[i::len(clients)]),
                         name=f"readback@{c.cli_id}")
             for i, c in enumerate(clients)]
    env.run_until_event(env.all_of(procs), limit=env.now + 10.0,
                        strict=False)
    problems = [f"process {p.name} failed: {p.value!r}"
                for p in env.unexpected_failures()]
    for key in keys:
        if key not in got:
            problems.append(f"{key!r}: read-back never completed")
        elif got[key] is None:
            problems.append(f"{key!r}: not found")
        elif hash(got[key]) not in setup.allowed[key]:
            problems.append(f"{key!r}: value never written for this key")
    return problems


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------

def op_failures(result) -> int:
    """Failed ops in the window: retry-budget give-ups, recorded op
    errors, and key-not-found answers (no key of these workloads is ever
    absent, so every miss is a failure)."""
    counts = result.counters
    errors = sum(int(e.get("errors", 0)) for e in result.per_op.values())
    return (int(counts.get("retry_budget_exceeded", 0))
            + int(counts.get("search_miss", 0)) + errors)


def latency(result, op: str, prefix: str, out: Dict, detail: Dict) -> None:
    entry = result.per_op.get(op)
    if not entry or not entry["ops"]:
        return
    out[f"{prefix}_p50_us"] = (entry["p50_us"], "us")
    out[f"{prefix}_p99_us"] = (entry["p99_us"], "us")
    detail[f"{prefix}_samples"] = int(entry["ops"])
    detail[f"{prefix}_beyond_p99"] = int(entry["ops"] * 0.01)


def simulated(wl: Workload, phase: Phase, detail: Dict) -> Dict:
    """Simulated-clock metrics of one repetition: ``{name: (value,
    unit)}``.  They are a pure function of (workload, seed, window)."""
    res = phase.result
    out = {"sim_mops": (res.total_mops, "Mops")}
    latency(res, "SEARCH", "sim_read", out, detail)
    latency(res, "UPDATE", "sim_write", out, detail)
    failed = op_failures(res)
    out["failed_op_frac"] = (failed / (res.total_ops + failed), "fraction")
    if wl.crash:
        from repro.cluster.master import MnState
        out["recovery_ms"] = (
            (phase.milestones[MnState.RECOVERED] - phase.crash_at) * 1e3,
            "ms")
    return out


def provenance() -> Dict:
    from repro.sim.sched import sched_provenance
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            **sched_provenance()}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def repetition(wl: Workload, seed: int, window: float):
    """Set up, run the timed phase, read every key back.  Returns
    (set-up seconds, phase, problems); the cluster is dropped on return."""
    gc.collect()
    t0 = time.perf_counter()
    setup = build(wl, seed)
    setup_s = time.perf_counter() - t0
    phase = run_phase(wl, setup, window)
    return setup_s, phase, read_back(setup)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (correct, attempted, failed, metrics,
    detail) with metrics as ``{name: (value, unit)}``."""
    window = window_of(wl, seconds)
    detail: Dict = {"workload": wl.name, "seed": seed, "window_s": window,
                    "provenance": provenance()}
    if trace:
        from layers import traced_run
        _setup_s, phase, problems = repetition(wl, seed, window)
        gc.collect()
        metrics, traced_problems, detail["layers"] = traced_run(
            wl, seed, window, phase)
        problems += traced_problems
        phases = [phase]
    else:
        setups, phases, problems = [], [], []
        for rep in range(REPS):
            setup_s, phase, found = repetition(wl, seed, window)
            setups.append(setup_s)
            phases.append(phase)
            problems += found
            if rep == 0:
                # Later repetitions reuse the heap the first one left
                # behind, so only the first peak is the program's own.
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = [p.result.total_ops / p.host_s for p in phases]
        sims = [simulated(wl, p, detail) for p in phases]
        if any(sim != sims[0] for sim in sims):
            problems.append("simulated metrics differ between repetitions "
                            f"of the same inputs: {sims}")
        detail["setup_s_runs"] = setups
        detail["host_ops_per_s_runs"] = rates
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "host_ops_per_s": (statistics.median(rates), "ops/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            **sims[0],
        }
    failed = sum(op_failures(p.result) for p in phases)
    detail["problems"] = problems[:20]
    return (not problems, sum(p.result.total_ops for p in phases) + failed,
            failed, metrics, detail)


def selected_metrics(names: List[str], metrics: Dict) -> Dict:
    """The metrics BENCHMARK.json lists, in its order."""
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]}
            for n in names if n in metrics}


def declared(trace: bool) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Aceso reproduction end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_repro()
    names = declared(bool(args.trace))

    chosen = (list(WORKLOADS.values()) if args.workload == "all"
              else [WORKLOADS[args.workload]])
    correct, attempted, failed, final = True, 0, 0, {}
    for wl in chosen:
        ok, att, fail, metrics, detail = run_workload(
            wl, args.seed, args.seconds, bool(args.trace))
        correct &= ok
        attempted += att
        failed += fail
        print(f"== {wl.name} (seed {args.seed}, "
              f"{detail['window_s'] * 1e3:g} ms simulated window)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
        print(f"  {'correct':36s} {'yes' if ok else 'NO'}"
              f"   ({att} attempted, {fail} failed)")
        print("detail " + json.dumps(detail, sort_keys=True))
        picked = selected_metrics(names, metrics)
        if len(chosen) == 1:
            final = picked
        else:
            final.update({f"{wl.name}/{k}": v for k, v in picked.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
