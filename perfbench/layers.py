"""Per-layer metrics for ``run.py --trace 1``.

The traced run is separate from the timed ones.  After one untraced
repetition it runs the same window twice more, each on a fresh cluster:

* a *profiled* pass under cProfile, with each layer's public entry points
  wrapped on their classes to count and time the calls.  Tracing is off,
  so self times follow an untraced run's code paths.  It gives host
  self-time per ``repro.<module>`` (``*.self_s``) and the entry-point
  counts and host times;
* a *traced* pass with ``Observability(enabled=True)``, for the
  ``obs.attr`` latency split of SEARCH and UPDATE (``attr.*``) and its
  wall time over the untraced one (``obs.trace_overhead``).

Simulator counters (events, NIC and core busy time, cache hits, stats
counters) come from the untraced repetition, read before and after its
timed phase.  No wrapper or profiler is ever active in an untraced pass.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import time
from collections import Counter
from typing import Dict, List, Tuple

import run

HERE = os.path.dirname(os.path.abspath(__file__))

CODEC_METHODS = ("encode", "parity_delta", "reconstruct")


def _timed_generator(gen, key: str, host: Counter):
    """Drive *gen* exactly as ``yield from`` would, adding the host time
    of each resumption to ``host[key]``."""
    clock = time.perf_counter
    value = exc = None
    while True:
        t0 = clock()
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            host[key] += clock() - t0
            return stop.value
        except BaseException:
            host[key] += clock() - t0
            raise
        host[key] += clock() - t0
        exc = value = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:
            exc = thrown


class EntryPoints:
    """Context manager that wraps the layers' public entry points."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.host: Counter = Counter()
        self._saved: List[Tuple[type, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.host.clear()

    def _wrap(self, cls, name: str, wrapper) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _wrap_generator(self, cls, name: str, key: str) -> None:
        orig = getattr(cls, name)
        calls, host = self.calls, self.host

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return _timed_generator(orig(*args, **kwargs), key, host)

        self._wrap(cls, name, wrapper)

    def _wrap_call(self, cls, name: str, key: str, after=None) -> None:
        orig = getattr(cls, name)
        calls, host, clock = self.calls, self.host, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                host[key] += clock() - t0
            calls[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        self._wrap(cls, name, wrapper)

    def __enter__(self) -> "EntryPoints":
        from repro.checkpoint.differential import DifferentialCheckpointer
        from repro.core.api import AcesoClient
        from repro.core.recovery import MemoryNodeRecovery
        from repro.ec.stripe import StripeCodec
        from repro.memory.blocks import BlockStore
        from repro.rdma.network import Fabric

        calls = self.calls

        def count_batch(args, kwargs, _result):
            verbs = args[3] if len(args) > 3 else kwargs["verbs"]
            if len(verbs) > 1:        # one verb is delegated to post()
                calls["rdma.verbs"] += len(verbs)

        def count_verb(_args, _kwargs, _result):
            calls["rdma.verbs"] += 1

        def count_delta(_args, _kwargs, delta):
            calls["checkpoint.delta_bytes"] += delta.compressed_size

        # Generators are timed over every resumption, so the host time
        # covers the whole op and not only the generator's creation.
        self._wrap_generator(AcesoClient, "search", "core.search")
        self._wrap_generator(AcesoClient, "update", "core.update")
        self._wrap_generator(MemoryNodeRecovery, "recover", "recovery")
        self._wrap_call(Fabric, "post", "rdma.post", count_verb)
        self._wrap_call(Fabric, "post_batch", "rdma.post_batch", count_batch)
        self._wrap_call(BlockStore, "allocate", "memory.allocate")
        self._wrap_call(DifferentialCheckpointer, "make_delta",
                        "checkpoint.make_delta", count_delta)
        for codec in StripeCodec.__subclasses__():
            for name in CODEC_METHODS:
                if name in codec.__dict__:
                    self._wrap_call(codec, name, f"ec.{name}")
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved.clear()


def layer_of(filename: str) -> str:
    """``repro.<module>`` of a profiled function (``sched`` split out of
    ``sim``); ``stdlib`` for everything outside the package."""
    parts = filename.replace("\\", "/").split("/")
    if filename.startswith(HERE):
        return "perfbench"
    if "repro" not in parts:
        return "stdlib"
    sub = parts[len(parts) - parts[::-1].index("repro"):]
    if len(sub) == 1:
        return "repro"
    if sub[:2] == ["sim", "sched"]:
        return "sched"
    return sub[0]


def self_times(prof: cProfile.Profile) -> Dict[str, float]:
    out: Counter = Counter()
    for (filename, _line, _func), row in pstats.Stats(prof).stats.items():
        out[layer_of(filename)] += row[2]     # tottime: self time
    return dict(out)


def _attr(obs) -> Dict[str, Dict]:
    from repro.obs.attr import attribution_tables
    return {row["op"]: row for row in attribution_tables(obs)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(wl, seed: int, window: float, untraced):
    """Per-layer metrics ``{name: (value, unit)}``, the read-back
    problems of the traced passes, and a detail dict (self time of every
    module, raw entry-point counts).  *untraced* is the untraced pass's
    :class:`run.Phase` over the same window."""
    from repro.cluster.master import MnState
    from repro.obs import Observability

    # Profiled pass: cProfile and the entry-point wrappers, tracing off,
    # so self times follow the code paths an untraced run takes.
    prof = cProfile.Profile()
    with EntryPoints() as entry:
        setup = run.build(wl, seed, time_streams=True)
        entry.reset()
        gc.collect()
        prof.enable()
        profiled = run.run_phase(wl, setup, window)
        prof.disable()
        calls, host = Counter(entry.calls), Counter(entry.host)
        gen_s = setup.gen_s
        problems = run.read_back(setup)
    selfs = self_times(prof)
    del setup, prof
    gc.collect()

    # Traced pass: Observability on, for the latency attribution.
    obs = Observability(enabled=True)
    setup = run.build(wl, seed, obs=obs)
    traced = run.run_phase(wl, setup, window)
    problems += run.read_back(setup)
    attr = _attr(obs)
    del setup, obs
    gc.collect()

    res, before, after = untraced.result, untraced.before, untraced.after
    ops = res.total_ops
    span = after["now"] - before["now"]
    events = after["events"] - before["events"]
    ctr = res.counters
    updates = res.per_op.get("UPDATE", {}).get("ops", 0)
    mn_ids = sorted(int(k[3:]) for k in before if k.startswith("nic"))
    nic_util = [(after[f"nic{i}"] - before[f"nic{i}"]) / span
                for i in mn_ids]
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    for name, phase in (("profiled", profiled), ("traced", traced)):
        if phase.result.total_ops != ops:
            problems.append(f"{name} pass completed {phase.result.total_ops}"
                            f" ops, untraced {ops}: instrumentation "
                            "perturbed the simulation")

    m: Dict[str, Tuple[float, str]] = {}
    m["sim.events_per_op"] = (_ratio(events, untraced.issued), "events/op")
    m["sim.host_ns_per_event"] = (_ratio(untraced.host_s, events) * 1e9,
                                  "ns")
    m["sim.pending_at_close"] = (after["pending"], "count")
    m["sim.self_s"] = (selfs.get("sim", 0.0), "s")
    m["sched.self_s"] = (selfs.get("sched", 0.0), "s")

    m["rdma.post_calls"] = (calls["rdma.post"] + calls["rdma.post_batch"],
                            "count")
    m["rdma.verbs_per_op"] = (_ratio(calls["rdma.verbs"], profiled.issued),
                              "verbs/op")
    m["rdma.wire_bytes_per_op"] = (
        _ratio(after["wire_bytes"] - before["wire_bytes"], untraced.issued),
        "B/op")
    m["rdma.mn_nic_util_mean"] = (sum(nic_util) / len(nic_util), "fraction")
    m["rdma.mn_nic_util_max"] = (max(nic_util), "fraction")
    m["rdma.self_s"] = (selfs.get("rdma", 0.0), "s")

    m["core.cas_per_write"] = (
        res.per_op.get("UPDATE", {}).get("mean_cas", 0.0), "CAS/op")
    m["core.commit_conflicts_per_write"] = (
        _ratio(ctr.get("commit_conflicts", 0), updates), "count/op")
    m["core.lock_takeovers"] = (ctr.get("lock_takeovers", 0), "count")
    m["core.retry_budget_exceeded"] = (ctr.get("retry_budget_exceeded", 0),
                                       "count")
    m["core.search_host_us"] = (
        _ratio(host["core.search"], calls["core.search"]) * 1e6, "us/op")
    m["core.update_host_us"] = (
        _ratio(host["core.update"], calls["core.update"]) * 1e6, "us/op")
    m["core.self_s"] = (selfs.get("core", 0.0), "s")

    m["index.cache_hit_ratio"] = (_ratio(hits, hits + misses), "fraction")
    m["index.cache_stale_per_op"] = (
        _ratio(ctr.get("cache_slot_changed", 0), ops), "count/op")
    m["index.search_miss"] = (ctr.get("search_miss", 0), "count")
    m["index.self_s"] = (selfs.get("index", 0.0), "s")

    m["memory.blocks_allocated"] = (calls["memory.allocate"], "count")
    m["memory.reused_blocks"] = (ctr.get("reused_blocks", 0), "count")
    m["memory.self_s"] = (selfs.get("memory", 0.0), "s")

    for core in ("rpc", "ec", "ckpt_send", "ckpt_recv"):
        busy = [(after[f"cpu{i}.{core}"] - before[f"cpu{i}.{core}"]) / span
                for i in mn_ids]
        m[f"cluster.mn_cpu_{core}"] = (sum(busy) / len(busy), "fraction")

    for name in CODEC_METHODS:
        m[f"ec.{name}_calls"] = (calls[f"ec.{name}"], "count")
    m["ec.self_s"] = (selfs.get("ec", 0.0), "s")

    m["checkpoint.deltas"] = (calls["checkpoint.make_delta"], "count")
    m["checkpoint.delta_bytes"] = (calls["checkpoint.delta_bytes"], "B")
    m["checkpoint.self_s"] = (selfs.get("checkpoint", 0.0), "s")

    stones = untraced.milestones
    if stones:
        meta = stones[MnState.META_RECOVERED]
        index = stones[MnState.INDEX_RECOVERED]
        m["recovery.meta_ms"] = ((meta - untraced.crash_at) * 1e3, "ms")
        m["recovery.index_ms"] = ((index - meta) * 1e3, "ms")
        m["recovery.block_ms"] = (
            (stones[MnState.RECOVERED] - index) * 1e3, "ms")
    else:
        for tier in ("meta", "index", "block"):
            m[f"recovery.{tier}_ms"] = (0.0, "ms")
    m["recovery.degraded_reads"] = (ctr.get("degraded_reads", 0), "count")
    m["recovery.search_interrupted"] = (ctr.get("search_interrupted", 0),
                                        "count")
    m["recovery.host_s"] = (host["recovery"], "s")

    m["obs.self_s"] = (selfs.get("obs", 0.0), "s")
    m["obs.trace_overhead"] = (traced.host_s / untraced.host_s, "ratio")
    m["workloads.gen_s"] = (gen_s, "s")

    for op, kind, parts in (
            ("SEARCH", "read", ("queue", "service", "rtt", "degraded_read",
                                "other")),
            ("UPDATE", "write", ("queue", "service", "rtt", "lock_wait",
                                 "cas_retry", "other"))):
        row = attr.get(op, {})
        for part in parts:
            m[f"attr.{kind}.{part}_us"] = (row.get(f"{part}_us", 0.0), "us")
    return m, problems, {"self_s": selfs, "entry_calls": dict(calls),
                         "entry_host_s": dict(host),
                         "profile_overhead": profiled.host_s / untraced.host_s}
