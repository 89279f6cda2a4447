"""The fabric: posts verbs between NICs, models liveness and completion.

A verb posted from ``src`` to ``dst``:

1. occupies the source NIC (request and/or response bytes, whichever is
   larger; doorbell batching collapses per-message overheads),
2. occupies the destination NIC (full wire size per message),
3. completes half an RTT of propagation after both NICs drain,
4. executes its side effect (memory read/write/CAS) at completion time,
   which serializes all accesses to destination memory,
5. fails with :class:`NodeFailedError` if the destination is dead at post
   or completion time (in-flight verbs are lost on a crash, like real RDMA
   QPs erroring out).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from ..errors import NodeFailedError
from ..sim import Deferred, Environment, Event
from .nic import RNIC
from .verbs import WIRE_HEADER, Opcode, Verb

__all__ = ["Fabric"]

_READ = Opcode.READ


def _finish(alive: Dict[int, bool], dst_id: int, execute):
    """Resolve one posted verb at completion time: fail if the destination
    died in flight, else run the verb's side effect."""
    if not alive.get(dst_id, False):
        raise NodeFailedError(dst_id, "in flight")
    return execute() if execute is not None else None


def _finish_batch(alive: Dict[int, bool], dst_id: int,
                  verbs: Sequence[Verb]) -> list:
    """:func:`_finish` for a doorbell-batched group: every verb's result."""
    if not alive.get(dst_id, False):
        raise NodeFailedError(dst_id, "in flight")
    return [v.execute() if v.execute else None for v in verbs]


class Fabric:
    """Connects all NICs; the single authority on node liveness."""

    def __init__(self, env: Environment):
        self.env = env
        self._nics: Dict[int, RNIC] = {}
        self._alive: Dict[int, bool] = {}
        # Traffic accounting for the bandwidth-interference analyses.
        self.bytes_by_class: Dict[str, int] = {}
        #: Observability bundle (set by the cluster); None or disabled
        #: keeps the post path free of tracing work.
        self.obs = None

    # -- membership --------------------------------------------------------

    def register(self, nic: RNIC) -> RNIC:
        if nic.node_id in self._nics:
            raise ValueError(f"node {nic.node_id} already registered")
        self._nics[nic.node_id] = nic
        self._alive[nic.node_id] = True
        return nic

    def nic(self, node_id: int) -> RNIC:
        return self._nics[node_id]

    def is_alive(self, node_id: int) -> bool:
        return self._alive.get(node_id, False)

    def kill(self, node_id: int) -> None:
        self._alive[node_id] = False

    def revive(self, node_id: int) -> None:
        self._alive[node_id] = True

    # -- posting -----------------------------------------------------------

    def _dead_post(self, dst: RNIC, rtt: float) -> Event:
        """Destination already dead: the QP errors out after a timeout on
        the order of an RTT."""
        node_id = dst.node_id

        def raise_dead():
            raise NodeFailedError(node_id, "post")

        return Deferred(self.env, self.env.now + rtt, raise_dead)

    def post(self, src: RNIC, dst: RNIC, verb: Verb,
             traffic_class: str = "client",
             track: Optional[str] = None) -> Event:
        """Post one verb; the returned event triggers with ``verb.execute()``'s
        result (or ``None``) at completion time.

        This is the hot path (millions of calls per simulated second), so
        it avoids the batch machinery: memoized service times, direct FIFO
        completion-time arithmetic on both NICs, and a single scheduled
        :class:`Deferred` that runs the verb's side effect at completion.
        """
        env = self.env
        config = src.config
        rtt = config.rtt
        alive = self._alive
        dst_id = dst.node_id
        if not alive.get(dst_id, False):
            return self._dead_post(dst, rtt)

        wire = verb.payload + WIRE_HEADER
        opcode = verb.opcode
        if opcode.is_atomic:
            # The destination performs a PCIe read-modify-write.
            dst_key = (wire, 0, 1)
        else:
            dst_key = (wire, 1, 0)
        dst_service = dst._svc_cache.get(dst_key)
        if dst_service is None:
            dst_service = dst.service_time(wire, doorbells=dst_key[1],
                                           atomics=dst_key[2])
        if opcode is _READ:
            # ``src_size`` of a READ is its wire size (the response
            # carries the payload), so both sides share one memo key.
            src_key = dst_key
        else:
            src_key = (verb.src_size(config.inline_max), 1, 0)
        src_service = src._svc_cache.get(src_key)
        if src_service is None:
            src_service = src.service_time(src_key[0])
        bbc = self.bytes_by_class
        bbc[traffic_class] = bbc.get(traffic_class, 0) + wire

        obs = self.obs
        if obs is not None and obs.enabled:
            return self._post_traced(src, dst, [verb], src_service,
                                     dst_service, wire, traffic_class, track)

        # Per-side completion instants re-based through ``now`` exactly the
        # way the event-per-side path computed them (``now + delay``), so
        # timestamps are bit-identical to the unfused engine.
        now = env.now
        t_src = now + (src._pipe.submit_at(src_service) - now)
        t_dst = now + (dst._pipe.submit_at(dst_service) - now)
        t_done = (t_src if t_src > t_dst else t_dst) + rtt
        execute = verb.execute

        return Deferred(env, t_done, partial(_finish, alive, dst_id, execute))

    def post_batch(self, src: RNIC, dst: RNIC, verbs: Sequence[Verb],
                   traffic_class: str = "client",
                   track: Optional[str] = None) -> Event:
        """Post a doorbell-batched group of verbs to one destination.

        With doorbell batching enabled, *both* sides charge the group as
        one doorbell ring plus per-byte wire time (atomics still pay their
        PCIe read-modify-write each): the per-message overhead is paid
        once for the whole group, which is the point of doorbell batching
        (§2.4).  With batching disabled, each message pays its own
        overhead on each side.  The returned event triggers with the list
        of per-verb results — or the single result when one verb was
        posted.

        ``track`` names the trace track a verb span is emitted on when
        tracing is enabled (clients pass their own track so verb spans
        nest under the op span; the default is the source NIC's track).
        """
        if not verbs:
            raise ValueError("empty verb batch")
        if len(verbs) == 1:
            return self.post(src, dst, verbs[0],
                             traffic_class=traffic_class, track=track)
        env = self.env
        rtt = src.config.rtt
        alive = self._alive
        if not alive.get(dst.node_id, False):
            return self._dead_post(dst, rtt)

        inline_max = src.config.inline_max
        src_bytes = 0
        dst_bytes = 0
        atomics = 0
        for v in verbs:
            wire = v.payload + WIRE_HEADER
            dst_bytes += wire
            if v.opcode is _READ:
                src_bytes += wire     # == v.src_size(inline_max)
                continue
            src_bytes += v.src_size(inline_max)
            if v.opcode.is_atomic:
                atomics += 1
        bbc = self.bytes_by_class
        bbc[traffic_class] = bbc.get(traffic_class, 0) + dst_bytes
        if src.config.doorbell_batching:
            # True doorbell batching: one op cost for the group plus the
            # per-byte cost of everything on the wire, on both sides.
            # Both look-ups go to the NICs' service-time memos first,
            # like ``post`` (keys as ``RNIC.service_time`` builds them).
            doorbells = 1 if atomics < len(verbs) else 0
            src_service = src._svc_cache.get((src_bytes, 1, 0))
            if src_service is None:
                src_service = src.service_time(src_bytes, doorbells=1)
            dst_service = dst._svc_cache.get((dst_bytes, doorbells, atomics))
            if dst_service is None:
                dst_service = dst.service_time(dst_bytes,
                                               doorbells=doorbells,
                                               atomics=atomics)
        else:
            src_service = src.service_time(src_bytes,
                                           doorbells=len(verbs))
            dst_service = 0.0
            dst_cache = dst._svc_cache
            for v in verbs:
                wire = v.payload + WIRE_HEADER
                key = (wire, 0, 1) if v.opcode.is_atomic else (wire, 1, 0)
                svc = dst_cache.get(key)
                if svc is None:
                    svc = dst.service_time(wire, doorbells=key[1],
                                           atomics=key[2])
                dst_service += svc

        obs = self.obs
        if obs is not None and obs.enabled:
            return self._post_traced(src, dst, verbs, src_service,
                                     dst_service, dst_bytes, traffic_class,
                                     track)

        now = env.now
        t_src = now + (src._pipe.submit_at(src_service) - now)
        t_dst = now + (dst._pipe.submit_at(dst_service) - now)
        t_done = (t_src if t_src > t_dst else t_dst) + rtt
        return Deferred(env, t_done,
                        partial(_finish_batch, alive, dst.node_id, verbs))

    def _post_traced(self, src: RNIC, dst: RNIC, verbs: Sequence[Verb],
                     src_service: float, dst_service: float, dst_bytes: int,
                     traffic_class: str, track: Optional[str]) -> Event:
        """The tracing-enabled post path: identical timing to the fast
        path, plus per-NIC metrics and one verb span per group."""
        env = self.env
        obs = self.obs
        tracer = obs.tracer
        rtt = src.config.rtt
        alive = self._alive
        single = len(verbs) == 1

        obs.metrics.add(f"bytes.{traffic_class}", dst_bytes)
        if any(v.opcode != Opcode.READ for v in verbs):
            # Write-path occupancy per side — the series behind the
            # paper's §2.4 asymmetry (writes are MN-IOPS-bound).
            obs.metrics.add(f"nic.{src.obs_label}.wbusy", src_service)
            obs.metrics.add(f"nic.{dst.obs_label}.wbusy", dst_service)
        # Captured before submission: the queueing delay a new group
        # sees is the backlog already in the FIFOs, which separates
        # wait from service in the emitted span.
        t_post = env.now
        queue_wait = max(src.backlog(), dst.backlog())

        t_src = t_post + (src.occupy_at(src_service) - t_post)
        t_dst = t_post + (dst.occupy_at(dst_service) - t_post)
        t_done = (t_src if t_src > t_dst else t_dst) + rtt
        dst_id = dst.node_id

        def trace_verb(error: str = "") -> None:
            name = (verbs[0].opcode.name if single
                    else f"batch[{len(verbs)}]")
            span = tracer.complete(
                name, "verb", track or f"nic.{src.obs_label}",
                t_post, env.now,
                bytes=dst_bytes, tc=traffic_class,
                queue_us=round(queue_wait * 1e6, 3),
                service_us=round(dst_service * 1e6, 3),
                rtt_us=round(rtt * 1e6, 3),
            )
            if error:
                span.set(error=error)

        def finish():
            if not alive.get(dst_id, False):
                trace_verb(error="node failed in flight")
                raise NodeFailedError(dst_id, "in flight")
            results = [v.execute() if v.execute else None for v in verbs]
            trace_verb()
            return results[0] if single else results

        return Deferred(env, t_done, finish)

    def transfer(self, src: RNIC, dst: RNIC, size: int, *,
                 chunk: int = 16 * 1024, execute=None,
                 opcode: Opcode = Opcode.WRITE, duty: float = 1.0,
                 traffic_class: str = "bulk") -> Event:
        """Bulk transfer split into *chunk*-sized verbs, posted one at a
        time so foreground verbs interleave between chunks (a background
        stream must not head-of-line-block the NIC FIFO for the whole
        transfer).  ``duty`` < 1 rate-limits the stream to that fraction
        of the wire (QoS for background work such as offline erasure
        coding).  ``execute`` runs once, at the completion of the final
        chunk, and provides the event's value."""
        done = self.env.event()

        if size <= 0:
            try:
                done.succeed(execute() if execute else None)
            except BaseException as exc:
                done.fail(exc)
            return done

        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1]: {duty}")
        idle = 0.0
        if duty < 1.0:
            idle = (chunk / dst.config.bandwidth) * (1.0 / duty - 1.0)
        state = {"remaining": size}

        def post_next(_ev=None):
            if _ev is not None and not _ev.ok:
                done.fail(_ev.value)
                return
            if state["remaining"] <= 0:
                done.succeed(_ev.value if _ev is not None else None)
                return
            this = min(chunk, state["remaining"])
            state["remaining"] -= this
            run = execute if state["remaining"] == 0 else None
            ev = self.post(src, dst, Verb(opcode, this, run),
                           traffic_class=traffic_class)
            if state["remaining"] > 0 and idle > 0:
                ev.add_callback(
                    lambda e: done.fail(e.value) if not e.ok
                    else self.env.timeout(idle).add_callback(
                        lambda _t: post_next(e))
                )
            else:
                ev.add_callback(post_next)

        post_next()
        return done

    # -- convenience wrappers (the hot paths) -------------------------------

    def read(self, src: RNIC, dst: RNIC, size: int, execute=None,
             traffic_class: str = "client",
             track: Optional[str] = None) -> Event:
        return self.post(src, dst, Verb(_READ, size, execute),
                         traffic_class, track)

    def write(self, src: RNIC, dst: RNIC, size: int, execute=None,
              traffic_class: str = "client",
              track: Optional[str] = None) -> Event:
        return self.post(src, dst, Verb(Opcode.WRITE, size, execute),
                         traffic_class=traffic_class, track=track)

    def cas(self, src: RNIC, dst: RNIC, execute,
            traffic_class: str = "client",
            track: Optional[str] = None) -> Event:
        return self.post(src, dst, Verb(Opcode.CAS, 8, execute),
                         traffic_class=traffic_class, track=track)

    def faa(self, src: RNIC, dst: RNIC, execute,
            traffic_class: str = "client",
            track: Optional[str] = None) -> Event:
        return self.post(src, dst, Verb(Opcode.FAA, 8, execute),
                         traffic_class=traffic_class, track=track)
