"""The simulation engine's event queue.

A binary heap (:mod:`heapq`) of ``(when, seq, item)`` tuples ordered by
``(when, seq)``.  ``seq`` is a monotonically increasing integer assigned
at push time, which is what gives the simulator its FIFO tie-break
contract: two events scheduled for the same instant dispatch in
insertion order.

Interface used by :class:`repro.sim.engine.Environment`:

``push(when, item) -> seq``
    Enqueue ``item`` at time ``when``; returns the entry's seq.
``pop(limit=None) -> (when, seq, item) | None``
    Remove and return the minimum entry, or ``None`` when the queue is
    empty or the minimum is later than ``limit``.
``pop_run(limit=None) -> (when, items) | None``
    Remove and return *every* entry sharing the minimum timestamp, in
    seq (FIFO) order — the engine's batched-dispatch path.  The list
    is live: cancelling a not-yet-dispatched member nulls its slot, so
    consumers must skip ``None`` items.
``cancel(seq) -> bool``
    Cancel a *pending* entry (caller guarantees ``seq`` has not yet
    dispatched): a member of the current ``pop_run`` batch has its slot
    nulled, anything still queued gets a lazy-deletion tombstone.
``len(sched)``
    Live (non-cancelled, un-popped) entry count.
``sched.pushes``
    Total entries ever pushed (the engine's event counter).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Optional, Tuple

__all__ = ["HeapqScheduler", "sched_provenance"]


def sched_provenance() -> Dict[str, object]:
    """Provenance block for BENCH json meta: the event queue in use."""
    return {"scheduler": "heapq"}


class HeapqScheduler:
    """:mod:`heapq` over a list of ``(when, seq, item)`` tuples."""

    __slots__ = ("_heap", "_n", "_cancelled", "_run_items", "_run_seqs")

    def __init__(self):
        self._heap: list = []
        self._n = 0
        self._cancelled: set = set()
        #: Current ``pop_run`` batch: items list (slots nulled on
        #: in-batch cancel) and the parallel seq list.
        self._run_items: list = []
        self._run_seqs: list = ()

    def push(self, when: float, item) -> int:
        seq = self._n
        self._n = seq + 1
        heappush(self._heap, (when, seq, item))
        return seq

    def pop(self, limit: Optional[float] = None) -> Optional[Tuple]:
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            if limit is not None and heap[0][0] > limit:
                return None
            entry = heappop(heap)
            if cancelled and entry[1] in cancelled:
                cancelled.discard(entry[1])
                continue
            return entry
        return None

    def pop_run(self, limit: Optional[float] = None) -> Optional[Tuple]:
        """Drain the whole run of minimum-timestamp entries in one call.

        Returns ``(when, items)`` — every live entry scheduled for
        exactly ``when``, in seq (FIFO) order — or ``None`` when the
        queue is empty or the minimum is later than ``limit``.  The
        returned list is *live*: a ``cancel`` for a not-yet-dispatched
        member of the current run nulls its slot, so dispatch loops
        must skip ``None`` items.  That keeps batched dispatch
        bit-identical to one-at-a-time pops, including events cancelled
        by an earlier same-timestamp callback.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            if limit is not None and heap[0][0] > limit:
                return None
            when, seq, item = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            items = [item]
            seqs = [seq]
            while heap and heap[0][0] == when:
                _, seq, item = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                items.append(item)
                seqs.append(seq)
            self._run_items = items
            self._run_seqs = seqs
            return (when, items)
        return None

    def cancel(self, seq: int) -> bool:
        # An entry already handed out by ``pop_run`` but not yet
        # dispatched is cancelled in place (its batch slot is nulled);
        # anything else gets a lazy-deletion tombstone: the entry stays
        # in the heap but is skipped at pop time (and purged from the
        # tombstone set as it goes by).
        seqs = self._run_seqs
        if seqs:
            try:
                i = seqs.index(seq)
            except ValueError:
                pass
            else:
                items = self._run_items
                if items[i] is not None:
                    items[i] = None
                    return True
                return False
        self._cancelled.add(seq)
        return True

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._heap) > len(self._cancelled)

    @property
    def pushes(self) -> int:
        """Total entries ever pushed (the simulator's event counter)."""
        return self._n
