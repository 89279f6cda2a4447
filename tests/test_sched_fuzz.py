"""Property fuzz: batched ``pop_run`` dispatch equals one-at-a-time ``pop``.

:meth:`repro.sim.engine.Environment.run` drains whole same-timestamp
runs per queue call and claims the result is bit-identical to popping
one entry at a time.  This drives a randomized op script through a
:class:`~repro.sim.sched.HeapqScheduler` both ways and asserts the two
dispatch logs — every ``(when, seq, item)`` in order, plus the live
count at each ``until`` horizon — are equal.

Each dispatched item acts like an engine callback: it may push new
entries (zero delays give same-instant FIFO ties), cancel a pending
entry (on the batched side that is often a not-yet-dispatched member
of the current batch, whose live slot must be nulled), or reschedule
one (cancel plus a fresh push, which may land at the same instant and
must then dispatch after everything already queued there).

The same scripts also run through
:class:`~tests.conftest.SplitRunScheduler`, which cuts same-instant
runs after a few entries: where a run is split must not matter either.
A sorted-list model checks ``pop`` itself, and a unit test pins the
live batch list across later pushes.

Runs a fixed battery of seeded scripts always, plus a property-based
search when :mod:`hypothesis` is importable.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.sched import HeapqScheduler
from tests.conftest import DISPATCH_VARIANTS, SplitRunScheduler

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:            # gated exactly like lz4: degrade, don't skip
    HAVE_HYPOTHESIS = False

#: Delay palette: zero (same-instant ties, in-batch targets), clustered
#: ns/us steps like NIC service quanta, and ms outliers.
_DELAYS = (0.0, 0.0, 0.0, 1e-9, 1e-9, 2.5e-9, 1e-6, 1.1e-6, 2e-6, 1e-3)

#: Variants that split runs (everything but the shipped queue).
SPLIT_VARIANTS = [name for name in DISPATCH_VARIANTS if name != "heapq"]


def _dispatch_log(seed: int, nops: int, batched: bool,
                  q: HeapqScheduler = None, burst: int = 0) -> list:
    """Run the op script for ``seed`` and return its dispatch log.

    ``batched`` drains with ``pop_run`` (skipping nulled slots, as the
    engine does); otherwise with ``pop``.  The script's random draws
    are consumed in dispatch order, so both modes make the same draws
    exactly as long as they dispatch the same entries in the same order.
    ``q`` defaults to a fresh :class:`HeapqScheduler`; ``burst`` extra
    entries start queued at time 0, one long same-instant run.
    """
    rng = random.Random(seed)
    if q is None:
        q = HeapqScheduler()
    pending = {}               # item -> seq of its live queue entry
    due = {}                   # item -> time of its live queue entry
    log = []
    pushed = 0

    def push(when, item=None):
        nonlocal pushed
        if item is None:
            item = pushed
            pushed += 1
        pending[item] = q.push(when, item)
        due[item] = when

    def callback(when, item):
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 3))):
            if pushed < nops:
                push(when + rng.choice(_DELAYS))
        r = rng.random()
        if r < 0.7 and pending:
            # Favour victims due at this very instant: on the batched
            # side those are mostly members of the batch in flight.
            now = [i for i in sorted(pending) if due[i] == when]
            victim = rng.choice(now if now and rng.random() < 0.5
                                else sorted(pending))
            if r < 0.35:
                assert q.cancel(pending.pop(victim)) is True
            else:              # Deferred.reschedule: cancel + fresh push
                q.cancel(pending[victim])
                push(when + rng.choice(_DELAYS), victim)

    for _ in range(burst):
        push(0.0)
    for _ in range(8 + rng.randrange(8)):
        push(rng.choice(_DELAYS))
    horizon = 0.0
    while True:
        horizon += rng.choice((1e-9, 1e-6, 2e-6, 5e-6, 1e-4))
        if batched:
            while True:
                run = q.pop_run(horizon)
                if run is None:
                    break
                when, items = run
                for item in items:
                    if item is not None:
                        log.append((when, pending.pop(item), item))
                        callback(when, item)
        else:
            while True:
                entry = q.pop(horizon)
                if entry is None:
                    break
                when, seq, item = entry
                assert pending.pop(item) == seq, "stale entry dispatched"
                log.append(entry)
                callback(when, item)
        log.append(("horizon", horizon, len(q)))
        if not q:
            assert not pending
            return log


def _check(seed: int, nops: int, variant: str = "heapq") -> None:
    one_at_a_time = _dispatch_log(seed, nops, batched=False)
    batched = _dispatch_log(seed, nops, batched=True,
                            q=DISPATCH_VARIANTS[variant]())
    assert batched == one_at_a_time


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 1234])
def test_pop_run_matches_pop(seed):
    _check(seed, nops=3000)


@pytest.mark.parametrize("backend", SPLIT_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 1234])
def test_fixed_vectors(backend, seed):
    _check(seed, nops=3000, variant=backend)


@pytest.mark.parametrize("backend", SPLIT_VARIANTS)
def test_deep_vector_crosses_rebuilds(backend):
    """One long script: the queue grows, drains and regrows many times."""
    _check(99, nops=20_000, variant=backend)


@pytest.mark.parametrize("threshold", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 42])
def test_adaptive_crosses_migration(threshold, seed):
    """Runs split after ``threshold`` entries: a 100-entry burst at time
    0 guarantees runs longer than that, and the dispatch log must not
    notice the split."""
    q = SplitRunScheduler(threshold)
    batched = _dispatch_log(seed, 3000, batched=True, q=q, burst=100)
    assert batched == _dispatch_log(seed, 3000, batched=False, burst=100)
    assert q.splits, "no run was long enough to split"


def test_adaptive_in_batch_cancel_across_migration():
    """A batch handed out by ``pop_run`` stays cancellable in place
    after later pushes have grown the heap around it."""
    q = HeapqScheduler()
    seqs = [q.push(1.0, i) for i in range(3)]
    batch = q.pop_run()
    assert batch == (1.0, [0, 1, 2])
    for i in range(20):
        q.push(2.0 + i * 1e-9, 100 + i)
    assert q.cancel(seqs[2]) is True
    assert batch[1] == [0, 1, None]
    assert q.cancel(seqs[2]) is False
    assert len(q) == 20
    drained = []
    while (entry := q.pop()) is not None:
        drained.append(entry[2])
    assert drained == [100 + i for i in range(20)]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_pure_python_flatheap_matches_heapq(seed):
    """``pop`` against a sorted-list model: random pushes (ties
    included), limited pops and cancels of live entries."""
    rng = random.Random(seed)
    q = HeapqScheduler()
    model = []                 # live (when, seq, item), kept sorted
    now = 0.0
    for opno in range(3000):
        r = rng.random()
        if r < 0.5 or not model:
            when = now + rng.choice(_DELAYS) * (1.0 + rng.random())
            model.append((when, q.push(when, opno), opno))
            model.sort()
        elif r < 0.8:
            limit = None if rng.random() < 0.7 else now + rng.choice(_DELAYS)
            want = model[0] if limit is None or model[0][0] <= limit \
                else None
            assert q.pop(limit) == want, f"pop diverged at op {opno}"
            if want is not None:
                model.pop(0)
                now = want[0]
        else:
            victim = model.pop(rng.randrange(len(model)))
            assert q.cancel(victim[1]) is True
        assert len(q) == len(model)
    while model:
        assert q.pop() == model.pop(0)
    assert q.pop() is None and not q


if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           nops=st.integers(min_value=1, max_value=800))
    def test_property_search(seed, nops):
        for variant in DISPATCH_VARIANTS:
            _check(seed, nops, variant)
