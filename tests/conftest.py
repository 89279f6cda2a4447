"""Shared fixtures and tiny-cluster factories for the test suite."""

from __future__ import annotations

from heapq import heappush

import pytest

from repro import aceso_config, fusee_config
from repro.core.store import AcesoCluster
from repro.sim import Environment
from repro.sim.sched import HeapqScheduler


class SplitRunScheduler(HeapqScheduler):
    """A :class:`HeapqScheduler` whose ``pop_run`` hands out at most
    ``cap`` entries of a same-timestamp run.  The rest go back on the
    heap under their original seqs and come out on the next call, so
    ``cap=1`` is one-at-a-time dispatch.  Batched dispatch claims to be
    indifferent to where a run is split; ``splits`` counts the runs
    that were."""

    __slots__ = ("cap", "splits")

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.splits = 0

    def pop_run(self, limit=None):
        run = super().pop_run(limit)
        if run is None or len(run[1]) <= self.cap:
            return run
        when, items = run
        cap = self.cap
        seqs = self._run_seqs
        for seq, item in zip(seqs[cap:], items[cap:]):
            heappush(self._heap, (when, seq, item))
        del items[cap:]
        del seqs[cap:]
        self.splits += 1
        return run


#: Ways of dispatching the one event queue.  ``heapq`` is the engine as
#: shipped (whole runs per ``pop_run``); the others split runs after 1,
#: 2 or 3 entries.  Their ids are the names of the removed event-queue
#: backends these slots used to pin, kept so that test ids stay stable.
DISPATCH_VARIANTS = {
    "heapq": HeapqScheduler,
    "flatheap": lambda: SplitRunScheduler(1),
    "calendar": lambda: SplitRunScheduler(2),
    "adaptive": lambda: SplitRunScheduler(3),
}


def make_env(variant: str = "heapq") -> Environment:
    """A fresh Environment whose queue dispatches as ``variant``."""
    env = Environment()
    if variant != "heapq":
        env.sched = DISPATCH_VARIANTS[variant]()   # swap before any push
        env._push = env.sched.push
    return env


def small_cluster_kwargs(**overrides):
    """A cluster geometry small enough for unit tests to run in ms."""
    base = dict(num_cns=2, clients_per_cn=1, index_buckets=256,
                blocks_per_mn=64, kv_size=256, block_size=8 * 1024)
    base.update(overrides)
    return base


def make_aceso(**overrides) -> AcesoCluster:
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs(**overrides)))
    cluster.start()
    return cluster


def make_fusee(replication_factor: int = 3, **overrides):
    from repro.baselines.fusee import FuseeCluster

    cluster = FuseeCluster(fusee_config(
        replication_factor=replication_factor,
        **small_cluster_kwargs(**overrides),
    ))
    cluster.start()
    return cluster


@pytest.fixture(params=list(DISPATCH_VARIANTS))
def env(request) -> Environment:
    """A fresh Environment, parametrized over every dispatch variant so
    the engine suite checks that splitting same-timestamp runs never
    changes an outcome."""
    return make_env(request.param)


@pytest.fixture
def aceso() -> AcesoCluster:
    return make_aceso()


@pytest.fixture
def fusee():
    return make_fusee()
