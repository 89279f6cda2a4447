"""Zipfian key-popularity generators (YCSB-compatible).

The YCSB macrobenchmarks use a Zipfian request distribution with
theta = 0.99 over the loaded key space; this is the standard Gray et al.
generator as implemented in YCSB, plus the *scrambled* variant that
hashes ranks so the hottest keys are spread over the key space (and thus
over MNs and index buckets).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

from ..index.hashing import hash64

__all__ = ["ZipfianGenerator", "ScrambledZipfian", "LatestGenerator"]

_DEFAULT_THETA = 0.99


class ZipfianGenerator:
    """Ranks in [0, n) with P(rank) proportional to 1 / (rank+1)^theta."""

    def __init__(self, n: int, theta: float = _DEFAULT_THETA,
                 rng: Optional[random.Random] = None):
        if n < 1:
            raise ValueError("need at least one item")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self.rng = rng or random.Random(0x5EED)
        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        if n > 2:
            self.eta = ((1 - (2.0 / n) ** (1 - theta))
                        / (1 - self.zeta2 / self.zetan))
            #: ``uz`` below this bound draws rank 1 (the YCSB shortcut).
            self._rank1_bound = 1.0 + 0.5 ** theta
        else:
            # Ranks 0 and 1 cover the space, so ``next_rank`` must never
            # reach the ``eta`` formula (its denominator is zero at n == 2).
            self.eta = 0.0
            self._rank1_bound = float("inf")

    @staticmethod
    @lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        """Generalised harmonic number H(n, theta); memoised because every
        client stream over one key space needs the same O(n) sum."""
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_rank(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self._rank1_bound:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


class ScrambledZipfian:
    """Zipfian ranks scrambled over the item space via a stable hash."""

    def __init__(self, n: int, theta: float = _DEFAULT_THETA,
                 rng: Optional[random.Random] = None):
        self._zipf = ZipfianGenerator(n, theta, rng)
        self.n = n

    def next_index(self) -> int:
        rank = self._zipf.next_rank()
        return hash64(rank.to_bytes(8, "little"), b"scramble") % self.n


class LatestGenerator:
    """YCSB's "latest" distribution (workload D): recent inserts are hot."""

    def __init__(self, initial_n: int, theta: float = _DEFAULT_THETA,
                 rng: Optional[random.Random] = None):
        self.n = initial_n
        self.theta = theta
        self.rng = rng or random.Random(0x1A7E)
        self._zipf = ZipfianGenerator(max(initial_n, 1), theta, self.rng)

    def grow(self) -> int:
        """Register a newly inserted item; returns its index."""
        index = self.n
        self.n += 1
        # Rebuild lazily: exact zeta recompute per insert is O(n); amortise
        # by rebuilding when the space has grown 10%.
        if self.n > self._zipf.n * 1.1:
            self._zipf = ZipfianGenerator(self.n, self.theta, self.rng)
        return index

    def next_index(self) -> int:
        rank = self._zipf.next_rank()
        return max(0, self.n - 1 - rank)
