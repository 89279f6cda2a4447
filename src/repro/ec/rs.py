"""Systematic Reed-Solomon erasure code RS(k, m) over GF(2^8).

This is the GF-based alternative the paper compares against X-Code in
Table 2.  The encoding matrix is a Cauchy matrix, so *any* k of the k+m
shards reconstruct the originals.  Like every linear code, parity can be
updated from a data delta alone (``parity_delta``), which is what Aceso's
delta-based space reclamation (§3.3.3) relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodingError
from .gf256 import (
    gf_addmul_buffer,
    gf_inv,
    gf_matrix_invert,
    gf_matrix_vector,
    gf_mul,
)

__all__ = ["ReedSolomon"]


def _cauchy_matrix(k: int, m: int) -> List[List[int]]:
    """m x k Cauchy matrix: 1 / (x_i ^ y_j) with disjoint x, y sets."""
    xs = list(range(k, k + m))
    ys = list(range(k))
    return [[gf_inv(x ^ y) for y in ys] for x in xs]


class ReedSolomon:
    """RS(k, m): k data shards, m parity shards, tolerates any m erasures."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 1:
            raise CodingError("RS needs k >= 1 and m >= 1")
        if k + m > 256:
            raise CodingError("RS over GF(256) supports at most 256 shards")
        self.k = k
        self.m = m
        self.parity_matrix = _cauchy_matrix(k, m)
        self._decode_cache: Dict[Tuple[int, ...], List[List[int]]] = {}

    # -- encode ---------------------------------------------------------------

    def encode(self, data: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Compute the m parity shards for k equal-length data shards."""
        self._check_data(data)
        return gf_matrix_vector(self.parity_matrix, data)

    # -- linear delta updates ---------------------------------------------------

    def parity_delta(self, data_index: int,
                     delta: np.ndarray) -> List[np.ndarray]:
        """Contribution of a data-shard delta to each parity shard.

        If data shard *i* changes by ``delta`` (XOR of old and new), parity
        shard *j* changes by ``coef[j][i] * delta``.
        """
        if not 0 <= data_index < self.k:
            raise CodingError(f"data index {data_index} out of range")
        out = []
        for j in range(self.m):
            acc = np.zeros(len(delta), dtype=np.uint8)
            gf_addmul_buffer(acc, self.parity_matrix[j][data_index], delta)
            out.append(acc)
        return out

    # -- decode ---------------------------------------------------------------

    def reconstruct(self, shards: Sequence[Optional[np.ndarray]]
                    ) -> List[np.ndarray]:
        """Fill in missing shards (``None`` entries); returns all k+m.

        Raises :class:`CodingError` when more than m shards are missing.
        """
        n = self.k + self.m
        if len(shards) != n:
            raise CodingError(f"expected {n} shards, got {len(shards)}")
        missing = [i for i, s in enumerate(shards) if s is None]
        if not missing:
            return list(shards)  # type: ignore[arg-type]
        if len(missing) > self.m:
            raise CodingError(
                f"{len(missing)} erasures exceed tolerance m={self.m}"
            )
        present = [i for i, s in enumerate(shards) if s is not None]
        width = len(shards[present[0]])  # type: ignore[arg-type]
        if any(len(shards[i]) != width for i in present):  # type: ignore
            raise CodingError("shard length mismatch")

        # Recover the k data shards from any k available shards.
        chosen = present[: self.k]
        if len(chosen) < self.k:
            raise CodingError("fewer than k shards available")
        decode = self._decode_matrix(tuple(chosen))
        data = gf_matrix_vector(
            decode, [shards[i] for i in chosen]  # type: ignore[misc]
        )
        full: List[np.ndarray] = list(data)
        parity = gf_matrix_vector(self.parity_matrix, data)
        full.extend(parity)
        # Preserve the caller's arrays for shards that were present.
        for i in present:
            full[i] = shards[i]  # type: ignore[assignment]
        return full

    def _decode_matrix(self, rows: Tuple[int, ...]) -> List[List[int]]:
        cached = self._decode_cache.get(rows)
        if cached is not None:
            return cached
        generator: List[List[int]] = []
        for r in rows:
            if r < self.k:
                generator.append([1 if c == r else 0 for c in range(self.k)])
            else:
                generator.append(list(self.parity_matrix[r - self.k]))
        inverse = gf_matrix_invert(generator)
        self._decode_cache[rows] = inverse
        return inverse

    # -- misc -------------------------------------------------------------------

    def _check_data(self, data: Sequence[np.ndarray]) -> None:
        if len(data) != self.k:
            raise CodingError(f"expected {self.k} data shards, got {len(data)}")
        width = len(data[0])
        if any(len(d) != width for d in data):
            raise CodingError("data shard length mismatch")
