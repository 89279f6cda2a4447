"""XOR-based array codes: a generic peeling framework, the true X-Code of
Xu & Bruck (the code the paper names), and RDP-style row+diagonal parity
(the same XOR-only family, used by the block-granular stripes).

An array code stores an (nrows x ncols) array of equal-width byte cells,
one column per node, with parity *equations*: sets of cells whose XOR is
zero.  Erasure of up to two whole columns is decoded by *peeling* —
repeatedly finding an equation with exactly one unknown cell and solving
it — which generalises the "diagonal chasing" of both X-Code and RDP.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..errors import CodingError

__all__ = ["XorArrayCode", "XCode", "RDP", "is_prime"]

Cell = Tuple[int, int]  # (row, col)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class XorArrayCode:
    """Base class: geometry + equations, encode and peel-decode.

    Subclasses define ``nrows``, ``ncols``, ``data_cells`` (in layout
    order) and ``equations`` — a list of ``(cells, parity_cell)`` pairs in
    an order such that each parity cell depends only on data cells or
    earlier parity cells.
    """

    def __init__(self, nrows: int, ncols: int,
                 data_cells: Sequence[Cell],
                 equations: Sequence[Tuple[Sequence[Cell], Cell]]):
        self.nrows = nrows
        self.ncols = ncols
        self.data_cells = list(data_cells)
        self.equations = [(list(cells), parity) for cells, parity in equations]
        self._validate()

    def _validate(self) -> None:
        seen_parity: Set[Cell] = set()
        data = set(self.data_cells)
        for cells, parity in self.equations:
            if parity not in cells:
                raise CodingError("parity cell must be a member of its equation")
            for cell in cells:
                r, c = cell
                if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                    raise CodingError(f"cell {cell} outside array")
            if parity in data:
                raise CodingError(f"parity cell {parity} marked as data")
            if parity in seen_parity:
                raise CodingError(f"two equations define parity {parity}")
            for cell in cells:
                if cell != parity and cell not in data and cell not in seen_parity:
                    raise CodingError(
                        f"equation uses cell {cell} before it is defined"
                    )
            seen_parity.add(parity)

    # -- array helpers ---------------------------------------------------------

    def empty_array(self, width: int) -> np.ndarray:
        return np.zeros((self.nrows, self.ncols, width), dtype=np.uint8)

    def encode(self, array: np.ndarray) -> np.ndarray:
        """Fill all parity cells in place (data cells must be set)."""
        for cells, parity in self.equations:
            acc = array[parity]
            acc[:] = 0
            for r, c in cells:
                if (r, c) != parity:
                    np.bitwise_xor(acc, array[r, c], out=acc)
        return array

    def check(self, array: np.ndarray) -> bool:
        """Whether every parity equation XORs to zero."""
        for cells, _parity in self.equations:
            acc = np.zeros(array.shape[2], dtype=np.uint8)
            for cell in cells:
                np.bitwise_xor(acc, array[cell], out=acc)
            if acc.any():
                return False
        return True

    def decode(self, array: np.ndarray, erased_cols: Iterable[int]) -> np.ndarray:
        """Reconstruct the cells of the erased columns in place.

        Works for any erasure pattern the code can peel; X-Code and RDP
        guarantee success for up to two erased columns.
        """
        erased = set(erased_cols)
        if not erased:
            return array
        for c in erased:
            if not 0 <= c < self.ncols:
                raise CodingError(f"erased column {c} out of range")
        unknown: Set[Cell] = {(r, c) for c in erased for r in range(self.nrows)}
        for cell in unknown:
            array[cell] = 0
        progress = True
        while unknown and progress:
            progress = False
            for cells, _parity in self.equations:
                unk = [cell for cell in cells if cell in unknown]
                if len(unk) != 1:
                    continue
                target = unk[0]
                acc = array[target]
                acc[:] = 0
                for cell in cells:
                    if cell != target:
                        np.bitwise_xor(acc, array[cell], out=acc)
                unknown.remove(target)
                progress = True
        if unknown:
            raise CodingError(
                f"cannot peel erasure pattern {sorted(erased)} "
                f"({len(unknown)} cells unresolved)"
            )
        return array

    # -- flat data mapping -------------------------------------------------------

    def load_data(self, array: np.ndarray, payload: np.ndarray) -> None:
        """Scatter a flat byte payload into the data cells (layout order)."""
        width = array.shape[2]
        needed = width * len(self.data_cells)
        if len(payload) != needed:
            raise CodingError(f"payload must be {needed} bytes, got {len(payload)}")
        for i, cell in enumerate(self.data_cells):
            array[cell] = payload[i * width:(i + 1) * width]

    def extract_data(self, array: np.ndarray) -> np.ndarray:
        width = array.shape[2]
        out = np.empty(width * len(self.data_cells), dtype=np.uint8)
        for i, cell in enumerate(self.data_cells):
            out[i * width:(i + 1) * width] = array[cell]
        return out


class XCode(XorArrayCode):
    """X-Code(p) [Xu & Bruck '99]: a p x p array for prime p.

    Rows 0..p-3 hold data; rows p-2 and p-1 hold the two diagonal parities
    (slopes +1 and -1).  Every column lives on a distinct node, so each node
    stores both data and parity — matching §3.3.1's "each MN in a coding
    group storing both PARITY blocks and DATA blocks" — and any two column
    (node) erasures are decodable.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise CodingError(f"X-Code requires prime p, got {p}")
        if p < 3:
            raise CodingError("X-Code needs p >= 3")
        self.p = p
        data_cells = [(r, c) for c in range(p) for r in range(p - 2)]
        equations: List[Tuple[List[Cell], Cell]] = []
        for i in range(p):
            diag1 = [(k, (i + k + 2) % p) for k in range(p - 2)]
            diag1.append((p - 2, i))
            equations.append((diag1, (p - 2, i)))
        for i in range(p):
            diag2 = [(k, (i - k - 2) % p) for k in range(p - 2)]
            diag2.append((p - 1, i))
            equations.append((diag2, (p - 1, i)))
        super().__init__(p, p, data_cells, equations)


class RDP(XorArrayCode):
    """Row-Diagonal Parity, shortened to *k* data columns.

    Geometry: (p-1) rows, k data columns, one row-parity column P and one
    diagonal-parity column Q (p prime, k <= p-1).  Q's diagonals run over
    the data *and* P columns, so encode order is P then Q.  This is the
    XOR-only, two-erasure-tolerant construction the Aceso stripes use at
    block granularity: P is a plain XOR of the data blocks (single-XOR
    recovery of one lost block, as in §3.3.2's decoding description) and Q
    adds the second fault tolerance dimension.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise CodingError(f"RDP requires prime p, got {p}")
        if not 1 <= k <= p - 1:
            raise CodingError(f"RDP(p={p}) supports 1..{p - 1} data columns")
        self.p = p
        self.k = k
        nrows = p - 1
        # Columns: 0..k-1 data, k = P, k+1 = Q.  (The construction's virtual
        # zero columns k..p-2 are simply omitted from the equations.)
        self.p_col = k
        self.q_col = k + 1
        data_cells = [(r, c) for c in range(k) for r in range(nrows)]
        equations: List[Tuple[List[Cell], Cell]] = []
        for r in range(nrows):
            cells = [(r, c) for c in range(k)] + [(r, self.p_col)]
            equations.append((cells, (r, self.p_col)))
        for i in range(nrows):  # diagonal p-1 is never stored
            cells: List[Cell] = []
            for c in range(k):
                r = (i - c) % p
                if r < nrows:
                    cells.append((r, c))
            r = (i - (p - 1)) % p  # P column sits at construction col p-1
            if r < nrows:
                cells.append((r, self.p_col))
            cells.append((i, self.q_col))
            equations.append((cells, (i, self.q_col)))
        super().__init__(nrows, k + 2, data_cells, equations)

    def diagonal_of(self, row: int, col: int) -> int:
        """Construction diagonal index of a data cell (for delta updates)."""
        if col >= self.k:
            raise CodingError("diagonal_of applies to data columns")
        return (row + col) % self.p
