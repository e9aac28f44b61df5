"""Dense GF(2) linear algebra on int bitmasks.

Columns are Python ints; bit r set means row r carries a 1. Arbitrary
precision ints make row counts of a few thousand cheap, which covers the
rank-based persistence oracle, the only user.
"""

from __future__ import annotations


class EchelonBasis:
    """Row-echelon basis maintained incrementally, pivot = highest set bit."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; the result has no basis pivot set."""
        piv = self._pivots
        while v:
            p = v.bit_length() - 1
            w = piv.get(p)
            if w is None:
                break
            v ^= w
        return v

    def insert(self, v: int) -> bool:
        """Add v to the span. Returns True if it was independent."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True


def column_bitmask(rows) -> int:
    """Pack an iterable of row indices into one int."""
    v = 0
    for r in rows:
        v |= 1 << int(r)
    return v
