"""Brute-force persistence oracle for cross-checking the reduction engine.

Pair multiplicities come from persistent Betti numbers,

    mu[b,d] = beta[b,d-1] - beta[b,d] - beta[b-1,d-1] + beta[b-1,d],

where beta[i,j] is the rank of the map H(K_i) -> H(K_j) between prefixes,
obtained from dense GF(2) Gaussian elimination on boundary submatrices.
With beta[i,j] = z_k(i) - rank(B_j) + rank(B_j restricted to rows >= i),
the z and full-rank terms cancel inside mu, leaving only the row-restricted
ranks T; essential counts keep the z term. Nothing here shares code with
the column-reduction path.
"""

from __future__ import annotations

import numpy as np

from .complexes import Filtration
from .errors import TooLarge
from .persistence import PersistenceDiagram

SIZE_CAP = 300


class EchelonBasis:
    """GF(2) row-echelon basis of int bitmask columns, pivot = highest set bit.

    Bit r of a column set means row r carries a 1; Python's arbitrary
    precision ints make the oracle's few hundred rows cheap.
    """

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, int] = {}

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


def oracle_persistence(filtration: Filtration) -> list:
    """Per-degree diagrams for a small filtration (<= 300 cells)."""
    n = len(filtration)
    if n > SIZE_CAP:
        raise TooLarge(f"oracle accepts at most {SIZE_CAP} cells, got {n}")
    if n == 0:
        return []
    max_dim = filtration.max_dim
    dims = filtration.dims
    values = filtration.values
    bm = filtration.boundary_matrix()
    col_int = [column_bitmask(bm.indices[bm.indptr[j]:bm.indptr[j + 1]])
               for j in range(n)]

    diagrams = []
    for k in range(max_dim + 1):
        kpos = [int(p) for p in np.flatnonzero(dims == k)]
        k1pos = [int(p) for p in np.flatnonzero(dims == k + 1)]

        # cycle-count increment contributed by each k-cell
        basis_k = EchelonBasis()
        zinc = {}
        for p in kpos:
            independent = col_int[p] != 0 and basis_k.insert(col_int[p])
            zinc[p] = 1 - (1 if independent else 0)

        entries = []  # (birth value, death value, birth pos, death pos)
        if k1pos:
            t_table = {}
            for i in sorted({p for p in kpos} | {p + 1 for p in kpos}):
                basis = EchelonBasis()
                arr = np.zeros(n + 1, dtype=np.int64)
                r = 0
                for pos in range(n):
                    if dims[pos] == k + 1 and basis.insert(col_int[pos] >> i):
                        r += 1
                    arr[pos + 1] = r
                t_table[i] = arr

            for p in kpos:
                b = p + 1
                tb, tbm = t_table[b], t_table[p]
                for q in k1pos:
                    if q <= p:
                        continue
                    d = q + 1
                    mu = ((tb[d - 1] - tb[d]) - (tbm[d - 1] - tbm[d]))
                    if mu:
                        assert mu == 1, f"multiplicity {mu} at ({p}, {q})"
                        if values[p] != values[q]:
                            entries.append((float(values[p]), float(values[q]),
                                            p, q))
            for p in kpos:
                ess = zinc[p] + int(t_table[p + 1][n] - t_table[p][n])
                if ess:
                    assert ess == 1
                    entries.append((float(values[p]), np.inf, p, -1))
        else:
            for p in kpos:
                if zinc[p]:
                    entries.append((float(values[p]), np.inf, p, -1))

        pd = PersistenceDiagram(
            degree=k,
            births=np.array([e[0] for e in entries], dtype=np.float64),
            deaths=np.array([e[1] for e in entries], dtype=np.float64),
            birth_index=np.array([e[2] for e in entries], dtype=np.int64),
            death_index=np.array([e[3] for e in entries], dtype=np.int64),
            filtration=filtration)
        pd.sort()
        diagrams.append(pd)
    return diagrams
