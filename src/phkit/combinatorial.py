"""Clique and Vietoris-Rips filtrations over weighted graphs.

A clique filtration contains every clique of the full graph up to a size
cap; a simplex enters at the largest weight among its edges, so the prefix
at level a is exactly the clique complex of the subgraph with edges of
weight <= a. Vertices all sit at 0. A Rips filtration is the clique
filtration of a complete graph weighted by pairwise distances, truncated
to edges no longer than a cutoff.

Both reach one builder as edge arrays (i, j, w) sorted by (i, j), i < j.
It makes each dimension in one numpy step, in lexicographic order: row r
of the d-table is a parent row p of the (d-1)-table plus a neighbour v
above p's last vertex, and the rows come in ascending key p*n + v. A
facet of s = (t_0..t_{d-1}, v) is either p (drop v) or, dropping t_k, the
parent's own facet without t_k extended by v, so its row is found by
searching the key of that pair among the sorted keys one table down. The
facet that drops t_{d-1} exists exactly when v is adjacent to every
earlier vertex, so that one search is also the clique test. A simplex's
value is the largest of p's value, that facet's value and the weight of
the edge (t_{d-1}, v), which together cover all of its edges. A vertex's
one facet is the empty simplex, so edges take the same step. The builder
hands these facets to _assemble, so no facet is looked up by identity.
Before a dimension is made, the candidate rows of every dimension so far
are counted, and past complexes.CELL_CAP the builder raises TooLarge.
"""

from __future__ import annotations

import numpy as np

from .complexes import CELL_CAP, Filtration, _assemble
from .errors import BadParams, TooLarge


class WeightedGraph:
    """Undirected graph on vertices 0..n-1 with non-negative edge weights."""

    def __init__(self, n: int, edges):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        self.weights: dict[tuple[int, int], float] = {}
        for i, j, w in edges:
            i, j, w = int(i), int(j), float(w)
            if not 0 <= i < j < self.n:
                raise ValueError(f"bad edge ({i}, {j}) for n={self.n}")
            if (i, j) in self.weights:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not 0 <= w < np.inf:
                raise ValueError(f"edge ({i}, {j}) has weight {w}; weights "
                                 "must be finite and non-negative")
            self.weights[(i, j)] = w

    @property
    def edges(self):
        return sorted((i, j, w) for (i, j), w in self.weights.items())

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={len(self.weights)})"


class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal.

    The triangle inequality is not required; any dissimilarity works.
    """

    def __init__(self, d):
        d = np.ascontiguousarray(d, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite")
        if (d < 0).any():
            raise ValueError("distances must be non-negative")
        if (np.diag(d) != 0).any():
            raise ValueError("diagonal must be zero")
        if not (d == d.T).all():
            raise ValueError("matrix must be symmetric")
        self.d = d
        self.n = len(d)

    @classmethod
    def from_points(cls, points) -> "DistanceMatrix":
        pts = np.asarray(points, dtype=np.float64)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=2))
        return cls(np.minimum(d, d.T))


def clique_filtration(g: WeightedGraph, max_dim: int) -> Filtration:
    """All cliques of g up to max_dim+1 vertices; value = max edge weight.

    Vertices enter at 0; WeightedGraph rejects negative weights, and an
    edge of weight -0.0 enters at +0.0.
    """
    ij = np.array(list(g.weights), dtype=np.int64).reshape(-1, 2)
    w = np.fromiter(g.weights.values(), dtype=np.float64, count=len(ij))
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    return _cliques(g.n, ij[order, 0], ij[order, 1], w[order], max_dim)


def rips_filtration(d: DistanceMatrix, max_dim: int,
                    max_value: float) -> Filtration:
    """Vietoris-Rips filtration truncated to edges with d <= max_value."""
    max_value = float(max_value)
    if not max_value > 0:
        raise BadParams("max_value must be positive")
    iu, ju = np.nonzero(np.triu(d.d <= max_value, k=1))  # sorted by (i, j)
    return _cliques(d.n, iu, ju, d.d[iu, ju], max_dim)


def _cliques(n, i, j, w, max_dim) -> Filtration:
    """The clique filtration of edge arrays; see the module docstring."""
    max_dim = int(max_dim)
    if max_dim < 0:
        raise BadParams("max_dim must be >= 0")
    start = np.searchsorted(i, np.arange(n + 1))  # CSR offsets of i
    w = w + 0.0  # -0.0 becomes +0.0, as np.maximum(0.0, -0.0) is -0.0
    tab, val = np.arange(n, dtype=np.int64)[:, None], np.zeros(n)
    tables, values, facets = {0: tab}, {0: val}, {}
    # vertex v's one facet is the empty simplex, so its key is 0*n + v.
    # Facet rows are below CELL_CAP and handed over in int32; keys reach
    # n*n, so a facet row widens to int64 before it is multiplied
    fac = np.zeros((n, 1), dtype=np.int32)
    keys = np.append(np.arange(n), np.iinfo(np.int64).max)
    total = 0
    for d in range(1, max_dim + 1):
        lo = start[tab[:, -1]]
        count = start[tab[:, -1] + 1] - lo
        total += int(count.sum())
        if total > CELL_CAP:
            raise TooLarge(f"the cliques up to dimension {d} have {total} "
                           f"candidates; filtrations hold at most "
                           f"{CELL_CAP} cells")
        parent = np.repeat(np.arange(len(tab)), count)
        edge = np.arange(len(parent)) + (lo + count - np.cumsum(count))[parent]
        v = j[edge]
        # column k of fac holds the facet without vertex k; the facet
        # without the parent's last vertex exists exactly when v is
        # adjacent to every earlier vertex
        q = fac[parent, -1].astype(np.int64) * n + v
        pos = np.searchsorted(keys, q)
        ok = keys[pos] == q
        parent, v, edge, pos = parent[ok], v[ok], edge[ok], pos[ok]
        new_val = np.maximum(np.maximum(val[parent], val[pos]), w[edge])
        rest = np.searchsorted(
            keys, fac[parent, :-1].astype(np.int64) * n + v[:, None])
        fac = np.column_stack([rest, pos, parent]).astype(np.int32)
        if not len(parent):
            break
        # ascending: rows are made in (parent, v) order; no query equals
        # the sentinel
        keys = np.append(parent * n + v, np.iinfo(np.int64).max)
        tab, val = np.column_stack([tab[parent], v]), new_val
        tables[d], values[d], facets[d] = tab, val, fac
    return _assemble("simplicial", tables, values, facets)
