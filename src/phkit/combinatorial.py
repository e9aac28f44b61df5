"""Clique and Vietoris-Rips filtrations over weighted graphs.

A clique filtration contains every clique of the full graph up to a size
cap; a simplex enters at the largest weight among its edges, so the prefix
at level a is exactly the clique complex of the subgraph with edges of
weight <= a. Vertices all sit at 0. A Rips filtration is the clique
filtration of a complete graph weighted by pairwise distances, truncated
to edges no longer than a cutoff.
"""

from __future__ import annotations

import numpy as np

from .complexes import Filtration, _assemble, _lookup_facets
from .errors import BadParams


class WeightedGraph:
    """Undirected graph on vertices 0..n-1 with real edge weights."""

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
            if not np.isfinite(w):
                raise ValueError(f"edge ({i}, {j}) has non-finite weight")
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

    Vertices enter at 0, so edge weights are expected to be non-negative;
    a negative weight trips the monotonicity check downstream.
    """
    max_dim = int(max_dim)
    if max_dim < 0:
        raise BadParams("max_dim must be >= 0")
    n = g.n
    adj = [0] * n
    for (i, j) in g.weights:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    tables = {0: np.arange(n, dtype=np.int64)[:, None]}
    values = {0: np.zeros(n)}
    # frontier entries: (vertex tuple, value, candidate bitmask above last)
    frontier = []
    for i in range(n):
        above = adj[i] >> (i + 1) << (i + 1)
        frontier.append(((i,), 0.0, above))
    for d in range(1, max_dim + 1):
        rows, vals, nxt = [], [], []
        for verts, value, cand in frontier:
            c = cand
            while c:
                v = (c & -c).bit_length() - 1
                c &= c - 1
                w = max(g.weights[(u, v)] for u in verts)
                new_value = max(value, w)
                new_verts = verts + (v,)
                rows.append(new_verts)
                vals.append(new_value)
                if d < max_dim:
                    above_v = (adj[v] >> (v + 1)) << (v + 1)
                    nxt.append((new_verts, new_value, cand & above_v))
        if not rows:
            break
        tables[d] = np.array(rows, dtype=np.int64)
        values[d] = np.array(vals)
        frontier = nxt
    return _assemble("simplicial", tables, values,
                     _lookup_facets("simplicial", tables))


def rips_filtration(d: DistanceMatrix, max_dim: int,
                    max_value: float) -> Filtration:
    """Vietoris-Rips filtration truncated to edges with d <= max_value."""
    max_value = float(max_value)
    if not max_value > 0:
        raise BadParams("max_value must be positive")
    iu, ju = np.triu_indices(d.n, k=1)
    keep = d.d[iu, ju] <= max_value
    edges = [(int(i), int(j), float(d.d[i, j]))
             for i, j in zip(iu[keep], ju[keep])]
    return clique_filtration(WeightedGraph(d.n, edges), max_dim)
