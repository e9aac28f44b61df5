"""Z/2 persistent homology by boundary-matrix column reduction.

The reduction runs in up to four steps. Steps 2 and 3 are two passes of
one kernel, _reduce, the textbook Z/2 column reduction of one dimension's
columns in order. Its working column is a Python set, so adding a column
is one C-level symmetric difference. A column is added to until its low
is free in the pass's owner array, and then takes it, or until it is
empty. Each call keeps its own cache of the columns it adds, reduced or
raw, dropped when the dimension ends, as no column of another dimension
adds them.

1. Apparent pairs. A pair (sigma, tau) is apparent when sigma is tau's
   youngest facet and tau is sigma's oldest cofacet (Bauer, "Ripser",
   J. Appl. Comput. Topol. 2021). One vectorized pass over the boundary
   matrix finds all of them. No column left of tau contains sigma, so the
   column loop would pair them without a single addition: tau's reduced
   column is its boundary column.
2. Coboundary pass, for top-heavy filtrations only. Homology and
   cohomology have the same pairs (de Silva, Morozov and
   Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), so
   reducing coboundary columns finds which cells are deaths without ever
   making a top-dimensional cell a column. The columns are the cofacet
   lists of dimensions 0..D-1 (the CSC form of the boundary matrix), low
   to high, youngest cell first. The low is the oldest cofacet (min), and
   the owner array starts with sigma as the owner of each apparent tau.
   Both cells of every apparent pair are skipped, each dimension's lows
   are cleared from the next, and its reduced columns are dropped when it
   ends. Every cell above dimension 0 that is not a death is then skipped
   by the column loop. The pass runs when with_v is off (no chains) and
   the top dimension D has more cells than dimension D-1, as in Rips and
   clique filtrations, where the column loop would otherwise reduce each
   essential top cell to zero. Alpha and cubical filtrations have fewer
   top cells than cells one dimension down, and there the pass took 7 to
   40 times as long as the column loop it would save work for.
3. Column loop. The columns are boundary columns, the low is the youngest
   facet (max), and the owner array is pivot_of itself, which starts with
   the apparent pairs. Dimensions run from the top down and columns left
   to right inside each dimension, skipping apparent deaths. Every birth
   found in dimension d clears its column in dimension d-1 before that
   column is reached (Chen and Kerber, "Persistent homology computation
   with a twist", 2011). With with_v each column's chain rides along. A
   death column is reduced exactly as in the textbook reduction, since
   that never adds a column that reduced to zero, so the reduced columns
   do not depend on step 2.
4. Diagrams. Pairs are sorted by birth and read off in one vectorized step.

PersistencePairing.reduced is a read-only mapping: columns the loop
reduced are stored, and apparent deaths read their boundary column on
demand. Diagrams drop zero-persistence pairs; the pairing keeps everything.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# scipy is imported inside the functions that call it: reading a diagram
# file needs PersistenceDiagram, and should not pay for scipy.sparse
from .complexes import (BoundaryMatrix, Filtration, SimplicialComplex,
                        make_filtration)
from .errors import EssentialPair, NotDegreeOne


@dataclass
class PersistenceDiagram:
    """Birth/death pairs of one degree; deaths of +inf mark essential classes.

    birth_index/death_index give the filtration positions of the cells that
    created and killed each class (death_index -1 for essential classes);
    they are absent for diagrams built directly from value arrays.
    """

    degree: int
    births: np.ndarray
    deaths: np.ndarray
    birth_index: np.ndarray | None = None
    death_index: np.ndarray | None = None
    filtration: Filtration | None = None

    @classmethod
    def from_pairs(cls, degree, pairs, essential_births=()) -> "PersistenceDiagram":
        finite = [(float(b), float(d)) for b, d in pairs]
        essential = [float(b) for b in essential_births]
        births = [b for b, _ in finite] + essential
        deaths = [d for _, d in finite] + [np.inf] * len(essential)
        pd = cls(degree=int(degree),
                 births=np.asarray(births, dtype=np.float64),
                 deaths=np.asarray(deaths, dtype=np.float64))
        pd.sort()
        return pd

    def sort(self):
        order = np.lexsort((self.deaths, self.births))
        self.births = self.births[order]
        self.deaths = self.deaths[order]
        if self.birth_index is not None:
            self.birth_index = self.birth_index[order]
            self.death_index = self.death_index[order]

    def __len__(self):
        return len(self.births)

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return [(float(b), float(d)) for b, d in zip(self.births, self.deaths)]

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.deaths)

    @property
    def finite_pairs(self) -> list[tuple[float, float]]:
        m = self.finite_mask
        return [(float(b), float(d))
                for b, d in zip(self.births[m], self.deaths[m])]

    @property
    def essential_births(self) -> list[float]:
        return [float(b) for b in self.births[~self.finite_mask]]

    def provenance(self, i: int):
        """(birth cell, death cell or None) for pair i."""
        if self.birth_index is None or self.filtration is None:
            raise ValueError("diagram carries no provenance")
        b = self.filtration.cell(int(self.birth_index[i]))
        di = int(self.death_index[i])
        return b, (self.filtration.cell(di) if di >= 0 else None)

    def scaled(self, transform) -> "PersistenceDiagram":
        """New diagram with transform applied to every finite value."""
        births = np.array([transform(b) for b in self.births])
        deaths = np.array([transform(d) if np.isfinite(d) else np.inf
                           for d in self.deaths])
        return PersistenceDiagram(self.degree, births, deaths,
                                  None if self.birth_index is None
                                  else self.birth_index.copy(),
                                  None if self.death_index is None
                                  else self.death_index.copy(),
                                  self.filtration)


class _ReducedColumns(Mapping):
    """Read-only map from each death cell to its reduced column.

    Columns the loop reduced are held in a dict; apparent deaths are read
    from the boundary matrix when asked for, as their reduced column is
    their boundary column.
    """

    def __init__(self, stored: dict[int, list[int]], apparent: np.ndarray,
                 bm: BoundaryMatrix):
        self._stored = stored
        self._apparent = apparent  # bool per cell: an apparent pair's death
        self._n_apparent = int(np.count_nonzero(apparent))
        self._bm = bm

    def _is_apparent(self, j) -> bool:
        return (isinstance(j, (int, np.integer))
                and 0 <= j < len(self._apparent) and bool(self._apparent[j]))

    def __getitem__(self, j) -> list[int]:
        col = self._stored.get(j)
        if col is not None:
            return col
        if self._is_apparent(j):
            return self._bm.column(j).tolist()
        raise KeyError(j)

    def __contains__(self, j) -> bool:
        return j in self._stored or self._is_apparent(j)

    def __iter__(self):
        yield from self._stored
        yield from np.flatnonzero(self._apparent).tolist()

    def __len__(self):
        return len(self._stored) + self._n_apparent


@dataclass
class PersistencePairing:
    """Raw output of the reduction, including zero-persistence pairs.

    pairs are (birth, death) filtration indices sorted by birth; essential
    lists the unpaired cells in index order; pivot_of[i] is the death paired
    with birth i, or -1, and pairs and essential are read off it on first
    use. reduced is a read-only mapping with one key per death cell j: its
    reduced column, the sorted cycle that dies when j enters. For an
    apparent pair that is j's boundary column, read on demand; the other
    columns are stored. chains[i], present when the reduction ran with
    with_v=True, is the chain whose boundary is the reduced column, keyed
    by column; for positive columns it is the created cycle itself (cleared
    columns have none).

    stats counts the work: apparent_pairs found before the column loop,
    columns_reduced and column_additions over the coboundary pass (when it
    runs) and the column loop together, and cleared_columns: the births
    above dimension 0, which the column loop skips.
    """

    filtration: Filtration
    reduced: Mapping[int, list[int]]
    pivot_of: np.ndarray
    chains: dict[int, list[int]] | None = None
    stats: dict[str, int] = field(default_factory=dict)

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        births, deaths, _ = _read_pairing(self.pivot_of)
        return list(zip(births.tolist(), deaths.tolist()))

    @cached_property
    def essential(self) -> list[int]:
        return _read_pairing(self.pivot_of)[2].tolist()


def _read_pairing(pivot_of):
    """Births ascending, their deaths, and the cells that are neither."""
    paired = pivot_of >= 0
    births = np.flatnonzero(paired)
    deaths = pivot_of[births]
    paired[deaths] = True
    return births, deaths, np.flatnonzero(~paired)


def _apparent_pairs(indptr, indices, n):
    """(sigma, tau) arrays of the apparent pairs, ascending in tau."""
    lengths = np.diff(indptr)
    oldest_cofacet = np.full(n, n, dtype=np.int64)
    np.minimum.at(oldest_cofacet, indices, np.repeat(np.arange(n), lengths))
    cols = np.flatnonzero(lengths)
    youngest_facet = indices[indptr[cols + 1] - 1]
    keep = oldest_cofacet[youngest_facet] == cols
    return youngest_facet[keep], cols[keep]


def _reduce(todo, indptr, indices, owner, low_of, reduced=None, chains=None):
    """Reduce the columns todo in order; see the module docstring.

    Column j starts as indices[indptr[j]:indptr[j + 1]] and its low is
    low_of (max or min) of its entries. owner[low] is the column that holds
    that low, or -1; every owner a column meets is one of todo or an
    apparent column of the same dimension. A column that takes a free low
    gets it in owner and, with reduced, its reduced column, sorted, in
    reduced. With chains, chains[j] is the chain of column j. Returns the
    lows taken, in order, and the additions made.
    """
    # the owners' columns once met: reduced ones (sets unless reduced wants
    # them sorted) and apparent ones raw
    addends: dict[int, set[int] | list[int]] = {}
    lows: list[int] = []
    additions = 0
    for j in todo:
        col = set(indices[indptr[j]:indptr[j + 1]].tolist())
        vj = None if chains is None else {j}
        while col:
            low = low_of(col)
            k = owner[low]
            if k < 0:
                owner[low] = j
                if reduced is None:
                    addends[j] = col
                else:
                    addends[j] = reduced[j] = sorted(col)
                lows.append(low)
                break
            addend = addends.get(k)
            if addend is None:
                addend = indices[indptr[k]:indptr[k + 1]].tolist()
                addends[k] = addend
            col.symmetric_difference_update(addend)
            if vj is not None:
                vj.symmetric_difference_update(chains[k])
            additions += 1
        if vj is not None:
            chains[j] = sorted(vj)
    return lows, additions


def compute_persistence(filtration: Filtration, *, with_v: bool = False):
    """Reduce the filtration's boundary matrix; see the module docstring.

    Returns (pairing, diagrams) where diagrams is a list indexed by degree
    0..max cell dimension. Pass with_v=True to record the chain columns
    needed for essential-cycle extraction.
    """
    bm = filtration.boundary_matrix()
    indptr, indices = bm.indptr, bm.indices
    dims = filtration.dims
    n = len(dims)
    sigma, tau = _apparent_pairs(indptr, indices, n)
    pivot_of = np.full(n, -1, dtype=np.int64)
    pivot_of[sigma] = tau
    apparent = np.zeros(n, dtype=bool)
    apparent[tau] = True
    skip = apparent.copy()
    skip[sigma] = True
    stored: dict[int, list[int]] = {}
    chains: dict[int, list[int]] | None = None
    if with_v:
        chains = {j: [j] for j in tau.tolist()}
    columns_reduced = additions = 0
    cells_per_dim = np.bincount(dims)
    if (not with_v and len(cells_per_dim) > 1
            and cells_per_dim[-1] > cells_per_dim[-2]):
        from scipy.sparse import csr_array

        # the boundary columns read as rows, so the CSC form lists cofacets
        cob = csr_array((np.ones(len(indices), dtype=bool), indices, indptr),
                        shape=(n, n)).tocsc()
        owner = np.full(n, -1, dtype=np.int64)
        owner[tau] = sigma
        deaths: list[int] = []
        for d in range(len(cells_per_dim) - 1):
            todo = np.flatnonzero((dims == d) & ~skip)[::-1].tolist()
            lows, added = _reduce(todo, cob.indptr, cob.indices, owner, min)
            columns_reduced += len(todo)
            additions += added
            skip[lows] = True
            deaths += lows
        # the loop below then reduces these death columns only
        skip[dims > 0] = True
        skip[deaths] = False
        # neither the column loop nor the diagrams read these
        del cob, owner, deaths

    for d in range(len(cells_per_dim) - 1, 0, -1):
        todo = np.flatnonzero((dims == d) & ~skip).tolist()
        lows, added = _reduce(todo, indptr, indices, pivot_of, max, stored,
                              chains)
        columns_reduced += len(todo)
        additions += added
        skip[lows] = True

    stats = {
        "apparent_pairs": len(tau),
        "columns_reduced": columns_reduced,
        "column_additions": additions,
        # with the twist every birth above dimension 0 is skipped
        "cleared_columns": int(np.count_nonzero((pivot_of >= 0) & (dims > 0))),
    }
    # nor these, and the diagrams' arrays would share the peak with them
    del sigma, tau, skip
    pairing = PersistencePairing(
        filtration=filtration, reduced=_ReducedColumns(stored, apparent, bm),
        pivot_of=pivot_of, chains=chains, stats=stats)
    return pairing, _diagrams_from_pairing(filtration, pivot_of)


def _diagrams_from_pairing(f: Filtration, pivot_of) -> list[PersistenceDiagram]:
    """One diagram per degree from the pairs, sorted by birth, and essentials.

    Pairs come before essentials ahead of each diagram's stable sort, so
    ties keep that order.
    """
    births, deaths, essential = _read_pairing(pivot_of)
    vals = f.values
    keep = vals[births] != vals[deaths]
    birth_index = np.concatenate([births[keep], essential])
    death_index = np.concatenate(
        [deaths[keep], np.full(len(essential), -1, dtype=np.int64)])
    birth_vals = vals[birth_index]
    death_vals = np.concatenate(
        [vals[deaths[keep]], np.full(len(essential), np.inf)])
    degree_of = f.dims[birth_index]

    out = []
    for deg in range(f.max_dim + 1):
        m = degree_of == deg
        pd = PersistenceDiagram(
            degree=deg,
            births=birth_vals[m],
            deaths=death_vals[m],
            birth_index=birth_index[m],
            death_index=death_index[m],
            filtration=f)
        pd.sort()
        out.append(pd)
    return out


def betti_numbers(obj, prefix: int | None = None) -> list[int]:
    """Betti numbers over Z/2, one entry per dimension 0..max cell dim.

    Accepts a SimplicialComplex or a Filtration; pass prefix to restrict a
    filtration to its first `prefix` cells (which are always face-closed).
    Read off the filtration's pairing: the classes alive in the prefix are
    those born in it that die after it or never.
    """
    if isinstance(obj, SimplicialComplex):
        return betti_numbers(make_filtration((c, 0.0) for c in obj.cells))

    n = len(obj) if prefix is None else int(prefix)
    if not 0 <= n <= len(obj):
        raise ValueError(f"prefix {n} out of range")
    if n == 0:
        return []
    pairing, _ = compute_persistence(obj)
    births, deaths, essential = _read_pairing(pairing.pivot_of)
    alive = np.concatenate([births[(births < n) & (deaths >= n)],
                            essential[essential < n]])
    return np.bincount(obj.dims[alive],
                       minlength=int(obj.dims[:n].max()) + 1).tolist()


@dataclass
class RepresentativeCycle:
    """A cycle whose class is born at the pair's birth value."""

    degree: int
    birth_index: int
    death_index: int | None
    cell_indices: list[int]
    filtration: Filtration
    tightened: bool = False
    homologous_to_original: bool | None = None

    @property
    def cells(self) -> list:
        return [self.filtration.cell(i) for i in self.cell_indices]

    def __len__(self):
        return len(self.cell_indices)


def representative_cycle(pairing: PersistencePairing, pair,
                         allow_essential: bool = False) -> RepresentativeCycle:
    """Cycle representing the class of a pair from the pairing.

    For a finite pair the reduced death column is returned: a cycle made of
    cells no later than the birth, with the birth cell itself included. For
    degree 0 the convention is the single birth vertex. Essential classes
    need allow_essential and a pairing computed with with_v=True (degree 0
    essentials work without).
    """
    f = pairing.filtration
    if isinstance(pair, (int, np.integer)):
        pair = (int(pair), None)
    birth, death = int(pair[0]), pair[1]
    death = None if death is None or death < 0 else int(death)
    degree = int(f.dims[birth])

    if death is None:
        if birth not in set(pairing.essential):
            raise ValueError(f"cell {birth} is not essential in this pairing")
        if not allow_essential:
            raise EssentialPair(
                f"class born at index {birth} never dies; "
                "pass allow_essential=True for its cycle")
        if degree and pairing.chains is None:
            raise EssentialPair(
                "essential cycles above degree 0 need a pairing computed "
                "with with_v=True")
    elif pairing.pivot_of[birth] != death:
        raise ValueError(f"({birth}, {death}) is not a pair of this pairing")
    if degree == 0:
        cells = [birth]
    elif death is None:
        cells = sorted(pairing.chains[birth])
    else:
        cells = list(pairing.reduced[death])
    return RepresentativeCycle(degree, birth, death, cells, f)


def tighten_cycle_1d(pairing: PersistencePairing,
                     cycle: RepresentativeCycle) -> RepresentativeCycle:
    """Shortest cycle through the birth edge inside the birth-time complex.

    A breadth-first search joins the endpoints of the birth edge over the
    edges before it, visiting each vertex's neighbours in filtration order,
    so ties between equally short loops go by filtration position. Raises
    ValueError when the endpoints are not joined, that is when the birth
    edge is not a cycle birth. Sets homologous_to_original by reducing the
    symmetric difference of the two cycles against the recorded death
    columns of the birth prefix.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    if cycle.degree != 1:
        raise NotDegreeOne(f"cycle has degree {cycle.degree}")
    f = pairing.filtration
    birth = cycle.birth_index
    bm = f.boundary_matrix()
    u, v = bm.column(birth).tolist()

    # vertex positions are the nodes, edge positions the data; sorted rows
    # make the search visit neighbours in filtration order
    edges = np.flatnonzero(f.dims[:birth] == 1)
    ends = bm.indices[bm.indptr[edges, None] + [0, 1]]
    graph = csr_array((np.repeat(edges, 2),
                       (ends.ravel(), ends[:, ::-1].ravel())),
                      shape=(birth, birth))
    graph.sort_indices()
    _, pred = breadth_first_order(graph, u, return_predecessors=True)
    if pred[v] < 0:
        raise ValueError(f"edge {birth} joins two components, so it is not "
                         "a cycle birth")
    path = [v]
    while path[-1] != u:
        path.append(int(pred[path[-1]]))
    tight = sorted([birth] + graph[path[1:], path[:-1]].tolist())

    diff = sorted(set(tight) ^ set(cycle.cell_indices))
    homologous = _is_boundary_in_prefix(pairing, diff, birth)
    return RepresentativeCycle(1, birth, cycle.death_index, tight, f,
                               tightened=True,
                               homologous_to_original=homologous)


def _is_boundary_in_prefix(pairing: PersistencePairing, chain: list[int],
                           prefix_index: int) -> bool:
    """Whether the 1-chain is a boundary using 2-cells at or before the index."""
    z = set(chain)
    while z:
        k = int(pairing.pivot_of[max(z)])
        if k < 0 or k > prefix_index:
            return False
        z.symmetric_difference_update(pairing.reduced[k])
    return True
