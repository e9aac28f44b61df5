"""Cells, complexes, and filtrations.

A Filtration is the package's central structure: every builder (alpha,
clique, cubical) produces one and the persistence engine consumes one.
Cells are stored column-oriented in per-dimension integer tables so large
filtrations stay inside numpy; Simplex/Cube objects are materialized on
demand.

Ordering contract: cells are sorted by ascending filtration value, ties by
ascending dimension, remaining ties by lexicographic cell identity
(vertex tuple for simplices, anchor+extent tuple for cubes). Every prefix
of the resulting sequence is closed under faces.

Builders hand _assemble each cell's facets as row indices into the table
one dimension down (alpha keeps them from its face enumeration, cubical
computes them from the grid), and _assemble only permutes them into
filtration order. Cells that arrive without facets, from make_filtration
and clique filtrations, get them from _lookup_facets, which finds each
facet by identity and reports the first absent one as MissingFace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingFace, MonotonicityViolation

class Simplex(tuple):
    """A simplex as a strictly increasing tuple of non-negative vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices):
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            ss = tuple(sorted(vs))
            if any(b == a for a, b in zip(ss, ss[1:])):
                raise ValueError(f"repeated vertex in simplex {vs}")
            vs = ss
        if vs[0] < 0:
            raise ValueError("vertex ids must be non-negative")
        return tuple.__new__(cls, vs)

    @property
    def dimension(self) -> int:
        return len(self) - 1

    @property
    def vertices(self) -> tuple:
        return tuple(self)

    def facets(self) -> list["Simplex"]:
        if len(self) == 1:
            return []
        return [Simplex(self[:i] + self[i + 1:]) for i in range(len(self))]

    def __repr__(self):
        return f"Simplex{tuple(self)!r}"


@dataclass(frozen=True)
class Cube:
    """An axis-aligned cube: integer anchor corner plus a 0/1 extent per axis.

    The cube spans [anchor_i, anchor_i + extent_i] along each axis; its
    dimension is the number of extent-1 axes.
    """

    anchor: tuple
    extent: tuple

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(int(a) for a in self.anchor))
        object.__setattr__(self, "extent", tuple(int(e) for e in self.extent))
        if len(self.anchor) != len(self.extent):
            raise ValueError("anchor and extent lengths differ")
        if any(e not in (0, 1) for e in self.extent):
            raise ValueError("extent entries must be 0 or 1")
        if any(a < 0 for a in self.anchor):
            raise ValueError("anchor coordinates must be non-negative")

    @property
    def dimension(self) -> int:
        return sum(self.extent)

    def identity(self) -> tuple:
        return self.anchor + self.extent

    def facets(self) -> list["Cube"]:
        out = []
        for axis, e in enumerate(self.extent):
            if not e:
                continue
            ext = list(self.extent)
            ext[axis] = 0
            lo = list(self.anchor)
            hi = list(self.anchor)
            hi[axis] += 1
            out.append(Cube(tuple(lo), tuple(ext)))
            out.append(Cube(tuple(hi), tuple(ext)))
        return out

    def __repr__(self):
        return f"Cube(anchor={self.anchor}, extent={self.extent})"


def boundary(cell) -> set:
    """The set of codimension-1 faces of a simplex or cube."""
    return set(cell.facets())


class SimplicialComplex:
    """A finite simplicial complex with O(1) membership tests."""

    def __init__(self, cells):
        cs = frozenset(c if isinstance(c, Simplex) else Simplex(c) for c in cells)
        for c in cs:
            for f in c.facets():
                if f not in cs:
                    raise MissingFace(c, f)
        self._cells = cs

    @property
    def cells(self) -> frozenset:
        return self._cells

    @property
    def max_dim(self) -> int:
        return max((c.dimension for c in self._cells), default=-1)

    def __contains__(self, cell) -> bool:
        if not isinstance(cell, Simplex):
            try:
                cell = Simplex(cell)
            except (ValueError, TypeError):
                return False
        return cell in self._cells

    def __len__(self):
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells)


def make_complex(cells) -> SimplicialComplex:
    """Close the given simplices under faces and return the complex."""
    closed = set()
    stack = [c if isinstance(c, Simplex) else Simplex(c) for c in cells]
    while stack:
        c = stack.pop()
        if c in closed:
            continue
        closed.add(c)
        stack.extend(c.facets())
    return SimplicialComplex(closed)


@dataclass
class BoundaryMatrix:
    """Sparse Z/2 boundary matrix in CSR-by-column form.

    Column j of the filtration holds the sorted filtration indices of the
    codimension-1 faces of cell j (empty for vertices / 0-cubes).
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self):
        return len(self.indptr) - 1

    def column(self, j: int) -> np.ndarray:
        return self.indices[self.indptr[j]:self.indptr[j + 1]]


class Filtration:
    """Cells of a complex in filtration order with their values.

    Construct via make_filtration or one of the builders; the constructor
    arguments are the already-sorted internal tables and their boundary
    matrix.
    """

    def __init__(self, kind, dims, values, tables, rows, *, boundary_matrix,
                 grid_shape=None, info=None):
        self.kind = kind
        self.dims = dims
        self.values = values
        self._tables = tables
        self._rows = rows
        self.grid_shape = grid_shape
        self.info = info or {}
        self._bm = boundary_matrix
        for a in (dims, values, rows):
            a.setflags(write=False)

    def __len__(self):
        return len(self.values)

    @property
    def max_dim(self) -> int:
        return int(self.dims.max(initial=0)) if len(self) else -1

    def value(self, i: int) -> float:
        return float(self.values[i])

    def cell(self, i: int):
        return _cell(self.kind, self.identity_rows(int(self.dims[i]), i),
                     self.grid_shape)

    def identity_rows(self, d: int, positions) -> np.ndarray:
        """Vertex ids, or anchor then extent, of the d-cells at positions."""
        return self._tables[d][self._rows[positions]]

    def position(self, d: int, row) -> int:
        """Position of the d-cell whose identity row equals row, else -1."""
        table = self._tables.get(d)
        row = np.ravel(row)
        if table is None or row.shape != table.shape[1:]:
            return -1
        hit = np.flatnonzero((table == row).all(axis=1))
        return int(np.flatnonzero(self.dims == d)[hit[0]]) if len(hit) else -1

    @property
    def cells(self) -> list:
        return [self.cell(i) for i in range(len(self))]

    def boundary_matrix(self) -> BoundaryMatrix:
        return self._bm

    def prefix_length(self, value: float) -> int:
        """Number of cells with filtration value <= value."""
        return int(np.searchsorted(self.values, value, side="right"))

    def __repr__(self):
        return (f"Filtration(kind={self.kind!r}, cells={len(self)}, "
                f"max_dim={self.max_dim})")


def _cell(kind, row, grid_shape):
    """The Simplex or Cube an identity row stands for."""
    if kind == "simplicial":
        return Simplex(row)
    k = len(grid_shape)
    return Cube(row[:k], row[k:])


def _row_keys(*tables):
    """One int64 key per row of each table, in the order of the rows.

    Rows compare lexicographically and all tables share one key space, so
    equal rows get equal keys across tables. Columns pack in base max+1
    when that fits in 62 bits; otherwise the keys are ranks among the
    distinct rows.
    """
    width = tables[0].shape[1]
    base = max(int(t.max(initial=0)) for t in tables) + 1
    if base ** width < 1 << 62:
        packed = []
        for tab in tables:
            keys = np.zeros(len(tab), dtype=np.int64)
            for col in tab.T:
                keys *= base
                keys += col
            packed.append(keys)
        return packed
    rows = np.concatenate(tables)
    order = np.lexsort(rows.T[::-1])
    # a sorted row starts a new run when any column differs from the last
    starts = np.zeros(len(rows), dtype=bool)
    for col in rows.T:
        ordered = col[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    keys = np.empty(len(rows), dtype=np.int64)
    keys[order] = np.cumsum(starts)
    return np.split(keys, np.cumsum([len(t) for t in tables[:-1]]))


def _lookup_facets(kind, tables, grid_shape=None):
    """Facet rows of every cell, found by identity in the table below it.

    Serves cells that arrive without their facets (make_filtration and
    clique filtrations). Returns {d: (m_d, f_d) rows of tables[d-1]} and
    raises MissingFace for the first cell with an absent facet.
    """
    facets = {}
    for d in sorted(tables):
        tab = tables[d]
        if d == 0 or not len(tab):
            continue
        if kind == "simplicial":
            ids = np.stack([np.delete(tab, i, axis=1) for i in range(d + 1)],
                           axis=1).reshape(-1, d)
        else:
            # collapse each extended axis to its two ends; slots stay grouped
            # per cell, lo before hi
            k = len(grid_shape)
            rows_f, axes_f = np.nonzero(tab[:, k:])
            ordinal = np.arange(len(rows_f)) - rows_f * d
            ids = np.repeat(tab, 2 * d, axis=0)
            slot_lo = rows_f * 2 * d + 2 * ordinal
            ids[slot_lo, k + axes_f] = 0
            ids[slot_lo + 1, k + axes_f] = 0
            ids[slot_lo + 1, axes_f] += 1
        target = tables.get(d - 1, np.empty((0, ids.shape[1]), dtype=np.int64))
        needles, hay = _row_keys(ids, target)
        order = np.argsort(hay, kind="stable")
        pos = np.searchsorted(hay, needles, sorter=order)
        found = pos < len(hay)
        found[found] = hay[order[pos[found]]] == needles[found]
        per_cell = len(ids) // len(tab)
        if not found.all():
            bad = int(np.argmin(found))
            raise MissingFace(_cell(kind, tab[bad // per_cell], grid_shape),
                              _cell(kind, ids[bad], grid_shape))
        facets[d] = order[pos].reshape(-1, per_cell)
    return facets


def _assemble(kind, tables_by_dim, values_by_dim, facets, *, grid_shape=None,
              info=None) -> Filtration:
    """Sort cells into filtration order, build the boundary matrix, validate.

    tables_by_dim[d] is an integer identity table (one row per cell of
    dimension d); values_by_dim[d] the matching filtration values.
    facets[d], for every d >= 1, is an (m_d, f_d) integer array: the rows
    of tables_by_dim[d-1] that are the facets of each row of
    tables_by_dim[d], both in the caller's row order.
    """
    tables, vals_parts, by_rank = {}, [], []
    n = 0
    for d in sorted(tables_by_dim):
        tab = np.ascontiguousarray(tables_by_dim[d], dtype=np.int64)
        if len(tab) == 0:
            continue
        keys, = _row_keys(tab)
        perm = np.argsort(keys, kind="stable")
        dup = np.flatnonzero(np.diff(keys[perm]) == 0)
        if len(dup):
            raise ValueError(
                "duplicate cell with identity "
                f"{tuple(int(x) for x in tab[perm[dup[0]]])}")
        tables[d] = tab
        vals_parts.append(np.asarray(values_by_dim[d], dtype=np.float64))
        perm += n
        by_rank.append(perm)
        n += len(tab)

    if not tables:
        empty = BoundaryMatrix(np.zeros(1, dtype=np.int64),
                               np.empty(0, dtype=np.int64))
        return Filtration(kind, np.empty(0, dtype=np.int16),
                          np.empty(0, dtype=np.float64), {},
                          np.empty(0, dtype=np.int64), boundary_matrix=empty,
                          grid_shape=grid_shape, info=info)

    vals_all = np.concatenate(vals_parts)
    del vals_parts
    if not np.isfinite(vals_all).all():
        raise ValueError("filtration values must be finite")

    # cells listed by (dimension, identity); a stable sort by value then
    # breaks ties the way the ordering contract asks
    g = np.concatenate(by_rank)
    del by_rank
    g = g[np.argsort(vals_all[g], kind="stable")]
    vals_sorted = vals_all[g]
    del vals_all
    sizes = [len(tab) for tab in tables.values()]
    dims_sorted = np.repeat(np.array(list(tables), dtype=np.int16), sizes)[g]
    position_all = np.empty(n, dtype=np.int64)
    position_all[g] = np.arange(n)
    final_tables, position = {}, {}
    rows = np.empty(n, dtype=np.int64)
    offset = 0
    for d, tab in tables.items():
        sel = dims_sorted == d
        final_tables[d] = tab[g[sel] - offset]
        rows[sel] = np.arange(len(tab))
        position[d] = position_all[offset:offset + len(tab)]
        offset += len(tab)
    del g, sel

    # column j of cell (d, r) holds the sorted positions of facets[d][r]
    lengths = np.zeros(n + 1, dtype=np.int64)
    for d in position:
        if d:
            lengths[position[d] + 1] = facets[d].shape[1]
    indptr = np.cumsum(lengths)
    del lengths
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    # values ascend along the filtration and a face precedes its cofaces
    # at equal value, so a face sorts after its coface exactly when its
    # value is larger; the earliest such coface and then its earliest
    # face are reported
    late = None
    for d in position:
        if not d:
            continue
        at = position[d]
        cols = position[d - 1][facets[d]]
        cols.sort(axis=1)
        start = indptr[at]
        for c in range(cols.shape[1]):
            indices[start + c] = cols[:, c]
        bad = np.flatnonzero(cols[:, -1] > at)
        if len(bad):
            r = bad[np.argmin(at[bad])]
            if late is None or at[r] < late[0]:
                late = int(at[r]), int(cols[r][np.argmax(cols[r] > at[r])])
    bm = BoundaryMatrix(indptr=indptr, indices=indices)

    filt = Filtration(kind, dims_sorted, vals_sorted, final_tables, rows,
                      boundary_matrix=bm, grid_shape=grid_shape, info=info)
    if late is not None:
        j, i = late
        raise MonotonicityViolation(filt.cell(j), filt.cell(i),
                                    filt.value(j), filt.value(i))
    return filt


def make_filtration(weighted_cells) -> Filtration:
    """Build a filtration from (cell, value) pairs.

    Cells may be Simplex instances, vertex-id tuples, or Cube instances
    (not mixed). Raises MissingFace when a face is absent and
    MonotonicityViolation when a face carries a larger value than a coface.
    """
    items = list(weighted_cells)
    if not items:
        return _assemble("simplicial", {}, {}, {})
    first = items[0][0]

    tables: dict[int, list] = {}
    values: dict[int, list] = {}
    if not isinstance(first, Cube):
        for cell, v in items:
            s = cell if isinstance(cell, Simplex) else Simplex(cell)
            tables.setdefault(s.dimension, []).append(tuple(s))
            values.setdefault(s.dimension, []).append(float(v))
        tabs = {d: np.array(rows_, dtype=np.int64) for d, rows_ in tables.items()}
        return _assemble("simplicial", tabs, values,
                         _lookup_facets("simplicial", tabs))

    k = len(first.anchor)
    shape = [0] * k
    for cell, v in items:
        if not isinstance(cell, Cube):
            raise TypeError("cubical filtrations take Cube cells")
        if len(cell.anchor) != k:
            raise ValueError("mixed cube ranks")
        for a in range(k):
            shape[a] = max(shape[a], cell.anchor[a] + cell.extent[a])
        tables.setdefault(cell.dimension, []).append(cell.identity())
        values.setdefault(cell.dimension, []).append(float(v))
    tabs = {d: np.array(rows_, dtype=np.int64) for d, rows_ in tables.items()}
    shape = tuple(shape)
    return _assemble("cubical", tabs, values,
                     _lookup_facets("cubical", tabs, shape), grid_shape=shape)
