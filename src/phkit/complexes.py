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
computes them from the grid, cliques from the keys of their enumeration),
and _assemble maps them to filtration positions; the tables stay in the
builder's row order. Cells given to make_filtration arrive without facets
and get them from _lookup_facets, which finds each facet by identity and
reports the first absent one as MissingFace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingFace, MonotonicityViolation

# the most cells a builder makes before it raises TooLarge. A 40^3 or 64^3
# cubical filtration holds 98 B per cell (tables, values, rows and the
# boundary matrix); its build peaks at 1.5 times that under tracemalloc,
# and the build and reduction together took 182 B per cell of max RSS at
# 64^3. So 20M cells need about 20M * 182 B = 3.6 GB, under half of an
# 8 GB machine
CELL_CAP = 20_000_000


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
    takes the cells' dimensions and values in filtration order, the
    builder's identity table per dimension, each cell's row in its table,
    and the boundary matrix.
    """

    def __init__(self, kind, dims, values, tables, rows, *, boundary_matrix,
                 info=None):
        self.kind = kind
        self.dims = dims
        self.values = values
        self._tables = tables
        self._rows = rows
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
        return _cell(self.kind, self.identity_rows(int(self.dims[i]), i))

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
        if not len(hit):
            return -1
        mine = (self.dims == d) & (self._rows == hit[0])
        return int(np.flatnonzero(mine)[0])

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


def _cell(kind, row):
    """The Simplex or Cube an identity row stands for."""
    if kind == "simplicial":
        return Simplex(row)
    k = len(row) // 2
    return Cube(row[:k], row[k:])


def _row_keys(table):
    """One int64 key per row of the table, in the order of the rows.

    Rows compare lexicographically, so equal rows get equal keys. Each
    column packs in base max+1; a column past 2^31 packs its ranks, and
    keys the next step would take past 2^62 are first replaced by ranks.
    """
    keys = np.zeros(len(table), dtype=np.int64)
    bound = 1  # every key is below bound
    for col in table.T:
        base = int(col.max(initial=0)) + 1
        if base > 1 << 31:
            col = np.unique(col, return_inverse=True)[1]
            base = int(col.max(initial=0)) + 1
        if bound * base > 1 << 62:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = int(keys.max(initial=0)) + 1
        keys *= base
        keys += col
        bound *= base
    return keys


def _lookup_facets(kind, tables):
    """Facet rows of every cell, found by identity in the table below it.

    Serves make_filtration, whose cells arrive without their facets; every
    builder hands over its own. Returns {d: (m_d, f_d) rows of
    tables[d-1]} and raises MissingFace for the first cell with an absent
    facet.
    """
    facets = {}
    for d in sorted(tables):
        tab = tables[d]
        if d == 0:
            continue
        if kind == "simplicial":
            ids = np.stack([np.delete(tab, i, axis=1) for i in range(d + 1)],
                           axis=1).reshape(-1, d)
        else:
            # collapse each extended axis to its two ends; np.nonzero lists
            # each cell's d axes in turn, so slots group per cell, lo first
            k = tab.shape[1] // 2
            rows_f, axes_f = np.nonzero(tab[:, k:])
            ids = np.repeat(tab, 2 * d, axis=0)
            slot_lo = 2 * np.arange(len(rows_f))
            ids[slot_lo, k + axes_f] = 0
            ids[slot_lo + 1, k + axes_f] = 0
            ids[slot_lo + 1, axes_f] += 1
        target = tables.get(d - 1, np.empty((0, ids.shape[1]), dtype=np.int64))
        keys = _row_keys(np.concatenate([ids, target]))
        needles, hay = keys[:len(ids)], keys[len(ids):]
        order = np.argsort(hay, kind="stable")
        pos = np.searchsorted(hay, needles, sorter=order)
        found = pos < len(hay)
        found[found] = hay[order[pos[found]]] == needles[found]
        per_cell = len(ids) // len(tab)
        if not found.all():
            bad = int(np.argmin(found))
            raise MissingFace(_cell(kind, tab[bad // per_cell]),
                              _cell(kind, ids[bad]))
        facets[d] = order[pos].reshape(-1, per_cell)
    return facets


def _assemble(kind, tables_by_dim, values_by_dim, facets, *,
              info=None) -> Filtration:
    """Sort cells into filtration order, build the boundary matrix, validate.

    tables_by_dim[d] is an integer identity table (one row per cell of
    dimension d); values_by_dim[d] the matching filtration values.
    facets[d], for every d >= 1, is an (m_d, f_d) integer array: the rows
    of tables_by_dim[d-1] that are the facets of each row of
    tables_by_dim[d], both in the caller's row order. The filtration keeps
    the tables in that order and records each cell's row in its table.

    values_by_dim and facets are consumed: each entry is popped once it
    has been read, so an array the caller does not hold elsewhere is freed
    while the boundary matrix is still being built.
    """
    tables, vals_parts, by_rank = {}, [np.empty(0)], [np.empty(0, np.int64)]
    n = 0
    for d in sorted(tables_by_dim):
        tab = np.ascontiguousarray(tables_by_dim[d], dtype=np.int64)
        keys = _row_keys(tab)
        perm = np.argsort(keys, kind="stable")
        dup = np.flatnonzero(np.diff(keys[perm]) == 0)
        if len(dup):
            raise ValueError(
                "duplicate cell with identity "
                f"{tuple(int(x) for x in tab[perm[dup[0]]])}")
        tables[d] = tab
        vals_parts.append(np.asarray(values_by_dim.pop(d), dtype=np.float64))
        perm += n
        by_rank.append(perm)
        n += len(tab)

    vals_all = np.concatenate(vals_parts)
    del vals_parts
    if not np.isfinite(vals_all).all():
        raise ValueError("filtration values must be finite")

    # cells listed by (dimension, identity); a stable sort by value then
    # breaks ties the way the ordering contract asks
    g = np.concatenate(by_rank)
    del by_rank
    g = g[np.argsort(vals_all[g], kind="stable")]
    values = vals_all[g]
    del vals_all
    starts = np.cumsum([0] + [len(tab) for tab in tables.values()])
    dims = np.repeat(np.array(list(tables), dtype=np.int16),
                     np.diff(starts))[g]
    position_all = np.empty(n, dtype=np.int64)
    position_all[g] = np.arange(n)
    # g turns into each cell's row in its own table
    position = {}
    for d, lo, hi in zip(tables, starts, starts[1:]):
        g[dims == d] -= lo
        position[d] = position_all[lo:hi]

    # column j of cell (d, r) holds the sorted positions of facets[d][r]
    lengths = np.zeros(n + 1, dtype=np.int64)
    for d in position:
        if d:
            lengths[position[d] + 1] = facets[d].shape[1]
    indptr = np.cumsum(lengths)
    del lengths
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for d in position:
        if d:
            cols = position[d - 1][facets.pop(d)]
            cols.sort(axis=1)
            slots = indptr[position[d]][:, None] + np.arange(cols.shape[1])
            indices[slots] = cols
            del cols, slots
    bm = BoundaryMatrix(indptr=indptr, indices=indices)
    filt = Filtration(kind, dims, values, tables, g, boundary_matrix=bm,
                      info=info)

    # values ascend along the filtration and a face precedes its cofaces
    # at equal value, so a face sorts after its coface exactly when its
    # value is larger; every cell above dimension 0 has faces and its
    # column is sorted, so the earliest column whose last face lies past
    # it and then its first such face are reported
    cofaces = np.flatnonzero(dims)
    late = cofaces[indices[indptr[cofaces + 1] - 1] > cofaces]
    if len(late):
        j = int(late[0])
        col = bm.column(j)
        i = int(col[np.argmax(col > j)])
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
    first = items[0][0] if items else None
    kind = "cubical" if isinstance(first, Cube) else "simplicial"
    tables: dict[int, list] = {}
    values: dict[int, list] = {}
    for cell, v in items:
        if kind == "simplicial":
            cell = cell if isinstance(cell, Simplex) else Simplex(cell)
        elif not isinstance(cell, Cube):
            raise TypeError("cubical filtrations take Cube cells")
        elif len(cell.anchor) != len(first.anchor):
            raise ValueError("mixed cube ranks")
        tables.setdefault(cell.dimension, []).append(
            cell.identity() if kind == "cubical" else cell)
        values.setdefault(cell.dimension, []).append(float(v))
    tabs = {d: np.array(rows, dtype=np.int64) for d, rows in tables.items()}
    return _assemble(kind, tabs, values, _lookup_facets(kind, tabs))
