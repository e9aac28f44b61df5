"""Alpha and weighted-alpha filtrations over 2D/3D point clouds.

Triangulations come from Qhull (scipy.spatial): plain Delaunay for
unweighted clouds, the lower convex hull of power-lifted points for
weighted ones. Filtration values are squared radii: a simplex whose
smallest (power) circumsphere is empty of other points gets that sphere's
squared radius; a non-Gabriel simplex inherits the minimum over its
codimension-1 cofaces. Vertices sit at 0, or -weight in the weighted case.

Degenerate inputs (cospherical lattices) are handled by Qhull's facet
merging; the resulting zero-volume top cells, when they appear, get their
smallest circumsphere via a minimum-norm solve, which keeps their value
equal to the surrounding cells' and therefore invisible in diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .complexes import Filtration, SimplicialComplex, _assemble, _row_keys
from .errors import DegenerateInput, DuplicatePoints

DUPLICATE_TOL = 1e-12
_GABRIEL_REL_TOL = 1e-12


@dataclass
class PointCloud:
    """Points in R^2 or R^3, optionally power-weighted."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("points must have shape (n, 2) or (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        self.points = pts
        if self.weights is not None:
            w = np.ascontiguousarray(self.weights, dtype=np.float64)
            if w.shape != (len(pts),):
                raise ValueError("one weight per point required")
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")
            self.weights = w

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return len(self.points)


def _as_cloud(points, weights=None) -> PointCloud:
    if isinstance(points, PointCloud):
        if weights is not None:
            return PointCloud(points.points, weights)
        return points
    return PointCloud(points, weights)


def _check_duplicates(points: np.ndarray):
    tree = cKDTree(points)
    pairs = tree.query_pairs(DUPLICATE_TOL, p=np.inf)
    if pairs:
        i, j = min(pairs)
        raise DuplicatePoints(i, j)


def _deterministic_jitter(shape, magnitude, attempt):
    rng = np.random.default_rng(0x5EED + attempt)
    return (rng.random(shape) - 0.5) * (2.0 * magnitude)


def _top_simplices_unweighted(points: np.ndarray):
    """Rows of top-dimensional Delaunay simplices, plus build notes.

    Qhull occasionally refuses to keep every point on heavily degenerate
    (cospherical) inputs; a tiny deterministic jitter then retries until the
    triangulation covers the cloud. Values are always computed from the
    original coordinates, so the jitter only decides combinatorics.
    """
    n, dim = points.shape
    scale = float(np.abs(points).max()) or 1.0
    pts = points
    info = {}
    for attempt in range(4):
        try:
            tri = Delaunay(pts)
        except QhullError as exc:
            raise DegenerateInput(f"triangulation failed: {exc}") from exc
        simplices = np.sort(tri.simplices.astype(np.int64), axis=1)
        used = np.zeros(n, dtype=bool)
        used[simplices] = True
        if len(tri.coplanar) == 0 and used.all():
            return simplices, info
        magnitude = scale * 10.0 ** (-9 + attempt)
        pts = points + _deterministic_jitter(points.shape, magnitude, attempt)
        info = {"jittered": True, "jitter": magnitude}
    raise DegenerateInput("triangulation dropped points even after jitter")


def _top_simplices_weighted(points: np.ndarray, weights: np.ndarray):
    """Regular triangulation via the lower hull of power-lifted points."""
    n, dim = points.shape
    lift = np.c_[points, (points ** 2).sum(axis=1) - weights]
    centered = lift - lift.mean(axis=0)
    rank = np.linalg.matrix_rank(centered)
    if rank <= dim - 1:
        raise DegenerateInput("points are affinely degenerate")
    if rank == dim:
        # equal power shifts: the regular triangulation degenerates to a
        # Delaunay triangulation of the bare points
        return _top_simplices_unweighted(points)
    try:
        hull = ConvexHull(lift, qhull_options="Qt")
    except QhullError as exc:
        raise DegenerateInput(f"lifted hull failed: {exc}") from exc
    lower = hull.equations[:, dim] < -1e-12
    simplices = np.sort(hull.simplices[lower].astype(np.int64), axis=1)
    present = np.zeros(n, dtype=bool)
    present[simplices] = True
    hidden = np.flatnonzero(~present).tolist()
    info = {"hidden_points": hidden} if hidden else {}
    return simplices, info


def _solve_rows(gram: np.ndarray, rhs: np.ndarray):
    """Batched solve of k x k systems, k <= 3, with a singular-row mask.

    Cramer's rule: cofactor (i, j) is (-1)^(i+j) times the minor without
    row i and column j, where an odd 2 x 2 one swaps its products rather
    than negating their difference; det expands along row 0, and every
    sum starts from its first term.
    """
    k = gram.shape[1]
    diag = np.einsum("mii->mi", gram)
    scale = np.maximum(diag.mean(axis=1), 1e-300) ** k

    def cof(i, j):
        r = [a for a in range(k) if a != i]
        c = [b for b in range(k) if b != j]
        odd = (i + j) % 2
        if not r:
            return 1.0
        if len(r) == 1:
            return -gram[:, r[0], c[0]] if odd else gram[:, r[0], c[0]]
        ad = gram[:, r[0], c[0]] * gram[:, r[1], c[1]]
        bc = gram[:, r[0], c[1]] * gram[:, r[1], c[0]]
        return bc - ad if odd else ad - bc

    cofs = [[cof(i, j) for j in range(k)] for i in range(k)]
    det = reduce(np.add, (gram[:, 0, j] * cofs[0][j] for j in range(k)))
    bad = np.abs(det) <= 1e-14 * scale
    safe = np.where(bad, 1.0, det)
    x = [reduce(np.add, (cofs[i][j] * rhs[:, i] for i in range(k))) / safe
         for j in range(k)]
    return np.stack(x, axis=1), bad


# _orthocenters works on this many rows at a time. A tetrahedron row in 3-D
# takes about 400 B of temporaries (its edge vectors, their squares, the
# Gram matrix and the solve), so a block holds about 3 MB however long the
# table is. On a 20k-point cloud, blocks of 2k rows up to the whole table
# ran equally fast
_ORTHO_BLOCK_ROWS = 1 << 13


def _orthocenters(points, weights, verts):
    """Power circumcenter and value for each simplex row of `verts`.

    The center minimizes the common power distance to the simplex vertices;
    the value is that power. Degenerate rows fall back to a minimum-norm
    least-squares solve, which selects the smallest sphere in the family.
    Rows are solved in blocks of _ORTHO_BLOCK_ROWS; each row's arithmetic
    is the same in any block.
    """
    m, kk = verts.shape
    k = kk - 1
    if k == 0:
        # adding 0.0 turns -0.0 into +0.0 for unweighted clouds
        return points[verts[:, 0]], 0.0 - weights[verts[:, 0]]
    centers = np.empty((m, points.shape[1]))
    values = np.empty(m)
    for lo in range(0, m, _ORTHO_BLOCK_ROWS):
        block = verts[lo:lo + _ORTHO_BLOCK_ROWS]
        p0 = points[block[:, 0]]
        q = points[block[:, 1:]] - p0[:, None, :]
        w0 = weights[block[:, 0]]
        rhs = 0.5 * ((q ** 2).sum(axis=2) - weights[block[:, 1:]]
                     + w0[:, None])
        gram = q @ np.swapaxes(q, 1, 2)
        y, bad = _solve_rows(gram, rhs)
        c_rel = np.einsum("mk,mkd->md", y, q)
        for r in np.flatnonzero(bad):
            c_rel[r], *_ = np.linalg.lstsq(q[r], rhs[r], rcond=None)
        rows = slice(lo, lo + len(block))
        values[rows] = (c_rel ** 2).sum(axis=1) - w0
        centers[rows] = p0 + c_rel
    return centers, values


_SNAP_REL_TOL = 1e-10


def _snap_ties(raw_by_dim, dims):
    """Collapse solver dust between values of cospherical cell groups.

    Exactly degenerate inputs (crystal lattices, regular solids) produce
    many independent solves of one ideal quantity; the floats land a few
    ulps apart and would leave epsilon-persistence debris in the diagrams
    where exact arithmetic gives ties that cancel. Sorting the pooled
    values and merging runs separated by less than a relative tolerance
    restores those ties.
    """
    if not dims:
        return
    sizes = [len(raw_by_dim[d]) for d in dims]
    pool = np.concatenate([raw_by_dim[d] for d in dims])
    order = np.argsort(pool, kind="stable")
    s = pool[order]
    del pool
    # a run breaks where a gap passes the tolerance of the value below it
    tol = np.abs(s[:-1])
    np.maximum(tol, 1.0, out=tol)
    tol *= _SNAP_REL_TOL
    starts = np.ones(len(s), dtype=bool)
    starts[1:] = np.diff(s) > tol
    del tol
    # each run snaps to its largest member, which keeps exactly
    # representable values when the dust errs low
    run_ends = np.append(np.flatnonzero(starts)[1:] - 1, len(s) - 1)
    snapped = s[run_ends]
    del s, run_ends
    group = np.cumsum(starts)
    group -= 1
    out = np.empty(len(order))
    out[order] = snapped[group]
    offset = 0
    for d, size in zip(dims, sizes):
        raw_by_dim[d] = out[offset:offset + size]
        offset += size


def _alpha_tables(points, weights, top):
    """Per-dimension vertex tables, filtration values, and face incidences.

    faces_of[d][r] lists the rows of tables[d-1] that are the facets of
    row r of tables[d]; slot i is the facet without vertex i. Every step
    below works one facet slot at a time, so its temporaries hold one
    entry per cell rather than one per (cell, facet) pair.
    """
    top_dim = top.shape[1] - 1
    tables = {top_dim: top}
    faces_of = {}
    for d in range(top_dim, 0, -1):
        arr = tables[d]
        m = len(arr)
        # block i of faces_all holds every row without its vertex i
        faces_all = np.empty(((d + 1) * m, d), dtype=arr.dtype)
        for i in range(d + 1):
            block = faces_all[i * m:(i + 1) * m]
            block[:, :i] = arr[:, :i]
            block[:, i:] = arr[:, i + 1:]
        keys = _row_keys(faces_all)
        first, inv = np.unique(keys, return_index=True,
                               return_inverse=True)[1:]
        del keys
        tables[d - 1] = faces_all[first]
        del faces_all, first
        faces_of[d] = inv.reshape(d + 1, m).T

    # the Gabriel test reads the centers of dimensions 1 .. top_dim - 1
    raw, centers = {}, {}
    for d in range(top_dim + 1):
        c, raw[d] = _orthocenters(points, weights, tables[d])
        if 0 < d < top_dim:
            centers[d] = c
        del c
    _snap_ties(raw, list(range(1, top_dim + 1)))
    values = {top_dim: raw[top_dim]}
    for d in range(top_dim - 1, 0, -1):
        cofaces, slots = tables[d + 1], faces_of[d + 1]
        center = centers.pop(d)
        m1 = len(tables[d])
        non_gabriel = np.zeros(m1, dtype=bool)
        prop = np.full(m1, np.inf)
        for i in range(d + 2):
            face, opp = slots[:, i], cofaces[:, i]
            # power of the opposite vertex w.r.t. the face's sphere, summed
            # one coordinate at a time in the order of a row sum
            power = (points[opp, 0] - center[face, 0]) ** 2
            for axis in range(1, points.shape[1]):
                power += (points[opp, axis] - center[face, axis]) ** 2
            power -= weights[opp]
            r = raw[d][face]
            tol = _GABRIEL_REL_TOL * np.maximum(np.abs(r), 1.0)
            non_gabriel[face[power < r - tol]] = True
            np.minimum.at(prop, face, values[d + 1])
        del center
        values[d] = np.where(non_gabriel, prop, raw[d])
    values[0] = raw[0]

    # monotone clamp: float dust only, construction is monotone by design;
    # a larger gap means the triangulation does not fit the coordinates
    for d in range(1, top_dim + 1):
        slots = faces_of[d]
        floor = values[d - 1][slots[:, 0]]
        for i in range(1, d + 1):
            np.maximum(floor, values[d - 1][slots[:, i]], out=floor)
        slack = values[d] - floor
        if slack.min(initial=0.0) <= \
                -1e-6 * max(1.0, np.abs(floor).max(initial=0.0)):
            raise DegenerateInput(
                "a cell's value falls below its faces' beyond float dust")
        np.maximum(values[d], floor, out=values[d])
    return tables, values, faces_of


def _build_alpha(cloud: PointCloud, weights) -> Filtration:
    points = cloud.points
    n, dim = points.shape
    _check_duplicates(points)
    info = {}
    if n == 0:
        raise DegenerateInput("empty point cloud")
    if n <= 2:
        # one or two points are their own top simplex; Qhull needs more
        top = np.arange(n)[None, :]
    elif np.linalg.matrix_rank(points - points.mean(axis=0)) < dim:
        raise DegenerateInput(
            "points span a lower-dimensional subspace")
    elif (weights == 0).all():
        top, info = _top_simplices_unweighted(points)
    else:
        top, info = _top_simplices_weighted(points, weights)
    # no local holds the values or incidences: _assemble frees each once
    # it is used
    return _assemble("simplicial", *_alpha_tables(points, weights, top),
                     info=info)


def delaunay(points) -> SimplicialComplex:
    """Full Delaunay complex of a 2D or 3D cloud as a simplicial complex."""
    cloud = _as_cloud(points)
    f = alpha_filtration(cloud)
    return SimplicialComplex(f.cells)


def alpha_filtration(points) -> Filtration:
    """Alpha filtration with squared-radius values; vertices at 0."""
    cloud = _as_cloud(points)
    return _build_alpha(cloud, np.zeros(len(cloud)))


def weighted_alpha_filtration(points, weights=None) -> Filtration:
    """Weighted alpha filtration; vertex i enters at -weights[i].

    Points hidden by the power diagram are absent from the filtration and
    listed in the result's info["hidden_points"].
    """
    cloud = _as_cloud(points, weights)
    if cloud.weights is None:
        raise ValueError("weighted_alpha_filtration needs weights")
    return _build_alpha(cloud, cloud.weights)
