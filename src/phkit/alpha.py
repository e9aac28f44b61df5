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
    if len(points) < 2:
        return
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
        used = np.unique(simplices)
        if len(tri.coplanar) == 0 and len(used) == n:
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
    present = np.unique(simplices)
    hidden = sorted(set(range(n)) - set(int(i) for i in present))
    info = {"hidden_points": hidden} if hidden else {}
    return simplices, info


def _solve_rows(gram: np.ndarray, rhs: np.ndarray):
    """Batched solve of k x k systems, k <= 3, with a singular-row mask."""
    k = gram.shape[1]
    diag = np.einsum("mii->mi", gram)
    scale = np.maximum(diag.mean(axis=1), 1e-300) ** k
    if k == 1:
        det = gram[:, 0, 0]
        bad = np.abs(det) <= 1e-14 * scale
        safe = np.where(bad, 1.0, det)
        x = rhs / safe[:, None]
        return x, bad
    if k == 2:
        a, b = gram[:, 0, 0], gram[:, 0, 1]
        c, d = gram[:, 1, 0], gram[:, 1, 1]
        det = a * d - b * c
        bad = np.abs(det) <= 1e-14 * scale
        safe = np.where(bad, 1.0, det)
        x0 = (d * rhs[:, 0] - b * rhs[:, 1]) / safe
        x1 = (-c * rhs[:, 0] + a * rhs[:, 1]) / safe
        return np.stack([x0, x1], axis=1), bad
    m = gram
    c00 = m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1]
    c01 = m[:, 1, 2] * m[:, 2, 0] - m[:, 1, 0] * m[:, 2, 2]
    c02 = m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0]
    det = m[:, 0, 0] * c00 + m[:, 0, 1] * c01 + m[:, 0, 2] * c02
    bad = np.abs(det) <= 1e-14 * scale
    safe = np.where(bad, 1.0, det)
    c10 = m[:, 0, 2] * m[:, 2, 1] - m[:, 0, 1] * m[:, 2, 2]
    c11 = m[:, 0, 0] * m[:, 2, 2] - m[:, 0, 2] * m[:, 2, 0]
    c12 = m[:, 0, 1] * m[:, 2, 0] - m[:, 0, 0] * m[:, 2, 1]
    c20 = m[:, 0, 1] * m[:, 1, 2] - m[:, 0, 2] * m[:, 1, 1]
    c21 = m[:, 0, 2] * m[:, 1, 0] - m[:, 0, 0] * m[:, 1, 2]
    c22 = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    x0 = (c00 * rhs[:, 0] + c10 * rhs[:, 1] + c20 * rhs[:, 2]) / safe
    x1 = (c01 * rhs[:, 0] + c11 * rhs[:, 1] + c21 * rhs[:, 2]) / safe
    x2 = (c02 * rhs[:, 0] + c12 * rhs[:, 1] + c22 * rhs[:, 2]) / safe
    return np.stack([x0, x1, x2], axis=1), bad


def _orthocenters(points, weights, verts):
    """Power circumcenter and value for each simplex row of `verts`.

    The center minimizes the common power distance to the simplex vertices;
    the value is that power. Degenerate rows fall back to a minimum-norm
    least-squares solve, which selects the smallest sphere in the family.
    """
    m, kk = verts.shape
    k = kk - 1
    p0 = points[verts[:, 0]]
    if k == 0:
        # adding 0.0 turns -0.0 into +0.0 for unweighted clouds
        return p0.copy(), 0.0 - weights[verts[:, 0]]
    q = points[verts[:, 1:]] - p0[:, None, :]
    w0 = weights[verts[:, 0]]
    rhs = 0.5 * ((q ** 2).sum(axis=2) - weights[verts[:, 1:]] + w0[:, None])
    gram = q @ np.swapaxes(q, 1, 2)
    y, bad = _solve_rows(gram, rhs)
    c_rel = np.einsum("mk,mkd->md", y, q)
    if bad.any():
        for r in np.flatnonzero(bad):
            sol, *_ = np.linalg.lstsq(q[r], rhs[r], rcond=None)
            c_rel[r] = sol
    value = (c_rel ** 2).sum(axis=1) - w0
    return p0 + c_rel, value


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
    parts = [raw_by_dim[d] for d in dims]
    if not parts:
        return
    pool = np.concatenate(parts)
    if len(pool) < 2:
        return
    order = np.argsort(pool, kind="stable")
    s = pool[order]
    starts = np.ones(len(s), dtype=bool)
    starts[1:] = np.diff(s) > _SNAP_REL_TOL * np.maximum(np.abs(s[:-1]), 1.0)
    group = np.cumsum(starts) - 1
    # each run snaps to its largest member, which keeps exactly
    # representable values when the dust errs low
    run_ends = np.append(np.flatnonzero(starts)[1:] - 1, len(s) - 1)
    out = np.empty_like(pool)
    out[order] = s[run_ends][group]
    offset = 0
    for d, part in zip(dims, parts):
        raw_by_dim[d] = out[offset:offset + len(part)]
        offset += len(part)


def _alpha_tables(points, weights, top):
    """Per-dimension vertex tables, filtration values, and face incidences.

    faces_of[d][r] lists the rows of tables[d-1] that are the facets of
    row r of tables[d].
    """
    top_dim = top.shape[1] - 1
    tables = {top_dim: top}
    faces_of = {}
    for d in range(top_dim, 0, -1):
        arr = tables[d]
        m = len(arr)
        blocks = [np.delete(arr, i, axis=1) for i in range(d + 1)]
        faces_all = np.concatenate(blocks, axis=0)
        keys = _row_keys(faces_all)
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        tables[d - 1] = faces_all[first]
        faces_of[d] = inv.reshape(d + 1, m).T

    values = {}
    centers = {}
    raw = {}
    for d in range(top_dim, -1, -1):
        c, v = _orthocenters(points, weights, tables[d])
        centers[d] = c
        raw[d] = v
    _snap_ties(raw, list(range(1, top_dim + 1)))
    values[top_dim] = raw[top_dim]
    for d in range(top_dim - 1, 0, -1):
        arr = tables[d + 1]
        m1 = len(tables[d])
        face_idx = faces_of[d + 1].ravel()
        cell_idx = np.repeat(np.arange(len(arr)), d + 2)
        opp = arr.ravel()
        cf = centers[d][face_idx]
        power = ((points[opp] - cf) ** 2).sum(axis=1) - weights[opp]
        tol = _GABRIEL_REL_TOL * np.maximum(np.abs(raw[d][face_idx]), 1.0)
        inside = power < raw[d][face_idx] - tol
        non_gabriel = np.zeros(m1, dtype=bool)
        non_gabriel[face_idx[inside]] = True
        prop = np.full(m1, np.inf)
        np.minimum.at(prop, face_idx, values[d + 1][cell_idx])
        values[d] = np.where(non_gabriel, prop, raw[d])
    values[0] = raw[0]

    # monotone clamp: float dust only, construction is monotone by design;
    # a larger gap means the triangulation does not fit the coordinates
    for d in range(1, top_dim + 1):
        face_vals = values[d - 1][faces_of[d]]
        floor = face_vals.max(axis=1)
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
    tables, values, faces_of = _alpha_tables(points, weights, top)
    return _assemble("simplicial", tables, values, faces_of, info=info)


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
