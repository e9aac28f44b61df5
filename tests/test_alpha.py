import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import Delaunay, QhullError

from phkit import (alpha, alpha_filtration, betti_numbers,
                   compute_persistence, delaunay, oracle_persistence,
                   weighted_alpha_filtration)
from phkit.alpha import PointCloud
from phkit.errors import DegenerateInput, DuplicatePoints

from conftest import regular_tetrahedron


def octahedron():
    return np.array([
        [1.0, 0, 0], [-1.0, 0, 0],
        [0, 1.0, 0], [0, -1.0, 0],
        [0, 0, 1.0], [0, 0, -1.0],
    ])


def values_by_dim(f):
    out = {}
    for d in range(f.max_dim + 1):
        out[d] = np.sort(f.values[f.dims == d])
    return out


def diagram_sets(diagrams):
    out = {}
    for pd in diagrams:
        pd.sort()
        out[pd.degree] = list(zip(pd.births.tolist(), pd.deaths.tolist()))
    return out


@pytest.mark.parametrize("a", [1.0, 2.5])
def test_regular_tetrahedron_values(a):
    f = alpha_filtration(regular_tetrahedron(a))
    vals = values_by_dim(f)
    assert np.allclose(vals[0], 0.0, atol=1e-12)
    assert np.allclose(vals[1], a * a / 4, atol=1e-9 * a * a)
    assert np.allclose(vals[2], a * a / 3, atol=1e-9 * a * a)
    assert np.allclose(vals[3], 3 * a * a / 8, atol=1e-9 * a * a)
    assert [int((f.dims == d).sum()) for d in range(4)] == [4, 6, 4, 1]


def test_regular_tetrahedron_diagrams():
    f = alpha_filtration(regular_tetrahedron())
    _, diagrams = compute_persistence(f)
    ds = diagram_sets(diagrams)
    assert np.allclose(ds[0][:3], [(0.0, 0.25)] * 3, atol=1e-9)
    assert ds[0][3] == (0.0, np.inf)
    assert np.allclose(ds[1], [(0.25, 1 / 3)] * 3, atol=1e-9)
    assert np.allclose(ds[2], [(1 / 3, 0.375)], atol=1e-9)


def test_octahedron_values_and_diagrams():
    f = alpha_filtration(octahedron())
    vals = values_by_dim(f)
    assert np.allclose(vals[0], 0.0, atol=1e-12)
    assert np.allclose(vals[1], [0.5] * 12 + [1.0], atol=1e-9)
    assert np.allclose(vals[2], [2 / 3] * 8 + [1.0] * 4, atol=1e-9)
    assert np.allclose(vals[3], [1.0] * 4, atol=1e-9)

    _, diagrams = compute_persistence(f)
    ds = diagram_sets(diagrams)
    assert np.allclose(ds[0][:5], [(0.0, 0.5)] * 5, atol=1e-9)
    assert ds[0][5] == (0.0, np.inf)
    assert np.allclose(ds[1], [(0.5, 2 / 3)] * 7, atol=1e-9)
    assert np.allclose(ds[2], [(2 / 3, 1.0)], atol=1e-9)


def test_two_points_edge_value():
    f = alpha_filtration(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
    vals = values_by_dim(f)
    assert np.allclose(vals[0], 0.0)
    assert np.allclose(vals[1], [1.0])

    f2 = alpha_filtration(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert np.allclose(values_by_dim(f2)[1], [6.25])


def test_single_point():
    f = alpha_filtration(np.array([[0.5, 0.5]]))
    assert len(f) == 1
    assert f.values[0] == 0.0


def test_weighted_two_points():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    f = weighted_alpha_filtration(pts, [0.0, 0.25])
    vals = values_by_dim(f)
    assert np.allclose(np.sort(vals[0]), [-0.25, 0.0])
    assert np.allclose(vals[1], [9 / 64])
    # a PointCloud without weights takes them from the call
    g = weighted_alpha_filtration(PointCloud(pts), [0.0, 0.25])
    assert np.array_equal(g.values, f.values)
    with pytest.raises(ValueError, match="needs weights"):
        weighted_alpha_filtration(PointCloud(pts))


def test_equal_weight_shift_identity():
    rng = np.random.default_rng(11)
    pts = rng.random((40, 3))
    base = alpha_filtration(pts)
    w = 0.37
    shifted = weighted_alpha_filtration(pts, np.full(40, w))
    assert len(base) == len(shifted)
    assert base.cells == shifted.cells
    assert np.allclose(shifted.values, base.values - w, atol=1e-12)


def test_equal_weight_shift_on_cospherical_cloud():
    # all points on one sphere: the lifted hull degenerates and the build
    # must fall back to a plain triangulation
    base = alpha_filtration(octahedron())
    shifted = weighted_alpha_filtration(octahedron(), np.full(6, 0.1))
    assert base.cells == shifted.cells
    assert np.allclose(shifted.values, base.values - 0.1, atol=1e-12)


def test_hidden_point_is_excluded():
    pts = np.array([[0.0, 0], [0.1, 0], [3.0, 0], [0.0, 3.0], [-3.0, -3.0]])
    w = np.array([4.0, 0.0, 0.0, 0.0, 0.0])
    f = weighted_alpha_filtration(pts, w)
    assert f.info["hidden_points"] == [1]
    used = {c.vertices[0] for c in f.cells if c.dimension == 0}
    assert used == {0, 2, 3, 4}


def test_unit_square():
    pts = np.array([[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1]])
    f = alpha_filtration(pts)
    counts = [int((f.dims == d).sum()) for d in range(3)]
    assert counts == [4, 5, 2]
    vals = values_by_dim(f)
    assert np.allclose(vals[1], [0.25] * 4 + [0.5], atol=1e-9)
    assert np.allclose(vals[2], [0.5] * 2, atol=1e-9)
    _, diagrams = compute_persistence(f)
    ds = diagram_sets(diagrams)
    assert np.allclose(ds[1], [(0.25, 0.5)], atol=1e-9)


def test_delaunay_complex():
    pts = np.array([[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1]])
    c = delaunay(pts)
    assert len(c.cells) == 11
    assert c.max_dim == 2


def test_collinear_points_rejected():
    pts = np.array([[0.0, 0], [1.0, 1], [2.0, 2]])
    with pytest.raises(DegenerateInput):
        alpha_filtration(pts)


def test_coplanar_3d_rejected():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
    with pytest.raises(DegenerateInput):
        alpha_filtration(pts)


def test_huge_weights_make_the_lift_degenerate():
    # the lift column, near 1e20, sets matrix_rank's tolerance, so the
    # planar coordinates no longer count toward the rank
    rng = np.random.default_rng(0)
    pts = rng.random((20, 2))
    with pytest.raises(DegenerateInput, match="affinely degenerate"):
        weighted_alpha_filtration(pts, rng.random(20) * 1e20)


def near_duplicate_cloud(seed, shape):
    """Random cloud whose last point sits 2e-12 from its first: outside the
    duplicate tolerance, but Qhull drops it, so the build retries with
    jitter."""
    pts = np.random.default_rng(seed).random(shape) * 1000
    pts[-1] = pts[0] + 2e-12
    return pts


def test_near_duplicate_point_is_jittered():
    for seed in range(20):
        pts = near_duplicate_cloud(seed, (6, 2))
        f = alpha_filtration(pts)
        assert f.info["jittered"] is True
        assert f.info["jitter"] == float(np.abs(pts).max()) * 10.0 ** -9
        assert np.count_nonzero(f.dims == 0) == 6
        pairing, _ = compute_persistence(f)
        assert 2 * len(pairing.pairs) + len(pairing.essential) == len(f)


def test_near_duplicate_point_in_3d_is_degenerate():
    # the jittered triangulation gives a cell a value below its faces'
    with pytest.raises(DegenerateInput):
        alpha_filtration(near_duplicate_cloud(7, (10, 3)))


def raise_qhull_error(*args, **kwargs):
    raise QhullError("QH6154 Qhull precision error: initial simplex is flat")


def test_qhull_error_is_degenerate_input(monkeypatch):
    monkeypatch.setattr(alpha, "Delaunay", raise_qhull_error)
    with pytest.raises(DegenerateInput, match="triangulation failed"):
        alpha_filtration(np.random.default_rng(0).random((10, 2)))


def test_lifted_hull_qhull_error_is_degenerate_input(monkeypatch):
    monkeypatch.setattr(alpha, "ConvexHull", raise_qhull_error)
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateInput, match="lifted hull failed"):
        weighted_alpha_filtration(rng.random((10, 2)), rng.random(10))


def test_jitter_gives_up_when_a_point_stays_dropped(monkeypatch):
    calls = []

    def drop_last_point(pts):
        calls.append(pts)
        return Delaunay(pts[:-1])

    monkeypatch.setattr(alpha, "Delaunay", drop_last_point)
    with pytest.raises(DegenerateInput, match="even after jitter"):
        alpha_filtration(np.random.default_rng(0).random((10, 2)))
    assert len(calls) == 4


def test_solve_rows_matches_numpy_solve():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        q = rng.normal(size=(200, k, 3))
        gram = q @ np.swapaxes(q, 1, 2) + 3 * np.eye(k)
        rhs = rng.normal(size=(200, k))
        x, bad = alpha._solve_rows(gram, rhs)
        assert not bad.any()
        want = np.linalg.solve(gram, rhs[..., None])[..., 0]
        assert np.allclose(x, want, rtol=1e-12, atol=1e-12)
        # a repeated edge vector, or for k = 1 a zero one, makes it singular
        q[:100, -1] = q[:100, 0] * (k > 1)
        gram = q @ np.swapaxes(q, 1, 2)
        _, bad = alpha._solve_rows(gram, rhs)
        assert bad[:100].all() and not bad[100:].any()


def test_duplicate_points_rejected():
    pts = np.array([[0.0, 0], [1.0, 0], [1.0, 0], [0.0, 1]])
    with pytest.raises(DuplicatePoints) as err:
        alpha_filtration(pts)
    assert (err.value.i, err.value.j) == (1, 2)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 2)), weights=[1.0])
    with pytest.raises(ValueError, match="weights must be finite"):
        PointCloud(np.eye(2), weights=[0.0, np.inf])
    with pytest.raises(DegenerateInput):
        alpha_filtration(np.zeros((0, 2)))


def test_matches_rank_oracle_on_random_cloud():
    rng = np.random.default_rng(23)
    pts = rng.random((9, 2))
    f = alpha_filtration(pts)
    _, engine = compute_persistence(f)
    oracle = oracle_persistence(f)
    for pd_e, pd_o in zip(engine, oracle):
        pd_e.sort()
        pd_o.sort()
        assert np.array_equal(pd_e.pairs, pd_o.pairs)


def union_of_disks_betti(points, r, grid=420):
    """Pixel flood-fill Betti numbers of a union of equal disks."""
    lo = points.min(axis=0) - (r + 0.25)
    hi = points.max(axis=0) + (r + 0.25)
    span = (hi - lo).max()
    xs = np.linspace(lo[0], lo[0] + span, grid)
    ys = np.linspace(lo[1], lo[1] + span, grid)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    mask = np.zeros((grid, grid), dtype=bool)
    for p in points:
        mask |= (gx - p[0]) ** 2 + (gy - p[1]) ** 2 <= r * r
    eight = np.ones((3, 3), dtype=int)
    _, b0 = ndimage.label(mask, structure=eight)
    _, outside = ndimage.label(~mask)
    return b0, outside - 1, span / (grid - 1)


def test_sublevel_betti_match_union_of_disks():
    rng = np.random.default_rng(5)
    for _ in range(3):
        pts = rng.random((6, 2)) * 2.0
        f = alpha_filtration(pts)
        crit = np.unique(np.sqrt(np.maximum(f.values, 0.0)))
        radii = (crit[:-1] + crit[1:]) / 2
        radii = radii[radii > 1e-3]
        for r in radii:
            b0_pix, b1_pix, h = union_of_disks_betti(pts, r)
            if (np.abs(crit - r) < 4 * h).any():
                continue
            betti = betti_numbers(f, prefix=f.prefix_length(r * r))
            b1 = betti[1] if len(betti) > 1 else 0
            assert betti[0] == b0_pix, f"components differ at r={r}"
            assert b1 == b1_pix, f"holes differ at r={r}"


def test_cycle_cells_are_filtration_members():
    rng = np.random.default_rng(3)
    pts = rng.random((12, 3))
    f = alpha_filtration(pts)
    pairing, diagrams = compute_persistence(f)
    assert len(diagrams[0].essential_births) == 1
    total_pairs = len(pairing.pairs) + len(pairing.essential)
    assert 2 * len(pairing.pairs) + len(pairing.essential) == len(f)
    assert total_pairs > 0


def test_cospherical_solids_have_no_epsilon_pairs():
    # the interior faces of these solids tie exactly with their cofaces in
    # exact arithmetic; the tie snapping must keep the float diagrams clean
    for a in (1.0, 2.5, 0.3):
        r = a / np.sqrt(2.0)
        octa = np.array([[r, 0, 0], [-r, 0, 0], [0, r, 0],
                         [0, -r, 0], [0, 0, r], [0, 0, -r]])
        _, diagrams = compute_persistence(alpha_filtration(PointCloud(octa)))
        assert len(diagrams[1]) == 7
        pd2 = diagrams[1 + 1]
        assert len(pd2) == 1
        b, d = pd2.finite_pairs[0]
        assert b == pytest.approx(a * a / 3, rel=1e-12)
        assert d == pytest.approx(a * a / 2, rel=1e-12)


def test_snapping_keeps_distinct_values_apart():
    # a tall rectangle with the top edge longer by 2e-6: the two short
    # edge values differ by about 1e-6, far above the snap window
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 10.0], [1.000002, 10.0]])
    f = alpha_filtration(PointCloud(pts))
    near_quarter = np.unique(f.values[(f.dims == 1)
                                      & (np.abs(f.values - 0.25) < 1e-4)])
    assert len(near_quarter) == 2
    assert np.diff(near_quarter)[0] > 9e-7


def held_bytes(f):
    bm = f.boundary_matrix()
    return sum(a.nbytes for a in (f.dims, f.values, f._rows, bm.indptr,
                                  bm.indices, *f._tables.values()))


@pytest.mark.parametrize("dim", [3, 2])
def test_build_peak_memory_stays_near_the_result(dim):
    # the traced peak of a build against the bytes its filtration holds:
    # about 1.7 in 3-D and 1.9 in 2-D when the build works one facet slot
    # or row block at a time; arrays with one row per (cell, facet)
    # incidence and a column per coordinate reached 3.0 and 2.8
    pts = np.random.default_rng(0).random((5000, dim))
    alpha_filtration(pts)
    tracemalloc.start()
    try:
        f = alpha_filtration(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * held_bytes(f)


def cubic_lattice(side):
    axes = [np.arange(float(side))] * 3
    return np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("build", [
    lambda: alpha_filtration(np.random.default_rng(1).random((2500, 3))),
    lambda: alpha_filtration(np.random.default_rng(2).random((6000, 2))),
    # hides 6 of its points
    lambda: weighted_alpha_filtration(
        np.random.default_rng(7).random((2500, 3)),
        np.random.default_rng(8).random(2500) * 0.002),
    # zero-volume tetrahedra take the least-squares path in several blocks
    lambda: alpha_filtration(cubic_lattice(14)),
], ids=["3d", "2d", "weighted", "lattice"])
def test_orthocenter_blocks_match_one_block(build, monkeypatch):
    f = build()
    assert max(map(len, f._tables.values())) > 2 * alpha._ORTHO_BLOCK_ROWS
    monkeypatch.setattr(alpha, "_ORTHO_BLOCK_ROWS", 1 << 40)
    g = build()
    assert f.info == g.info
    for name in ("dims", "values", "_rows"):
        assert np.array_equal(getattr(f, name), getattr(g, name))
    assert f._tables.keys() == g._tables.keys()
    for d in f._tables:
        assert np.array_equal(f._tables[d], g._tables[d])
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(f.boundary_matrix(), name),
                              getattr(g.boundary_matrix(), name))


def test_point_cloud_dim():
    assert PointCloud(np.eye(3)[:, :2]).dim == 2
    assert PointCloud(regular_tetrahedron()).dim == 3
