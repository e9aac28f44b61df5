import math
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse.csgraph import minimum_spanning_tree

from phkit import compute_persistence, make_filtration, oracle_persistence
from phkit.combinatorial import (DistanceMatrix, WeightedGraph,
                                 clique_filtration, rips_filtration)
from phkit.complexes import CELL_CAP
from phkit.errors import BadParams, TooLarge


def test_triangle_graph_max_edge_value():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    f = clique_filtration(g, max_dim=2)
    tri = [i for i in range(len(f)) if f.dims[i] == 2]
    assert len(tri) == 1
    assert f.values[tri[0]] == 3.0
    assert np.all(f.values[f.dims == 0] == 0.0)


def test_path_graph_has_no_triangle():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    f = clique_filtration(g, max_dim=2)
    assert f.max_dim == 1
    assert len(f) == 5


def test_square_complete_graph_triangles():
    s = np.sqrt(2.0)
    corners = [(0, 1, 1.0), (1, 3, 1.0), (2, 3, 1.0), (0, 2, 1.0),
               (0, 3, s), (1, 2, s)]
    f = clique_filtration(WeightedGraph(4, corners), max_dim=2)
    tri_vals = f.values[f.dims == 2]
    assert len(tri_vals) == 4
    assert np.allclose(tri_vals, s)


def test_rips_square_degree_one_pair():
    pts = np.array([[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1]])
    f = rips_filtration(DistanceMatrix.from_points(pts), 2, 2.0)
    _, diagrams = compute_persistence(f)
    diagrams[1].sort()
    assert len(diagrams[1]) == 1
    assert np.allclose(diagrams[1].pairs, [(1.0, np.sqrt(2.0))], atol=1e-12)


def test_rips_two_points():
    d = DistanceMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
    f = rips_filtration(d, 1, 10.0)
    _, diagrams = compute_persistence(f)
    diagrams[0].sort()
    assert diagrams[0].pairs == [(0.0, 3.0), (0.0, np.inf)]


def test_rips_below_min_distance_disconnects():
    rng = np.random.default_rng(0)
    pts = rng.random((6, 2))
    dm = DistanceMatrix.from_points(pts)
    cutoff = dm.d[dm.d > 0].min() / 2
    f = rips_filtration(dm, 2, cutoff)
    _, diagrams = compute_persistence(f)
    assert len(diagrams[0].essential_births) == 6
    assert len(diagrams) == 1 or len(diagrams[1]) == 0


def brute_cliques(weights, n, a, size):
    adj = {(i, j): w for (i, j), w in weights.items()}
    out = set()
    for verts in combinations(range(n), size):
        ok = all((u, v) in adj and adj[(u, v)] <= a
                 for u, v in combinations(verts, 2))
        if ok:
            out.add(verts)
    return out


def test_prefix_equals_clique_complex():
    rng = np.random.default_rng(9)
    graphs = []
    for _ in range(10):
        n = 7
        edges = []
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.6:
                edges.append((i, j, float(rng.integers(1, 6))))
        graphs.append((n, edges, 3))
    k6 = [(i, j, float(rng.integers(1, 3)))
          for i, j in combinations(range(6), 2)]
    graphs += [(0, [], 3), (1, [], 3), (5, [], 3), (7, graphs[0][1], 0),
               (6, k6, 5)]
    for n, edges, max_dim in graphs:
        g = WeightedGraph(n, edges)
        f = clique_filtration(g, max_dim=max_dim)
        for a in [1.0, 2.5, 5.0]:
            k = f.prefix_length(a)
            got = {c.vertices for c in (f.cell(i) for i in range(k))}
            want = {(v,) for v in range(n)}
            for size in range(2, max_dim + 2):
                want |= brute_cliques(g.weights, n, a, size)
            assert got == want


def test_negative_zero_weights_enter_at_positive_zero():
    z = np.array([[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0], [0.5, -0.0, 0.0]])
    g = WeightedGraph(3, [(0, 1, -0.0), (1, 2, -0.0), (0, 2, 0.5)])
    for f in [rips_filtration(DistanceMatrix(z), 2, 1.0),
              clique_filtration(g, 2)]:
        assert len(f) == 7
        assert all(math.copysign(1, v) == 1 for v in f.values)


def test_degree_zero_deaths_are_mst_edges():
    rng = np.random.default_rng(4)
    pts = rng.random((25, 2))
    dm = DistanceMatrix.from_points(pts)
    f = rips_filtration(dm, 1, float(dm.d.max()) + 1.0)
    _, diagrams = compute_persistence(f)
    deaths = np.sort([d for _, d in diagrams[0].finite_pairs])
    mst = minimum_spanning_tree(dm.d).toarray()
    mst_weights = np.sort(mst[mst > 0])
    assert len(deaths) == 24
    assert np.allclose(deaths, mst_weights, atol=1e-12)


def test_matches_rank_oracle_on_random_rips():
    rng = np.random.default_rng(14)
    for _ in range(5):
        pts = rng.random((7, 3))
        f = rips_filtration(DistanceMatrix.from_points(pts), 3, 2.0)
        _, engine = compute_persistence(f)
        oracle = oracle_persistence(f)
        for pd_e, pd_o in zip(engine, oracle):
            pd_e.sort()
            pd_o.sort()
            assert np.array_equal(pd_e.pairs, pd_o.pairs)


def test_cliques_past_int32_keys_match_make_filtration():
    # the clique keys parent * n + v pass 2**31 here, as the cliques sit at
    # the top ids of 70,000 vertices; facets and parents are int32, so
    # the keys must widen before they multiply
    n = 70_000
    rng = np.random.default_rng(12)
    top = range(n - 9, n)
    edges = [(a, b, float(rng.integers(1, 4))) for a, b in combinations(top, 2)
             if rng.random() < 0.8]
    edges += [(0, n - 1, 2.0), (0, n - 2, 1.0)]
    f = clique_filtration(WeightedGraph(n, edges), 3)
    assert (n - 9) * n > 2 ** 31 and f.max_dim == 3
    cells = [(f.cell(i), f.value(i)) for i in rng.permutation(len(f))]
    g = make_filtration(cells)
    assert np.array_equal(f.dims, g.dims)
    assert np.array_equal(f.values, g.values)
    for d in range(f.max_dim + 1):
        positions = np.flatnonzero(f.dims == d)
        assert np.array_equal(f.identity_rows(d, positions),
                              g.identity_rows(d, positions))
    assert np.array_equal(f.boundary_matrix().indptr,
                          g.boundary_matrix().indptr)
    assert np.array_equal(f.boundary_matrix().indices,
                          g.boundary_matrix().indices)


def test_rips_past_cell_cap_is_too_large():
    # 200 points within the cutoff have C(200, 4) = 64,684,950 candidate
    # tetrahedra; the builder refuses them before it lists any
    pts = np.random.default_rng(0).random((200, 3))
    total = sum(math.comb(200, k) for k in (2, 3, 4))
    assert math.comb(200, 2) + math.comb(200, 3) < CELL_CAP < total
    with pytest.raises(TooLarge, match=f"dimension 3 have {total} "):
        rips_filtration(DistanceMatrix.from_points(pts), 3, 10.0)


def test_graph_validation():
    with pytest.raises(ValueError, match="vertex count"):
        WeightedGraph(-1, [])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(1, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, np.nan)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, -2.0), (1, 2, 1.0), (0, 2, -1.0)])


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="distances must be finite"):
        DistanceMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))


def test_rips_requires_positive_cutoff():
    d = DistanceMatrix(np.zeros((1, 1)))
    with pytest.raises(BadParams):
        rips_filtration(d, 1, 0.0)
    with pytest.raises(BadParams):
        clique_filtration(WeightedGraph(1, []), -1)


def test_weighted_graph_edges_and_repr():
    g = WeightedGraph(4, [(2, 3, 0.5), (0, 1, 2.0), (1, 2, 1)])
    assert g.edges == [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 0.5)]
    assert repr(g) == "WeightedGraph(n=4, edges=3)"
