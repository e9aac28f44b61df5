import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phkit import (
    Cube,
    DistanceMatrix,
    Simplex,
    SimplicialComplex,
    WeightedGraph,
    alpha_filtration,
    boundary,
    clique_filtration,
    compute_persistence,
    cubical_filtration,
    make_complex,
    make_filtration,
    rips_filtration,
    weighted_alpha_filtration,
)
import phkit.combinatorial
import phkit.complexes
from phkit.complexes import _assemble, _lookup_facets, _row_keys
from phkit.errors import MissingFace, MonotonicityViolation


def test_simplex_canonical_form():
    assert tuple(Simplex([3, 1, 2])) == (1, 2, 3)
    assert Simplex([0]).dimension == 0
    assert Simplex([4, 7]).dimension == 1


def test_simplex_rejects_bad_input():
    with pytest.raises(ValueError):
        Simplex([])
    with pytest.raises(ValueError):
        Simplex([1, 1])
    with pytest.raises(ValueError):
        Simplex([-1, 2])


def test_boundary_of_triangle():
    assert boundary(Simplex([0, 1, 2])) == {
        Simplex([0, 1]), Simplex([0, 2]), Simplex([1, 2])}
    assert boundary(Simplex([5])) == set()


def test_make_complex_closure():
    c = make_complex([[0, 1, 2]])
    assert len(c) == 7
    assert [1, 2] in c
    assert [0] in c
    assert [0, 3] not in c
    assert [1, 1] not in c


def test_make_complex_idempotent():
    c1 = make_complex([[0, 1, 2], [2, 3]])
    c2 = make_complex(c1.cells)
    assert c1.cells == c2.cells


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                min_size=1, max_size=6))
def test_make_complex_closed_under_faces(cells):
    cells = [list(dict.fromkeys(c)) for c in cells]
    c = make_complex(cells)
    for s in c.cells:
        for f in s.facets():
            assert f in c


def test_complex_constructor_requires_closure():
    with pytest.raises(MissingFace):
        SimplicialComplex([Simplex([0, 1])])


def test_cube_facets():
    sq = Cube((2, 3), (1, 1))
    assert sq.dimension == 2
    fs = boundary(sq)
    assert fs == {
        Cube((2, 3), (0, 1)), Cube((3, 3), (0, 1)),
        Cube((2, 3), (1, 0)), Cube((2, 4), (1, 0))}
    assert boundary(Cube((0, 0), (0, 0))) == set()


@pytest.mark.parametrize("anchor, extent, message", [
    ((0, 0), (1,), "anchor and extent lengths differ"),
    ((0, 0), (1, 2), "extent entries must be 0 or 1"),
    ((0, -1), (1, 0), "anchor coordinates must be non-negative"),
])
def test_cube_rejects_bad_input(anchor, extent, message):
    with pytest.raises(ValueError, match=message):
        Cube(anchor, extent)


def test_filtration_ordering_contract():
    f = make_filtration([
        (Simplex([0, 1]), 1.0),
        (Simplex([0]), 0.0),
        (Simplex([1]), 1.0),
        (Simplex([2]), 1.0),
        (Simplex([1, 2]), 1.0),
    ])
    cells = f.cells
    # ascending value, ties dimension-ascending then lexicographic
    assert cells == [Simplex([0]), Simplex([1]), Simplex([2]),
                     Simplex([0, 1]), Simplex([1, 2])]
    assert list(f.values) == [0.0, 1.0, 1.0, 1.0, 1.0]


def test_filtration_prefixes_are_closed():
    f = make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.5),
        ((0, 1), 0.25), ((0, 2), 0.5), ((1, 2), 0.5),
        ((0, 1, 2), 0.75),
    ])
    bm = f.boundary_matrix()
    for j in range(len(f)):
        assert all(i < j for i in bm.column(j))


def test_filtration_missing_face():
    with pytest.raises(MissingFace) as exc:
        make_filtration([((0,), 0.0), ((0, 1), 1.0)])
    assert exc.value.cell == Simplex([0, 1])
    assert exc.value.face == Simplex([1])


def test_filtration_monotonicity_violation():
    with pytest.raises(MonotonicityViolation):
        make_filtration([
            ((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)])


def test_filtration_duplicate_cell():
    with pytest.raises(ValueError, match="duplicate"):
        make_filtration([((0,), 0.0), ((0,), 1.0)])


@pytest.mark.parametrize("cells, cell, face, message", [
    # the triangle at 1.0 precedes the late edge (0, 3) at 4.0; of its two
    # late faces, (0, 2) at 2.0 comes first
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 5.0), ((0, 3), 4.0),
      ((1, 2), 3.0), ((0, 2), 2.0), ((0, 1), 0.5), ((0, 1, 2), 1.0)],
     (0, 1, 2), (0, 2),
     "cell Simplex(0, 1, 2) has value 1.0 below its face Simplex(0, 2) "
     "at 2.0"),
    # three late edges and a late triangle: the middle edge comes first
    ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 5.0), ((4,), 3.0),
      ((5,), 4.5), ((0, 3), 4.0), ((0, 4), 2.0), ((0, 5), 4.2),
      ((0, 1), 0.5), ((0, 2), 6.0), ((1, 2), 7.0), ((0, 1, 2), 6.5)],
     (0, 4), (4,),
     "cell Simplex(0, 4) has value 2.0 below its face Simplex(4,) at 3.0"),
], ids=["triangle-first", "middle-edge-first"])
def test_monotonicity_violation_reports_earliest_coface(cells, cell, face,
                                                        message):
    # violations in two dimensions: the earliest coface in filtration
    # order is reported, with its earliest late face
    with pytest.raises(MonotonicityViolation) as exc:
        make_filtration(cells)
    assert exc.value.cell == Simplex(cell)
    assert exc.value.face == Simplex(face)
    assert str(exc.value) == message


def test_duplicate_cell_names_smallest_repeated_row():
    # the lowest dimension with a repeat, then its lexicographically
    # smallest repeated row
    with pytest.raises(ValueError) as exc:
        make_filtration([
            ((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((1, 2), 1.0),
            ((0, 2), 1.0), ((0, 1), 1.0), ((1, 2), 2.0), ((0, 2), 2.0),
            ((0, 1, 2), 3.0), ((0, 1, 2), 3.0)])
    assert str(exc.value) == "duplicate cell with identity (0, 2)"


@pytest.mark.parametrize("cells, error, message", [
    ([((0,), 0.0), ((1,), float("nan"))], ValueError,
     "filtration values must be finite"),
    ([(Cube((0,), (0,)), 0.0), ((1,), 0.0)], TypeError,
     "cubical filtrations take Cube cells"),
    ([(Cube((0,), (0,)), 0.0), (Cube((0, 0), (0, 0)), 0.0)], ValueError,
     "mixed cube ranks"),
], ids=["nan-value", "simplex-among-cubes", "mixed-cube-ranks"])
def test_make_filtration_rejects(cells, error, message):
    with pytest.raises(error) as exc:
        make_filtration(cells)
    assert str(exc.value) == message


def test_filtration_boundary_columns():
    f = make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
        ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
        ((0, 1, 2), 2.0),
    ])
    bm = f.boundary_matrix()
    tri = len(f) - 1
    assert f.cell(tri) == Simplex([0, 1, 2])
    assert sorted(bm.column(tri)) == [3, 4, 5]
    assert len(bm.column(0)) == 0


def test_cubical_filtration_cells():
    f = make_filtration([
        (Cube((0,), (0,)), 1.0), (Cube((1,), (0,)), 1.0),
        (Cube((2,), (0,)), 5.0),
        (Cube((0,), (1,)), 1.0), (Cube((1,), (1,)), 5.0),
    ])
    assert len(f) == 5
    bm = f.boundary_matrix()
    last = len(f) - 1
    assert f.cell(last) == Cube((1,), (1,))
    cols = [int(x) for x in bm.column(last)]
    assert [f.cell(i) for i in cols] == [Cube((1,), (0,)), Cube((2,), (0,))]


def test_prefix_length():
    f = make_filtration([((0,), 0.0), ((1,), 1.0), ((0, 1), 2.0)])
    assert f.prefix_length(0.5) == 1
    assert f.prefix_length(1.0) == 2
    assert f.prefix_length(5.0) == 3


def test_cubical_filtration_missing_face():
    square = Cube((0, 0), (1, 1))
    gone = Cube((1, 0), (0, 1))
    cells = [(Cube((x, y), (0, 0)), 0.0) for x in (0, 1) for y in (0, 1)]
    cells += [(e, 0.0) for e in boundary(square) if e != gone]
    cells.append((square, 1.0))
    with pytest.raises(MissingFace) as exc:
        make_filtration(cells)
    assert exc.value.cell == square
    assert exc.value.face == gone


@pytest.mark.parametrize("offset", [0, 2 ** 30, 2 ** 31, 2 ** 40, 2 ** 62])
def test_row_keys_follow_row_order(offset):
    # at 2**30 the third column would pass 2**62 and the keys so far become
    # ranks; from 2**31 on each column packs its own ranks
    rng = np.random.default_rng(4)
    a = rng.integers(0, 4, (50, 3)) + offset
    b = rng.integers(0, 4, (30, 3)) + offset
    rows = np.concatenate([a, b])
    keys = _row_keys(rows)
    order = np.lexsort(rows.T[::-1])
    assert (np.diff(keys[order]) >= 0).all()
    same_row = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(same_row, keys[:, None] == keys[None, :])


def test_make_filtration_large_vertex_ids():
    rng = np.random.default_rng(9)
    f = rips_filtration(DistanceMatrix.from_points(rng.random((12, 2))), 2, 0.6)
    cells = [(f.cell(i), f.value(i)) for i in rng.permutation(len(f))]
    small = make_filtration(cells)
    # an increasing relabelling keeps the filtration order
    big = make_filtration((Simplex([2 ** 31 + 7 * v for v in c]), x)
                          for c, x in cells)
    assert [Simplex([(v - 2 ** 31) // 7 for v in c]) for c in big.cells] \
        == small.cells
    p_small, _ = compute_persistence(small)
    p_big, _ = compute_persistence(big)
    assert p_big.pairs == p_small.pairs
    assert p_big.essential == p_small.essential


def builder_samples():
    rng = np.random.default_rng(5)
    for shape in [(23,), (7, 9), (5, 4, 6), (3, 4, 3, 3)]:
        yield cubical_filtration(rng.random(shape))
        yield cubical_filtration(rng.integers(0, 3, shape).astype(float))
    for dim in (2, 3):
        yield alpha_filtration(rng.random((40, dim)))
        yield weighted_alpha_filtration(rng.random((30, dim)),
                                        rng.random(30) * 0.01)
    weights = np.zeros(40)
    weights[0] = 0.3
    hiding = weighted_alpha_filtration(rng.random((40, 2)), weights)
    assert hiding.info["hidden_points"]
    yield hiding
    yield alpha_filtration(rng.random((2, 2)))
    yield rips_filtration(DistanceMatrix.from_points(rng.random((25, 2))), 3,
                          0.5)
    yield from clique_samples(rng)


def clique_samples(rng):
    """Clique filtrations whose facets come from the clique enumeration."""
    for max_dim in range(1, 6):
        n = 12
        edges = [(a, b, float(rng.choice([0.0, rng.random()])))
                 for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.7]
        yield clique_filtration(WeightedGraph(n, edges), max_dim)
    # K6 with tied integer weights fills every dimension up to 5
    yield clique_filtration(WeightedGraph(
        6, [(a, b, float((a + b) % 3)) for a in range(6)
            for b in range(a + 1, 6)]), 5)
    # a 4-clique and a path: the enumeration stops after dimension 3
    stops = clique_filtration(WeightedGraph(
        7, [(a, b, 1.0 + a) for a in range(4) for b in range(a + 1, 4)]
        + [(3, 4, 0.5), (4, 5, 2.0)]), 5)
    assert stops.max_dim == 3
    yield stops
    # vertices 0, 5 and 8 have no edges
    yield clique_filtration(WeightedGraph(
        9, [(1, 2, 0.3), (2, 3, 0.1), (1, 3, 0.2), (4, 6, 0.4),
            (6, 7, 0.4)]), 3)


def test_builder_facets_match_lookup():
    # builders hand over the facets they enumerate; finding every facet
    # by identity in the same tables must give the same boundary matrix
    for f in builder_samples():
        # the tables keep the builder's row order; give each value its row
        values = {}
        for d, tab in f._tables.items():
            values[d] = np.empty(len(tab))
            values[d][f._rows[f.dims == d]] = f.values[f.dims == d]
        g = _assemble(f.kind, f._tables, values,
                      _lookup_facets(f.kind, f._tables))
        assert np.array_equal(g.dims, f.dims)
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(g.boundary_matrix().indptr,
                              f.boundary_matrix().indptr)
        assert np.array_equal(g.boundary_matrix().indices,
                              f.boundary_matrix().indices)


def test_builders_look_up_no_facets(monkeypatch):
    # only make_filtration needs facets found by identity; the clique
    # builder hands over the ones its enumeration already knows
    def fail(*args, **kwargs):
        raise AssertionError("_lookup_facets called")

    monkeypatch.setattr(phkit.complexes, "_lookup_facets", fail)
    monkeypatch.setattr(phkit.combinatorial, "_lookup_facets", fail,
                        raising=False)
    rng = np.random.default_rng(8)
    f = rips_filtration(DistanceMatrix.from_points(rng.random((30, 2))), 3,
                        0.6)
    assert f.max_dim == 3
    assert sum(g.max_dim for g in clique_samples(rng)) > 0


def test_position_finds_every_identity_row():
    for f in builder_samples():
        for d in range(f.max_dim + 1):
            positions = np.flatnonzero(f.dims == d)
            rows = f.identity_rows(d, positions)
            assert [f.position(d, row) for row in rows] == positions.tolist()
            row = rows[0]
            assert f.position(d, row + 10 ** 6) == -1
            assert f.position(d, np.append(row, 0)) == -1
            assert f.position(d, row[1:]) == -1
        assert f.position(f.max_dim + 1, rows[0]) == -1


def test_identity_rows_are_the_cells():
    f = cubical_filtration(np.random.default_rng(2).random((3, 4)))
    edges = np.flatnonzero(f.dims == 1)
    rows = f.identity_rows(1, edges)
    assert [Cube(r[:2], r[2:]) for r in rows] == [f.cell(i) for i in edges]
    # a cube's row flattens [anchor, extent]
    i = int(edges[3])
    cube = f.cell(i)
    assert f.position(1, [list(cube.anchor), list(cube.extent)]) == i


def random_made_filtrations():
    """make_filtration over shuffled cells, simplicial and cubical, with ties."""
    rng = np.random.default_rng(17)
    for _ in range(8):
        top = [rng.choice(9, size=int(rng.integers(1, 5)), replace=False)
               for _ in range(6)]
        values = {}
        for s in sorted(make_complex(top).cells, key=lambda s: s.dimension):
            values[s] = (max((values[t] for t in s.facets()), default=0.0)
                         + float(rng.choice([0.0, 0.0, 0.5])))
        items = list(values.items())
        rng.shuffle(items)
        yield make_filtration(items)
    for shape in [(5, 6), (3, 4, 3)]:
        f = cubical_filtration(rng.integers(0, 2, shape).astype(float))
        items = list(zip(f.cells, f.values.tolist()))
        rng.shuffle(items)
        yield make_filtration(items)


def test_faces_precede_their_cofaces():
    # _assemble sorts by (value, dimension) and nothing checks the order
    # at run time: a face's value is at most its coface's, and on a tie
    # its lower dimension puts it first
    for f in [*builder_samples(), *random_made_filtrations()]:
        bm = f.boundary_matrix()
        col_of = np.repeat(np.arange(len(f)), np.diff(bm.indptr))
        assert len(bm.indices)
        assert (bm.indices < col_of).all()


def test_complex_iterates_its_cells():
    k = make_complex([(0, 1, 2)])
    assert len(list(k)) == 7 and set(k) == k.cells


def test_boundary_matrix_length_and_filtration_repr():
    f = make_filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
    assert len(f.boundary_matrix()) == len(f) == 3
    assert repr(f) == "Filtration(kind='simplicial', cells=3, max_dim=1)"
    assert repr(make_filtration([])) == \
        "Filtration(kind='simplicial', cells=0, max_dim=-1)"
