import itertools
import math

import numpy as np
import pytest

from phkit import (
    DistanceMatrix,
    PersistenceDiagram,
    RepresentativeCycle,
    Simplex,
    WeightedGraph,
    alpha_filtration,
    betti_numbers,
    clique_filtration,
    compute_persistence,
    cubical_filtration,
    make_complex,
    make_filtration,
    oracle_persistence,
    representative_cycle,
    rips_filtration,
    tighten_cycle_1d,
)
from phkit._gf2 import EchelonBasis, column_bitmask
from phkit.errors import EssentialPair, NotDegreeOne, TooLarge


def abstract_tetrahedron_filtration():
    """Full tetrahedron with the squared radii a regular unit tetra produces."""
    verts = [((i,), 0.0) for i in range(4)]
    edges = [((i, j), 0.25) for i in range(4) for j in range(i + 1, 4)]
    tris = [((i, j, k), 1.0 / 3.0)
            for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)]
    return make_filtration(verts + edges + tris + [((0, 1, 2, 3), 0.375)])


def square_two_step_filtration():
    """Square outline, then a diagonal, then the two triangles one by one."""
    return make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 0.0),
        ((0, 1), 0.0), ((1, 2), 0.0), ((2, 3), 0.0),
        ((0, 3), 1.0),
        ((0, 2), 2.0),
        ((0, 1, 2), 3.0),
        ((0, 2, 3), 4.0),
    ])


def test_two_point_merge():
    f = make_filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 3.0)])
    _, dgms = compute_persistence(f)
    assert sorted(dgms[0].pairs) == [(0.0, 3.0), (0.0, math.inf)]


def test_single_vertex():
    f = make_filtration([((0,), 2.0)])
    _, dgms = compute_persistence(f)
    assert dgms[0].pairs == [(2.0, math.inf)]


def test_empty_filtration():
    f = make_filtration([])
    pairing, dgms = compute_persistence(f)
    assert pairing.pairs == [] and pairing.essential == []
    assert dgms == [] or all(len(d) == 0 for d in dgms)


def test_tetrahedron_diagrams():
    _, dgms = compute_persistence(abstract_tetrahedron_filtration())
    third = 1.0 / 3.0
    assert sorted(dgms[0].pairs) == [(0.0, 0.25)] * 3 + [(0.0, math.inf)]
    assert sorted(dgms[1].pairs) == [(0.25, third)] * 3
    assert dgms[2].pairs == [(third, 0.375)]
    assert dgms[3].pairs == []


def test_zero_persistence_dropped_but_paired():
    f = make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)])
    pairing, dgms = compute_persistence(f)
    assert dgms[0].pairs == [(0.0, math.inf)]
    assert len(pairing.pairs) == 1  # the merge is still recorded


def test_square_two_step_pairs():
    _, dgms = compute_persistence(square_two_step_filtration())
    assert sorted(dgms[1].pairs) == [(1.0, 4.0), (2.0, 3.0)]


def test_square_two_step_prefix_hole_counts():
    f = square_two_step_filtration()
    counts = []
    for value in [0.0, 1.0, 2.0, 3.0, 4.0]:
        b = betti_numbers(f, prefix=f.prefix_length(value))
        counts.append(b[1] if len(b) > 1 else 0)
    assert counts == [0, 1, 2, 1, 0]


def test_betti_tetrahedron_skeleton():
    skel = make_complex([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert betti_numbers(skel) == [1, 3]


def test_betti_skeleton_plus_one_triangle():
    c = make_complex(
        [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 1, 2)])
    assert betti_numbers(c)[1] == 2


def test_betti_full_tetrahedron():
    c = make_complex([(0, 1, 2, 3)])
    b = betti_numbers(c)
    assert b[:3] == [1, 0, 0]
    assert all(x == 0 for x in b[3:])


def test_pair_count_conservation():
    f = abstract_tetrahedron_filtration()
    pairing, _ = compute_persistence(f)
    seen = np.zeros(len(f), dtype=int)
    for i, j in pairing.pairs:
        seen[i] += 1
        seen[j] += 1
    for i in pairing.essential:
        seen[i] += 1
    assert (seen == 1).all()


def test_euler_characteristic_per_prefix():
    f = square_two_step_filtration()
    for prefix in range(1, len(f) + 1):
        dims = f.dims[:prefix]
        euler_cells = sum((-1) ** int(d) for d in dims)
        betti = betti_numbers(f, prefix=prefix)
        euler_betti = sum((-1) ** k * b for k, b in enumerate(betti))
        assert euler_cells == euler_betti


def rand_filtration(rng, n_vertices=6, n_top=5, max_dim=3,
                    bumps=(0.0, 0.0, 0.5, 1.0)):
    """Random face-closed filtration with deliberate value ties."""
    cells = {}
    for _ in range(n_top):
        size = int(rng.integers(1, max_dim + 2))
        vs = tuple(sorted(rng.choice(n_vertices, size=size, replace=False)))
        cells[vs] = None
    closure = make_complex(cells)
    values = {}
    for s in sorted(closure.cells, key=lambda s: (s.dimension, tuple(s))):
        base = max((values[f] for f in s.facets()), default=0.0)
        bump = float(rng.choice(bumps))
        values[s] = base + bump
    return make_filtration(list(values.items()))


def multiset(dgm):
    out = {}
    for p in dgm.pairs:
        out[p] = out.get(p, 0) + 1
    return out


def test_oracle_matches_engine_on_random_filtrations():
    rng = np.random.default_rng(7)
    for _ in range(40):
        f = rand_filtration(rng)
        _, dgms = compute_persistence(f)
        oracle = oracle_persistence(f)
        assert len(dgms) == len(oracle)
        for a, b in zip(dgms, oracle):
            assert multiset(a) == multiset(b)
        for v in np.unique(f.values):
            alive = [int(np.sum((pd.births <= v) & (v < pd.deaths)))
                     for pd in oracle]
            betti = betti_numbers(f, prefix=f.prefix_length(v))
            assert betti + [0] * (len(alive) - len(betti)) == alive


def test_oracle_size_cap():
    cells = [((i,), 0.0) for i in range(301)]
    with pytest.raises(TooLarge):
        oracle_persistence(make_filtration(cells))


def test_oracle_trivial_cases():
    f = make_filtration([((0,), 1.5)])
    dgms = oracle_persistence(f)
    assert dgms[0].pairs == [(1.5, math.inf)]
    assert oracle_persistence(make_filtration([])) == []


def square_with_diagonals():
    """All cliques of the unit square under the full distance graph."""
    s2 = math.sqrt(2.0)
    return make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 0.0),
        ((0, 1), 1.0), ((1, 2), 1.0), ((2, 3), 1.0), ((0, 3), 1.0),
        ((0, 2), s2), ((1, 3), s2),
        ((0, 1, 2), s2), ((0, 1, 3), s2), ((0, 2, 3), s2), ((1, 2, 3), s2),
    ])


def test_representative_cycle_square():
    f = square_with_diagonals()
    pairing, dgms = compute_persistence(f)
    [pair] = [p for p in dgms[1].pairs if p[1] > p[0]]
    assert pair == (1.0, math.sqrt(2.0))
    i = dgms[1].pairs.index(pair)
    cyc = representative_cycle(
        pairing, (int(dgms[1].birth_index[i]), int(dgms[1].death_index[i])))
    cells = {tuple(c) for c in cyc.cells}
    assert cells == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_representative_cycle_invariants():
    f = abstract_tetrahedron_filtration()
    pairing, dgms = compute_persistence(f)
    for dgm in dgms[1:]:
        for i in range(len(dgm)):
            if not np.isfinite(dgm.deaths[i]):
                continue
            b, d = int(dgm.birth_index[i]), int(dgm.death_index[i])
            cyc = representative_cycle(pairing, (b, d))
            assert max(cyc.cell_indices) == b  # newest cell is the birth cell
            # boundary of the chain vanishes over Z/2
            bm = f.boundary_matrix()
            counts = {}
            for c in cyc.cell_indices:
                for face in bm.column(c):
                    counts[int(face)] = counts.get(int(face), 0) + 1
            assert all(v % 2 == 0 for v in counts.values())


def test_representative_cycle_degree0():
    f = make_filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 3.0)])
    pairing, dgms = compute_persistence(f)
    [pair] = [p for p in pairing.pairs]
    cyc = representative_cycle(pairing, pair)
    assert [tuple(c) for c in cyc.cells] == [(1,)]  # the younger vertex


def test_essential_cycle_requires_flag_and_chains():
    f = make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
        ((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)])
    pairing, dgms = compute_persistence(f)
    ess = [i for i in pairing.essential if f.dims[i] == 1]
    assert len(ess) == 1
    with pytest.raises(EssentialPair):
        representative_cycle(pairing, (ess[0], None))
    with pytest.raises(EssentialPair):
        representative_cycle(pairing, (ess[0], None), allow_essential=True)
    pairing_v, _ = compute_persistence(f, with_v=True)
    cyc = representative_cycle(pairing_v, (ess[0], None), allow_essential=True)
    cells = {tuple(c) for c in cyc.cells}
    assert cells == {(0, 1), (1, 2), (0, 2)}


def hexagon_with_chord():
    cells = [((i,), 0.0) for i in range(6)]
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    cells += [(e, 0.0) for e in ring]
    cells += [((0, 5), 1.0)]   # closes the hexagon: birth edge
    cells += [((0, 3), 2.0)]   # later chord
    return make_filtration(cells)


def test_tighten_cycle_hexagon():
    f = hexagon_with_chord()
    pairing, dgms = compute_persistence(f)
    ess = [i for i in pairing.essential if f.dims[i] == 1]
    # two independent rings by the end; the first is born when (0,5) closes
    born_at_one = [i for i in ess if f.values[i] == 1.0]
    assert len(born_at_one) == 1
    pairing_v, _ = compute_persistence(f, with_v=True)
    cyc = representative_cycle(pairing_v, (born_at_one[0], None),
                               allow_essential=True)
    tight = tighten_cycle_1d(pairing_v, cyc)
    assert len(tight) == 6  # the chord came later, so the hexagon is shortest
    assert tight.homologous_to_original is True
    assert tight.tightened


def reference_tighten(pairing, birth):
    """Level-by-level search over a Python adjacency dict whose neighbour
    lists are sorted by position; the engine must return the same loop."""
    f = pairing.filtration
    bm = f.boundary_matrix()
    u, v = bm.column(birth).tolist()
    adj = {}
    for e in np.flatnonzero(f.dims[:birth] == 1).tolist():
        a, b = bm.column(e).tolist()
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    for nbrs in adj.values():
        nbrs.sort()
    prev = {u: (-1, -1)}
    frontier = [u]
    while frontier and v not in prev:
        nxt = []
        for a in frontier:
            for b, e in adj.get(a, ()):
                if b not in prev:
                    prev[b] = (a, e)
                    nxt.append(b)
        frontier = nxt
    path = [birth]
    node = v
    while node != u:
        node, e = prev[node]
        path.append(e)
    return sorted(path)


def tighten_samples():
    rng = np.random.default_rng(13)
    yield alpha_filtration(rng.random((80, 2)))
    yield alpha_filtration(rng.random((40, 3)))
    theta = rng.random(40) * 2.0 * np.pi
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts += rng.normal(0.0, 0.05, pts.shape)
    yield rips_filtration(DistanceMatrix.from_points(pts), 2, 0.6)
    yield cubical_filtration(rng.random((12, 12)))


def test_tighten_matches_reference_search():
    """Same loop as the reference search on every finite degree-1 pair, and
    homologous_to_original agrees with a rank test over the 2-cells present
    at the birth."""
    for f in tighten_samples():
        pairing, _ = compute_persistence(f)
        bm = f.boundary_matrix()
        pairs = [(b, d) for b, d in pairing.pairs if f.dims[b] == 1]
        assert pairs
        boundaries = EchelonBasis()
        triangles = iter(np.flatnonzero(f.dims == 2).tolist() + [len(f)])
        t = next(triangles)
        for b, d in pairs:
            while t <= b:
                boundaries.insert(column_bitmask(bm.column(t)))
                t = next(triangles)
            cyc = representative_cycle(pairing, (b, d))
            tight = tighten_cycle_1d(pairing, cyc)
            assert tight.cell_indices == reference_tighten(pairing, b)
            diff = set(tight.cell_indices) ^ set(cyc.cell_indices)
            assert tight.homologous_to_original is \
                (boundaries.reduce(column_bitmask(diff)) == 0)


def test_tighten_rejects_an_edge_that_joins_components():
    f = make_filtration([((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
                         ((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), 1.0),
                         ((0, 1, 2), 2.0)])
    pairing, _ = compute_persistence(f)
    edge = f.position(1, [0, 1])
    cyc = RepresentativeCycle(1, edge, None, [edge], f)
    with pytest.raises(ValueError, match="not a cycle birth"):
        tighten_cycle_1d(pairing, cyc)


def test_tighten_rejects_wrong_degree():
    f = make_filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 3.0)])
    pairing, _ = compute_persistence(f)
    cyc = representative_cycle(pairing, pairing.pairs[0])
    with pytest.raises(NotDegreeOne):
        tighten_cycle_1d(pairing, cyc)


def test_from_pairs_accepts_iterator_essentials():
    pd = PersistenceDiagram.from_pairs(1, [(0.1, 0.5)], (b for b in [0.2]))
    assert pd.pairs == [(0.1, 0.5), (0.2, math.inf)]


def textbook_reduction(f):
    """Left-to-right reduction of every column with sorted-list XOR.

    No clearing, no apparent pairs: the reference the engine must reproduce.
    """
    bm = f.boundary_matrix()
    owner, reduced, chains = {}, {}, {}
    for j in range(len(f)):
        col, chain = bm.column(j).tolist(), [j]
        while col and col[-1] in owner:
            k = owner[col[-1]]
            col = sorted(set(col) ^ set(reduced[k]))
            chain = sorted(set(chain) ^ set(chains[k]))
        chains[j] = chain
        if col:
            owner[col[-1]] = j
            reduced[j] = col
    pairs = sorted(owner.items())
    paired = {c for pair in pairs for c in pair}
    essential = [i for i in range(len(f)) if i not in paired]
    return pairs, essential, reduced, chains


def reference_diagrams(f, pairs, essential):
    """(births, deaths, birth_index, death_index) per degree: nonzero pairs
    in birth order, then essentials, then a stable sort by value."""
    out = []
    for deg in range(f.max_dim + 1):
        rows = [(f.values[i], f.values[j], i, j) for i, j in pairs
                if f.dims[i] == deg and f.values[i] != f.values[j]]
        rows += [(f.values[i], math.inf, i, -1) for i in essential
                 if f.dims[i] == deg]
        rows.sort(key=lambda r: (r[0], r[1]))
        out.append([list(col) for col in zip(*rows)] or [[]] * 4)
    return out


def cross_check_inputs():
    rng = np.random.default_rng(11)
    for n, dim in [(25, 2), (18, 3)]:
        yield alpha_filtration(rng.random((n, dim)))
    yield cubical_filtration(rng.random((6, 7)))
    yield cubical_filtration(rng.random((4, 4, 5)))
    theta = rng.random(20) * 2.0 * np.pi
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts += rng.normal(0.0, 0.05, pts.shape)
    yield rips_filtration(DistanceMatrix.from_points(pts), 2, 0.8)
    yield cubical_filtration(rng.integers(0, 3, (6, 6)).astype(float))
    for _ in range(5):
        yield rand_filtration(rng, n_vertices=8, n_top=8,
                              bumps=(0.0, 0.0, 1.0))


def test_reduction_matches_textbook_reference():
    for f in cross_check_inputs():
        pairs, essential, reduced, chains = textbook_reduction(f)
        pairing, dgms = compute_persistence(f, with_v=True)
        assert pairing.pairs == pairs
        assert [[d.births.tolist(), d.deaths.tolist(), d.birth_index.tolist(),
                 d.death_index.tolist()] for d in dgms] == \
            reference_diagrams(f, pairs, essential)
        assert pairing.essential == essential
        pivot_of = np.full(len(f), -1)
        for i, j in pairs:
            pivot_of[i] = j
        assert (pairing.pivot_of == pivot_of).all()
        assert dict(pairing.reduced) == reduced
        # cleared columns are skipped, so they record no chain
        cleared = {i for i, _ in pairs if f.dims[i] > 0}
        expected = {j for j in range(len(f)) if f.dims[j] > 0} - cleared
        assert set(pairing.chains) == expected
        assert all(pairing.chains[j] == chains[j] for j in expected)
        stats = pairing.stats
        assert (stats["apparent_pairs"] + stats["columns_reduced"]
                + stats["cleared_columns"]) == len(expected) + len(cleared)


def random_clique_inputs():
    """Seeded Rips filtrations of max_dim 1-4, some with rounded (tied)
    distances, and clique filtrations of random graphs with tied weights."""
    rng = np.random.default_rng(23)
    for max_dim in range(1, 5):
        for max_value in (0.3, 0.6, 2.0):
            d = DistanceMatrix.from_points(
                rng.random((int(rng.integers(6, 12)), 2)))
            yield rips_filtration(d, max_dim, max_value)
            yield rips_filtration(DistanceMatrix(np.round(d.d, 1)), max_dim,
                                  max_value)
    for _ in range(12):
        n = int(rng.integers(5, 11))
        edges = [(i, j, float(rng.integers(0, 4)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        yield clique_filtration(WeightedGraph(n, edges),
                                int(rng.integers(1, 5)))


def test_default_reduction_matches_textbook_reference():
    """The with_v=False path, which every CLI call takes. Filtrations with
    more top-dimension cells than cells one dimension down are paired by
    coboundary reduction first; the inputs include both kinds."""
    top_heavy = []
    for f in itertools.chain(cross_check_inputs(), random_clique_inputs()):
        pairs, essential, reduced, _ = textbook_reduction(f)
        pairing, dgms = compute_persistence(f)
        assert pairing.pairs == pairs
        assert pairing.essential == essential
        pivot_of = np.full(len(f), -1)
        for i, j in pairs:
            pivot_of[i] = j
        assert (pairing.pivot_of == pivot_of).all()
        assert dict(pairing.reduced) == reduced
        assert [[d.births.tolist(), d.deaths.tolist(), d.birth_index.tolist(),
                 d.death_index.tolist()] for d in dgms] == \
            reference_diagrams(f, pairs, essential)
        if len(f) <= 300:
            for a, b in zip(dgms, oracle_persistence(f), strict=True):
                assert multiset(a) == multiset(b)
        cells_per_dim = np.bincount(f.dims)
        top_heavy.append(cells_per_dim[-1] > cells_per_dim[-2])
    assert any(top_heavy) and not all(top_heavy)


def test_top_heavy_rips_reduces_no_essential_triangle():
    """A noisy circle's Rips filtration is mostly essential triangles; the
    default path pairs it without reducing them."""
    rng = np.random.default_rng(0)
    theta = rng.random(60) * 2.0 * np.pi
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts += rng.normal(0.0, 0.05, pts.shape)
    f = rips_filtration(DistanceMatrix.from_points(pts), 2, 0.5)
    pairing, _ = compute_persistence(f)
    essential_triangles = np.count_nonzero(f.dims[pairing.essential] == 2)
    assert pairing.stats["columns_reduced"] < essential_triangles
    pairing_v, _ = compute_persistence(f, with_v=True)
    assert pairing.pairs == pairing_v.pairs
    assert dict(pairing.reduced) == dict(pairing_v.reduced)


def brute_force_apparent_pairs(f):
    """Pairs (sigma, tau): sigma is tau's youngest facet and tau is sigma's
    oldest cofacet."""
    bm = f.boundary_matrix()
    out = []
    for tau in range(len(f)):
        col = bm.column(tau).tolist()
        if col and min(j for j in range(len(f))
                       if col[-1] in bm.column(j)) == tau:
            out.append((col[-1], tau))
    return out


def test_stats_count_apparent_pairs():
    rng = np.random.default_rng(5)
    for f in [abstract_tetrahedron_filtration(), square_with_diagonals(),
              rand_filtration(rng, n_vertices=8, n_top=8)]:
        pairing, _ = compute_persistence(f)
        assert pairing.stats["apparent_pairs"] == \
            len(brute_force_apparent_pairs(f))


def test_stats_when_every_pair_is_apparent():
    f = make_filtration([
        ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
        ((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 3.0), ((0, 1, 2), 4.0)])
    pairing, _ = compute_persistence(f)
    assert pairing.stats == {"apparent_pairs": 3, "columns_reduced": 0,
                             "column_additions": 0, "cleared_columns": 1}


def test_stats_pinned_on_seeded_inputs():
    """The work counters of a top-heavy Rips filtration (coboundary pass and
    column loop) and of a cubical one (column loop only)."""
    rng = np.random.default_rng(0)
    theta = rng.random(60) * 2.0 * np.pi
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    pts += rng.normal(0.0, 0.05, pts.shape)
    rips = rips_filtration(DistanceMatrix.from_points(pts), 2, 0.5)
    cubical = cubical_filtration(np.random.default_rng(0).random((8, 8, 8)))
    assert np.bincount(rips.dims).tolist() == [60, 265, 515]
    assert np.bincount(cubical.dims).tolist() == [729, 1944, 1728, 512]
    assert compute_persistence(rips)[0].stats == {
        "apparent_pairs": 233, "columns_reduced": 64,
        "column_additions": 113, "cleared_columns": 205}
    assert compute_persistence(cubical)[0].stats == {
        "apparent_pairs": 2219, "columns_reduced": 237,
        "column_additions": 397, "cleared_columns": 1728}


def test_reduced_mapping_contract():
    f = square_with_diagonals()
    pairing, _ = compute_persistence(f)
    reduced = pairing.reduced
    deaths = sorted(j for _, j in pairing.pairs)
    assert len(reduced) == len(pairing.pairs)
    assert sorted(reduced) == deaths
    assert all(isinstance(reduced[j], list) for j in deaths)
    assert all(j in reduced for j in deaths)
    bm = f.boundary_matrix()
    apparent = brute_force_apparent_pairs(f)
    assert apparent
    for _, tau in apparent:
        assert reduced[tau] == bm.column(tau).tolist()
    for i in [pairing.pairs[0][0], pairing.essential[0], len(f), -1, "x"]:
        assert i not in reduced
        with pytest.raises(KeyError):
            reduced[i]


def test_hexagon_cycles_keep_their_cells():
    f = hexagon_with_chord()
    pairing, _ = compute_persistence(f, with_v=True)
    [birth] = [i for i in pairing.essential
               if f.dims[i] == 1 and f.values[i] == 1.0]
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    cyc = representative_cycle(pairing, (birth, None), allow_essential=True)
    assert [tuple(c) for c in cyc.cells] == hexagon
    tight = tighten_cycle_1d(pairing, cyc)
    assert [tuple(c) for c in tight.cells] == hexagon
    assert pairing.reduced == {6: [0, 1], 7: [1, 2], 8: [2, 3], 9: [3, 4],
                               10: [4, 5]}
