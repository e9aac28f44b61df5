import os
import tracemalloc

import numpy as np
import pytest

from phkit import PersistenceDiagram, alpha_filtration, compute_persistence
from phkit.analysis import (DISTANCE_SIZE_CAP, GRID_CAP, bottleneck_distance,
                            histogram, persistence_image,
                            wasserstein_distance)
from phkit.errors import BadParams, BadRange, TooLarge

from conftest import exhaustive_distance, same_value


def pd_of(pairs, essential=(), degree=1):
    return PersistenceDiagram.from_pairs(degree, pairs, essential)


def random_diagram(rng, max_pairs=4, max_ess=1):
    k = rng.integers(0, max_pairs + 1)
    births = rng.random(k)
    deaths = births + rng.random(k) + 1e-3
    ess = rng.random(rng.integers(0, max_ess + 1))
    return pd_of(list(zip(births, deaths)), ess)


def tetra_pd1_unsquared():
    f = alpha_filtration(np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3) / 2, 0.0],
        [0.5, np.sqrt(3) / 6, np.sqrt(2.0 / 3.0)],
    ]))
    _, diagrams = compute_persistence(f)
    return diagrams[1].scaled(np.sqrt)


def test_histogram_tetrahedron_bin():
    h = histogram(tetra_pd1_unsquared(), (0.0, 1.0), 2)
    assert h.counts.sum() == 3
    assert h.counts[1][1] == 3
    assert h.overflow == 0


def test_histogram_boundary_and_overflow():
    pd = pd_of([(0.0, 1.0), (0.25, 0.5), (0.0, 3.0)], essential=[0.0])
    h = histogram(pd, (0.0, 1.0), 4)
    assert h.counts[0][3] == 1  # death exactly at hi joins the last bin
    assert h.counts[1][2] == 1
    assert h.overflow == 1
    assert h.essential == 1
    assert h.counts.sum() == 2


def test_histogram_empty_and_errors():
    assert histogram(pd_of([]), (0, 1), 3).counts.sum() == 0
    with pytest.raises(BadRange):
        histogram(pd_of([]), (1.0, 1.0), 4)
    with pytest.raises(BadRange):
        histogram(pd_of([]), (0.0, 1.0), 0)


@pytest.mark.parametrize("window", [(-np.inf, 1.0), (0.0, np.inf),
                                    (-np.inf, np.inf)])
def test_infinite_window_rejected(window):
    # an infinite end makes the bin width infinite and every bin index
    # and image value NaN
    pd = pd_of([(0.1, 0.4), (0.2, 0.9)])
    with pytest.raises(BadRange, match="finite ends"):
        histogram(pd, window, 4)
    with pytest.raises(BadParams, match="finite ends"):
        persistence_image(pd, window, 2, sigma=0.1)


def test_grid_past_cap_is_too_large():
    side = int(GRID_CAP ** 0.5)
    assert side * side == GRID_CAP
    pd = pd_of([(0.1, 0.4)])
    # bins**2 is at the cap, but finite pairs * bins passes it
    births = np.arange(side + 1) / (side + 1)
    many = PersistenceDiagram(1, births, births + 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=f"{side + 1} x {side + 1} grid"):
            histogram(pd, (0, 1), side + 1)
        with pytest.raises(TooLarge, match=f"{side + 1} x {side + 1} grid"):
            persistence_image(pd, (0, 1), side + 1, sigma=0.1)
        with pytest.raises(TooLarge,
                           match=f"{side + 1} finite pairs x {side} bins"):
            persistence_image(many, (0, 2), side, sigma=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a grid at the cap would take 134 MB
    assert peak < 1 << 20


def test_image_empty_is_zero():
    img = persistence_image(pd_of([]), (0, 1), 8, sigma=0.1)
    assert img.vector.shape == (64,)
    assert np.all(img.vector == 0)


def test_image_mass_and_peak():
    pd = pd_of([(0.44, 0.66)])
    img = persistence_image(pd, (0.0, 1.0), 40, sigma=0.03, w_max=1.0)
    weight = 0.22 / 1.0
    assert abs(img.vector.sum() - weight) < 1e-3
    peak = np.unravel_index(img.grid.argmax(), img.grid.shape)
    assert peak == (26, 17)  # death row holds 0.66, birth column 0.44


def test_image_linearity():
    a = pd_of([(0.2, 0.8)])
    b = pd_of([(0.3, 0.5), (0.1, 0.9)])
    both = pd_of([(0.2, 0.8), (0.3, 0.5), (0.1, 0.9)])
    args = ((0, 1), 16, 0.05)
    va = persistence_image(a, *args).vector
    vb = persistence_image(b, *args).vector
    vab = persistence_image(both, *args).vector
    assert np.allclose(vab, va + vb, atol=1e-12)


def test_image_translation_equivariance():
    delta = 0.35
    pd = pd_of([(0.2, 0.6)])
    moved = pd_of([(0.2 + delta, 0.6 + delta)])
    img = persistence_image(pd, (0.0, 1.0), 12, 0.07, w_max=2.0)
    img2 = persistence_image(moved, (delta, 1.0 + delta), 12, 0.07, w_max=2.0)
    assert np.allclose(img.vector, img2.vector, atol=1e-12)


@pytest.mark.parametrize("threads,cpus", [
    (None, 1), (None, 8), ("1", 8), ("2", 8), ("3", 8), ("8", 2)])
def test_image_independent_of_threads_and_cpus(monkeypatch, threads, cpus):
    rng = np.random.default_rng(21)
    births = rng.random(3000)
    pd = pd_of(list(zip(births, births + rng.random(3000))))
    args = ((0.0, 2.0), 20, 0.05)
    monkeypatch.setenv("PHKIT_THREADS", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    reference = persistence_image(pd, *args).vector
    if threads is None:
        monkeypatch.delenv("PHKIT_THREADS")
    else:
        monkeypatch.setenv("PHKIT_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert persistence_image(pd, *args).vector.tobytes() == reference.tobytes()


def test_image_bad_params():
    with pytest.raises(BadParams):
        persistence_image(pd_of([]), (0, 1), 8, sigma=0.0)
    with pytest.raises(BadParams):
        persistence_image(pd_of([]), (1, 0), 8, sigma=0.1)
    with pytest.raises(BadParams):
        persistence_image(pd_of([]), (0, 1), 8, sigma=0.1, w_max=-1.0)
    with pytest.raises(BadParams, match="bins"):
        persistence_image(pd_of([]), (0, 1), 0, sigma=0.1)


def test_bottleneck_identical_is_zero():
    pd = pd_of([(0.1, 0.4), (0.2, 0.9)], essential=[0.0])
    assert bottleneck_distance(pd, pd).value == 0.0
    assert wasserstein_distance(pd, pd).value == 0.0


def test_single_pair_to_empty():
    a = pd_of([(0.0, 1.0)])
    b = pd_of([])
    assert bottleneck_distance(a, b).value == 0.5
    assert wasserstein_distance(a, b, q=1).value == 0.5
    two = pd_of([(0.0, 1.0), (0.0, 1.0)])
    assert wasserstein_distance(two, b, q=1).value == 1.0
    assert bottleneck_distance(two, b).value == 0.5


def test_tetra_octa_bottleneck_value():
    a = pd_of([(1 / np.sqrt(3), np.sqrt(3.0 / 8.0))], degree=2)
    b = pd_of([(1 / np.sqrt(3), 1 / np.sqrt(2))], degree=2)
    want = (1 / np.sqrt(2) - 1 / np.sqrt(3)) / 2
    got = bottleneck_distance(a, b).value
    assert abs(got - want) < 1e-15
    assert abs(got - exhaustive_distance(a, b, "bottleneck")) < 1e-15


def test_essential_mismatch_is_infinite():
    a = pd_of([(0.0, 1.0)], essential=[0.0])
    b = pd_of([(0.0, 1.0)])
    assert bottleneck_distance(a, b).value == np.inf
    assert wasserstein_distance(a, b).value == np.inf


def test_essential_births_contribute():
    a = pd_of([], essential=[0.0])
    b = pd_of([], essential=[0.3])
    assert bottleneck_distance(a, b).value == 0.3
    assert wasserstein_distance(a, b, q=2).value == 0.3


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = random_diagram(rng)
        b = random_diagram(rng)
        got_b = bottleneck_distance(a, b).value
        got_w = wasserstein_distance(a, b, q=1).value
        assert same_value(got_b, exhaustive_distance(a, b, "bottleneck"))
        assert same_value(got_w, exhaustive_distance(a, b, "wasserstein"))
        assert got_b <= got_w + 1e-12


def test_metric_axioms():
    rng = np.random.default_rng(8)
    for _ in range(8):
        x, y, z = (random_diagram(rng, max_ess=0) for _ in range(3))
        for dist in (bottleneck_distance,
                     lambda p, q: wasserstein_distance(p, q, 2.0)):
            dxy = dist(x, y).value
            assert abs(dxy - dist(y, x).value) < 1e-12
            assert dxy <= dist(x, z).value + dist(z, y).value + 1e-9
            assert dist(x, x).value < 1e-12


def test_perturbation_bound():
    rng = np.random.default_rng(77)
    pairs = [(0.1, 0.5), (0.3, 0.9), (0.2, 0.4)]
    eps = 1e-3
    jitter = [(b + eps * (2 * rng.random() - 1), d + eps * (2 * rng.random() - 1))
              for b, d in pairs]
    a, b = pd_of(pairs), pd_of(jitter)
    assert bottleneck_distance(a, b).value <= eps + 1e-12


def check_matching_report(a, b, rep):
    """The report's matching costs at most its value and leaves only
    points whose diagonal cost is within it unmatched."""
    costs = [0.0]
    seen_a, seen_b = set(), set()
    for i, j in rep.matching:
        if i is not None and j is not None:
            if np.isinf(a.deaths[i]):
                costs.append(abs(a.births[i] - b.births[j]))
            else:
                costs.append(max(abs(a.births[i] - b.births[j]),
                                 abs(a.deaths[i] - b.deaths[j])))
        elif i is not None:
            costs.append((a.deaths[i] - a.births[i]) / 2)
        else:
            costs.append((b.deaths[j] - b.births[j]) / 2)
        seen_a.add(i)
        seen_b.add(j)
    assert max(costs) <= rep.value + 1e-12
    for i in range(len(a)):
        assert i in seen_a or (a.deaths[i] - a.births[i]) / 2 <= rep.value + 1e-12
    for j in range(len(b)):
        assert j in seen_b or (b.deaths[j] - b.births[j]) / 2 <= rep.value + 1e-12


def test_matching_report_consistent():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a = random_diagram(rng)
        b = random_diagram(rng)
        check_matching_report(a, b, bottleneck_distance(a, b))


def test_bottleneck_thousand_pairs():
    # recursive augmenting paths overflowed the stack at this size
    a, b = (compute_persistence(alpha_filtration(
        np.random.default_rng(seed).random((1100, 2))))[1][1]
        for seed in (3, 4))
    assert min(len(a.finite_pairs), len(b.finite_pairs)) >= 1000
    rep = bottleneck_distance(a, b)
    assert np.isfinite(rep.value)
    assert bottleneck_distance(b, a).value == rep.value
    check_matching_report(a, b, rep)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        bottleneck_distance(pd_of([], degree=1), pd_of([], degree=2))
    with pytest.raises(ValueError, match="one degree"):
        wasserstein_distance(pd_of([], degree=1), pd_of([], degree=2))
    with pytest.raises(BadParams):
        wasserstein_distance(pd_of([]), pd_of([]), q=0.5)


@pytest.mark.parametrize("q", [np.inf, np.nan])
def test_wasserstein_rejects_non_finite_q(q):
    # at q = inf, cost**q and then total**(1/q) would give 1.0 for these
    a, b = pd_of([(0.1, 0.4)]), pd_of([(0.2, 0.9)])
    with pytest.raises(BadParams, match="finite"):
        wasserstein_distance(a, b, q=q)


@pytest.mark.parametrize("distance", [bottleneck_distance,
                                      wasserstein_distance],
                         ids=["bottleneck", "wasserstein"])
def test_distance_above_size_cap_is_too_large(monkeypatch, distance):
    def no_cross_cost(*args):
        raise AssertionError("the cost matrix was built past the cap")

    monkeypatch.setattr("phkit.analysis._cross_cost", no_cross_cost)
    births = np.arange(60_000) / 60_000
    a = PersistenceDiagram(1, births, births + 0.5)
    b = PersistenceDiagram(1, births, births + 0.25)
    assert len(a) * len(b) > DISTANCE_SIZE_CAP
    with pytest.raises(TooLarge, match=f"at most {DISTANCE_SIZE_CAP} "):
        distance(a, b)


def test_size_cap_admits_the_old_point_cap():
    # the dense assignment refused more than 8,000 finite points together
    assert 4000 * 4000 <= DISTANCE_SIZE_CAP
    births = np.arange(8000) / 8000
    a = PersistenceDiagram(1, births, births + 0.5)
    b = pd_of([(0.0, 0.25)])
    rep = wasserstein_distance(a, b)
    # a's first point takes b's at 0.25, the rest go to the diagonal
    assert rep.value == 2000.0
    assert (0, 0) in rep.matching
    assert matching_cost(a, b, rep.matching, 1.0) == rep.value


def dense_wasserstein(a, b, q):
    """Wasserstein distance of the dense (m+n) x (m+n) assignment: every
    point may take any projection of the other side, and projections pair
    freely at cost 0."""
    from scipy.optimize import linear_sum_assignment

    ea, eb = sorted(a.essential_births), sorted(b.essential_births)
    if len(ea) != len(eb):
        return np.inf
    pa = np.array(a.finite_pairs).reshape(-1, 2)
    pb = np.array(b.finite_pairs).reshape(-1, 2)
    m, n = len(pa), len(pb)
    cost = np.zeros((m + n, m + n))
    cost[:m, :n] = np.abs(pa[:, None, :] - pb[None, :, :]).max(
        axis=2, initial=0.0) ** q
    cost[:m, n:] = (((pa[:, 1] - pa[:, 0]) / 2) ** q)[:, None]
    cost[m:, :n] = (((pb[:, 1] - pb[:, 0]) / 2) ** q)[None, :]
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + sum(abs(x - y) ** q
                                         for x, y in zip(ea, eb))
    return total ** (1 / q)


def matching_cost(a, b, matching, q):
    """(sum of cost^q)^(1/q) of a matching list, after checking that it
    lists every point of both diagrams once and pairs essentials only with
    essentials."""
    assert sorted(i for i, _ in matching if i is not None) == \
        list(range(len(a)))
    assert sorted(j for _, j in matching if j is not None) == \
        list(range(len(b)))
    costs = []
    for i, j in matching:
        if j is None:
            assert np.isfinite(a.deaths[i])
            costs.append((a.deaths[i] - a.births[i]) / 2)
        elif i is None:
            assert np.isfinite(b.deaths[j])
            costs.append((b.deaths[j] - b.births[j]) / 2)
        else:
            assert np.isfinite(a.deaths[i]) == np.isfinite(b.deaths[j])
            death_gap = (abs(a.deaths[i] - b.deaths[j])
                         if np.isfinite(a.deaths[i]) else 0.0)
            costs.append(max(abs(a.births[i] - b.births[j]), death_gap))
    return sum(c ** q for c in costs) ** (1 / q)


def seeded_pairs(rng, count):
    """Diagram pairs of up to 40 finite points: on a coarse grid (ties,
    coincident points, zero persistence) or uniform; identical, against an
    empty finite part on either side, or drawn apart."""
    def draw(k, ess, grid):
        if grid:
            births = rng.integers(0, 8, k) / 4
            deaths = births + rng.integers(0, 8, k) / 4
        else:
            births = rng.random(k)
            deaths = births + rng.random(k)
        return pd_of(list(zip(births, deaths)), rng.random(ess))

    for t in range(count):
        grid = t % 2 == 0
        ess = int(rng.integers(0, 3))
        a = draw(int(rng.integers(0, 41)), ess, grid)
        mode = t % 5
        if mode == 0:
            yield a, a
        elif mode == 1:
            yield a, draw(0, ess, grid)
        elif mode == 2:
            yield draw(0, ess, grid), a
        else:
            yield a, draw(int(rng.integers(0, 41)), ess, grid)


def test_wasserstein_matches_dense_assignment():
    rng = np.random.default_rng(23)
    for a, b in seeded_pairs(rng, 500):
        for q in (1.0, 2.0, 3.5):
            rep = wasserstein_distance(a, b, q)
            want = dense_wasserstein(a, b, q)
            assert rep.value == want or \
                abs(rep.value - want) <= 1e-12 * want
            got = matching_cost(a, b, rep.matching, q)
            assert got == rep.value or \
                abs(got - rep.value) <= 1e-12 * rep.value


def scan_bottleneck(a, b):
    """Bottleneck by a linear scan of every candidate cost, each tested
    for a zero-cost assignment on the diagonal-augmented 0/1 matrix."""
    from scipy.optimize import linear_sum_assignment

    ea, eb = sorted(a.essential_births), sorted(b.essential_births)
    if len(ea) != len(eb):
        return np.inf
    ess = max((abs(x - y) for x, y in zip(ea, eb)), default=0.0)
    pa, pb = np.array(a.finite_pairs), np.array(b.finite_pairs)
    m, n = len(pa), len(pb)
    pa, pb = pa.reshape(m, 2), pb.reshape(n, 2)
    diag_a = (pa[:, 1] - pa[:, 0]) / 2
    diag_b = (pb[:, 1] - pb[:, 0]) / 2
    cross = np.abs(pa[:, None, :] - pb[None, :, :]).max(axis=2,
                                                       initial=0.0)
    for c in np.unique(np.concatenate([[ess], diag_a, diag_b,
                                       cross.ravel()])):
        if c < ess:
            continue
        blocked = np.ones((m + n, n + m))
        blocked[:m, :n] = cross > c
        blocked[:m, n:][np.diag_indices(m)] = diag_a > c
        blocked[m:, :n][np.diag_indices(n)] = diag_b > c
        blocked[m:, n:] = 0.0
        rows, cols = linear_sum_assignment(blocked)
        if blocked[rows, cols].sum() == 0:
            return float(c)
    raise AssertionError("matching everything to the diagonal must work")


def grid_diagram(rng, pairs, essentials, degree=1, zero_births=False):
    births = rng.integers(0, 16, pairs) / 8
    if zero_births:
        births[:] = 0.0
    deaths = births + rng.integers(1, 16, pairs) / 8
    ess = rng.integers(0, 16, essentials) / 8
    return pd_of(list(zip(births, deaths)), ess, degree)


def test_bottleneck_matches_linear_scan():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(6):
        k = int(rng.integers(0, 3))
        cases.append((grid_diagram(rng, rng.integers(20, 41), k),
                      grid_diagram(rng, rng.integers(20, 41), k)))
    for _ in range(2):
        cases.append(tuple(
            grid_diagram(rng, rng.integers(20, 41), 1, degree=0,
                         zero_births=True) for _ in range(2)))
    cases.append((grid_diagram(rng, 30, 2), grid_diagram(rng, 0, 2)))
    cases.append((grid_diagram(rng, 0, 1), grid_diagram(rng, 0, 1)))
    cases.append((pd_of([]), pd_of([])))
    cases.append((grid_diagram(rng, 25, 1), grid_diagram(rng, 25, 2)))
    for a, b in cases:
        want = scan_bottleneck(a, b)
        for x, y in ((a, b), (b, a)):
            rep = bottleneck_distance(x, y)
            assert rep.value == want
            if np.isfinite(want):
                check_matching_report(x, y, rep)


@pytest.fixture
def matching_calls(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = []
    real = csgraph.maximum_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_bipartite_matching", counted)
    return calls


def lower_bound(a, b):
    """Largest cost that some point must pay whatever it is matched to."""
    pa, pb = np.array(a.finite_pairs), np.array(b.finite_pairs)
    cross = np.abs(pa[:, None, :] - pb[None, :, :]).max(axis=2)
    own_a = np.minimum((pa[:, 1] - pa[:, 0]) / 2, cross.min(axis=1))
    own_b = np.minimum((pb[:, 1] - pb[:, 0]) / 2, cross.min(axis=0))
    return max(own_a.max(), own_b.max())


def test_bottleneck_at_lower_bound_runs_one_matching(matching_calls):
    # a degree-0 diagram against a jittered copy, as two samples of one
    # shape give
    rng = np.random.default_rng(6)
    deaths = rng.random(30)
    a = pd_of([(0.0, d) for d in deaths], degree=0)
    b = pd_of([(0.0, d) for d in deaths + rng.normal(0.0, 0.01, 30)],
              degree=0)
    rep = bottleneck_distance(a, b)
    assert rep.value == lower_bound(a, b) == scan_bottleneck(a, b)
    assert len(matching_calls) == 1
    check_matching_report(a, b, rep)


def test_bottleneck_above_lower_bound_bisects(matching_calls):
    a = pd_of([(0.0, 10.0), (0.0, 10.0)])
    b = pd_of([(0.0, 10.0)])
    assert lower_bound(a, b) == 0.0
    rep = bottleneck_distance(a, b)
    assert rep.value == 5.0
    assert len(matching_calls) > 1
    check_matching_report(a, b, rep)


def test_bottleneck_prunes_edge_dearer_than_diagonal():
    # the one cross edge costs 2 > max(0.5, 1.5): both points go to the
    # diagonal instead
    a = pd_of([(0.0, 1.0)])
    b = pd_of([(0.0, 3.0)])
    rep = bottleneck_distance(a, b)
    assert rep.value == 1.5 == exhaustive_distance(a, b, "bottleneck")
    assert sorted(rep.matching, key=str) == [(0, None), (None, 0)]
