"""Acceptance gate: nine end-to-end checks, one printed line each."""

import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from phkit import (DistanceMatrix, PointCloud, SimplicialComplex,
                   alpha_filtration, betti_numbers, bottleneck_distance,
                   compute_persistence, cubical_filtration, make_filtration,
                   oracle_persistence, rips_filtration,
                   wasserstein_distance, weighted_alpha_filtration, Bitmap)

from conftest import (child_env, exhaustive_distance, regular_tetrahedron,
                      same_value)

INV_SQRT3 = 1.0 / math.sqrt(3.0)


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({elapsed:.2f} s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def unsquared(diagrams):
    return [pd.scaled(lambda v: math.copysign(math.sqrt(abs(v)), v))
            for pd in diagrams]


def close_multiset(got, expected, tol):
    """Multiset equality of (birth, death) pairs within tol, both ways."""
    if len(got) != len(expected):
        return False
    left = sorted(got)
    right = sorted(expected)
    return all(abs(b1 - b2) <= tol and abs(d1 - d2) <= tol
               for (b1, d1), (b2, d2) in zip(left, right))


def octa_points(a):
    r = a / math.sqrt(2.0)
    return np.array([[r, 0, 0], [-r, 0, 0], [0, r, 0],
                     [0, -r, 0], [0, 0, r], [0, 0, -r]])


def test_criterion_1_tetrahedron():
    t0 = time.monotonic()
    problems = []
    for a in (1.0, 2.5):
        _, diagrams = compute_persistence(
            alpha_filtration(PointCloud(regular_tetrahedron(a))))
        pds = unsquared(diagrams)
        want1 = [(a / 2, a * INV_SQRT3)] * 3
        want2 = [(a * INV_SQRT3, a * math.sqrt(3.0 / 8.0))]
        if not close_multiset(pds[1].finite_pairs, want1, 1e-9):
            problems.append(f"a={a} PD1={pds[1].finite_pairs}")
        if not close_multiset(pds[2].finite_pairs, want2, 1e-9):
            problems.append(f"a={a} PD2={pds[2].finite_pairs}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 1.0
    report(1, "tetrahedron exactness", ok, elapsed, "; ".join(problems))


def test_criterion_2_octahedron():
    t0 = time.monotonic()
    problems = []
    for a in (1.0, 2.5):
        _, diagrams = compute_persistence(
            alpha_filtration(PointCloud(octa_points(a))))
        pds = unsquared(diagrams)
        want1 = [(a / 2, a * INV_SQRT3)] * 7
        want2 = [(a * INV_SQRT3, a / math.sqrt(2.0))]
        if not close_multiset(pds[1].finite_pairs, want1, 1e-9):
            problems.append(f"a={a} PD1={pds[1].finite_pairs}")
        if not close_multiset(pds[2].finite_pairs, want2, 1e-9):
            problems.append(f"a={a} PD2={pds[2].finite_pairs}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 1.0
    report(2, "octahedron exactness", ok, elapsed, "; ".join(problems))


def fcc_points(cells=5):
    c = math.sqrt(2.0)  # cubic cell edge for nearest-neighbor distance 1
    basis = np.array([[0, 0, 0], [0, .5, .5], [.5, 0, .5], [.5, .5, 0]]) * c
    grid = np.stack(np.meshgrid(*[np.arange(cells)] * 3,
                                indexing="ij"), axis=-1).reshape(-1, 3) * c
    return (grid[:, None, :] + basis[None, :, :]).reshape(-1, 3)


def hcp_points(ni=8, nj=4, nk=4):
    """Orthorhombic hcp supercell so the sample block is axis-aligned."""
    sq3 = math.sqrt(3.0)
    c = math.sqrt(8.0 / 3.0)
    cell = np.array([1.0, sq3, c])
    basis = np.array([
        [0.0, 0.0, 0.0],
        [0.5, sq3 / 2.0, 0.0],
        [0.5, sq3 / 6.0, c / 2.0],
        [0.0, sq3 * 2.0 / 3.0, c / 2.0],
    ])
    grid = np.stack(np.meshgrid(np.arange(ni), np.arange(nj), np.arange(nk),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    pts = (grid * cell)[:, None, :] + basis[None, :, :]
    return pts.reshape(-1, 3)


EXPECTED_PD1 = [(0.5, 0.57735027)]
EXPECTED_PD2 = [(0.57735027, 0.61237244), (0.57735027, 0.70710678)]


def interior_value_sets(points, margin=1.6):
    """Unique unsquared (b, d) of pairs whose cells avoid the box border."""
    lo = points.min(axis=0) + margin
    hi = points.max(axis=0) - margin
    inner = np.all((points >= lo) & (points <= hi), axis=1)
    _, diagrams = compute_persistence(alpha_filtration(PointCloud(points)))
    pds = unsquared(diagrams)
    out = {}
    for degree in (1, 2):
        pd = pds[degree]
        values = set()
        for i in np.flatnonzero(pd.finite_mask):
            birth_cell, death_cell = pd.provenance(int(i))
            verts = set(birth_cell.vertices) | set(death_cell.vertices)
            if all(inner[v] for v in verts):
                values.add((round(float(pd.births[i]), 7),
                            round(float(pd.deaths[i]), 7)))
        out[degree] = sorted(values)
    return out


def matches_expected(got, expected, tol=1e-6):
    if not got:
        return False
    for b, d in got:
        if not any(abs(b - eb) <= tol and abs(d - ed) <= tol
                   for eb, ed in expected):
            return False
    for eb, ed in expected:
        if not any(abs(b - eb) <= tol and abs(d - ed) <= tol
                   for b, d in got):
            return False
    return True


def sets_coincide(x, y, tol=1e-6):
    def covered(p, q):
        return all(any(abs(b1 - b2) <= tol and abs(d1 - d2) <= tol
                       for b2, d2 in q) for b1, d1 in p)
    return covered(x, y) and covered(y, x)


def test_criterion_3_crystals():
    t0 = time.monotonic()
    fcc = interior_value_sets(fcc_points())
    hcp = interior_value_sets(hcp_points())
    problems = []
    for name, sets in (("fcc", fcc), ("hcp", hcp)):
        if not matches_expected(sets[1], EXPECTED_PD1):
            problems.append(f"{name} PD1 values {sets[1]}")
        if not matches_expected(sets[2], EXPECTED_PD2):
            problems.append(f"{name} PD2 values {sets[2]}")
    for degree in (1, 2):
        if not sets_coincide(fcc[degree], hcp[degree]):
            problems.append(f"degree {degree} differs between fcc and hcp")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    report(3, "crystal identity", ok, elapsed, "; ".join(problems))


def diagrams_equal_exactly(got, want):
    if len(got) != len(want):
        return False
    for pd_g, pd_w in zip(got, want):
        if sorted(pd_g.finite_pairs) != sorted(pd_w.finite_pairs):
            return False
        if sorted(pd_g.essential_births) != sorted(pd_w.essential_births):
            return False
    return True


def random_filtration(rng, i):
    kind = i % 10
    if kind < 2:  # planar alpha
        n = int(rng.integers(4, 13))
        return alpha_filtration(PointCloud(rng.random((n, 2))))
    if kind < 4:  # spatial alpha
        n = int(rng.integers(4, 13))
        return alpha_filtration(PointCloud(rng.random((n, 3))))
    if kind == 4:  # weighted alpha
        n = int(rng.integers(4, 11))
        w = rng.uniform(-0.05, 0.05, n)
        return weighted_alpha_filtration(PointCloud(rng.random((n, 3)), w))
    if kind < 7:  # Rips at several cutoffs
        n = int(rng.integers(3, 9))
        d = DistanceMatrix.from_points(rng.random((n, 3)))
        cutoff = float(rng.choice([0.5, 0.9, 2.0]))
        return rips_filtration(d, 3, cutoff)
    # bitmaps, with integer levels half the time to force ties
    shape = tuple(int(x) for x in rng.integers(1, 5, size=2))
    if rng.random() < 0.5:
        values = rng.integers(0, 4, size=shape).astype(float)
    else:
        values = rng.random(shape)
    return cubical_filtration(Bitmap(values))


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260822)
    problems = []
    for i in range(200):
        f = random_filtration(rng, i)
        _, got = compute_persistence(f)
        want = oracle_persistence(f)
        if not diagrams_equal_exactly(got, want):
            problems.append(f"case {i} ({f.kind}, {len(f)} cells)")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 60.0
    report(4, "oracle equivalence", ok, elapsed,
           f"mismatch in {problems[:3]}" if problems else "")


def test_criterion_5_stability():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    eps = 1e-3
    worst = 0.0
    for _ in range(20):
        pts = rng.random((30, 2))
        step = rng.normal(size=(30, 2))
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        step *= rng.random((30, 1)) * eps
        pd1 = unsquared(compute_persistence(
            alpha_filtration(PointCloud(pts)))[1])[1]
        pd1_moved = unsquared(compute_persistence(
            alpha_filtration(PointCloud(pts + step)))[1])[1]
        worst = max(worst, bottleneck_distance(pd1, pd1_moved).value)
    elapsed = time.monotonic() - t0
    ok = worst <= eps + 1e-9 and elapsed < 30.0
    report(5, "stability under perturbation", ok, elapsed,
           f"worst bottleneck {worst}")


def test_criterion_6_betti():
    t0 = time.monotonic()
    problems = []
    verts = [(i,) for i in range(4)]
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    skeleton = betti_numbers(SimplicialComplex(verts + edges))
    if skeleton != [1, 3]:
        problems.append(f"skeleton betti {skeleton}")
    one_filled = betti_numbers(SimplicialComplex(
        verts + edges + [(0, 1, 2)]))
    if one_filled[1] != 2:
        problems.append(f"one-triangle betti {one_filled}")

    # square that closes, gains a chord, then is filled triangle by triangle
    staged = make_filtration([
        ((0,), 0), ((1,), 0), ((2,), 0), ((3,), 0),
        ((0, 1), 0), ((1, 2), 0), ((2, 3), 0),
        ((0, 3), 1),
        ((0, 2), 2),
        ((0, 1, 2), 3),
        ((0, 2, 3), 4),
    ])
    holes = [betti_numbers(staged, prefix=staged.prefix_length(v))[1]
             for v in range(5)]
    if holes != [0, 1, 2, 1, 0]:
        problems.append(f"staged hole counts {holes}")
    pd1 = compute_persistence(staged)[1][1]
    if sorted(pd1.finite_pairs) != [(1.0, 4.0), (2.0, 3.0)]:
        problems.append(f"staged PD1 {pd1.finite_pairs}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 1.0
    report(6, "hole counting", ok, elapsed, "; ".join(problems))


def random_pd(rng):
    from phkit import PersistenceDiagram
    k = int(rng.integers(0, 7))
    births = rng.random(k)
    deaths = births + rng.random(k) * 0.6 + 1e-3
    ess = list(rng.random(int(rng.integers(0, 3)))) \
        if rng.random() < 0.3 else []
    return PersistenceDiagram.from_pairs(
        1, list(zip(births.tolist(), deaths.tolist())), ess)


def test_criterion_7_distance_metrics():
    t0 = time.monotonic()
    rng = np.random.default_rng(4242)
    pool = [random_pd(rng) for _ in range(51)]
    problems = []
    values = []
    for t in range(50):
        a, b = pool[t], pool[t + 1]
        bn = bottleneck_distance(a, b).value
        w1 = wasserstein_distance(a, b, 1.0).value
        w2 = wasserstein_distance(a, b, 2.0).value
        if not same_value(bn, exhaustive_distance(a, b, "bottleneck"), 1e-9):
            problems.append(f"pair {t} bottleneck")
        if not same_value(w1, exhaustive_distance(a, b, "wasserstein", 1.0),
                          1e-9):
            problems.append(f"pair {t} w1")
        if not same_value(w2, exhaustive_distance(a, b, "wasserstein", 2.0),
                          1e-9):
            problems.append(f"pair {t} w2")
        if not same_value(bn, bottleneck_distance(b, a).value, 1e-12):
            problems.append(f"pair {t} bottleneck symmetry")
        if not same_value(w1, wasserstein_distance(b, a, 1.0).value, 1e-12):
            problems.append(f"pair {t} w1 symmetry")
        values.append((bn, w1))
    for t in range(49):
        a, b, c = pool[t], pool[t + 1], pool[t + 2]
        for metric in (lambda x, y: bottleneck_distance(x, y).value,
                       lambda x, y: wasserstein_distance(x, y, 1.0).value):
            ab, bc, ac = metric(a, b), metric(b, c), metric(a, c)
            if not (np.isinf(ab) or np.isinf(bc)) and ac > ab + bc + 1e-9:
                problems.append(f"triple {t} triangle inequality")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    report(7, "distance metric axioms", ok, elapsed,
           "; ".join(problems[:5]))


@pytest.mark.slow
def test_criterion_8_scale_smoke():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    points = rng.random((100_000, 3))
    _, diagrams = compute_persistence(alpha_filtration(PointCloud(points)))
    elapsed = time.monotonic() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    populated = all(len(diagrams[d]) > 0 for d in (0, 1, 2))
    ok = populated and elapsed < 600.0 and peak_gb < 8.0
    report(8, "100k-point scale smoke", ok, elapsed,
           f"elapsed {elapsed:.1f} s, peak {peak_gb:.2f} GB, "
           f"populated={populated}")


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "phkit.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=child_env())


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.monotonic()
    tetra_text = "\n".join(
        " ".join(f"{x:.17g}" for x in row)
        for row in regular_tetrahedron(1.0)) + "\n"
    captured = []
    ok = True
    detail = ""
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        (d / "tetra.txt").write_text(tetra_text)
        outputs = {}
        steps = [
            ("compute", "tetra.txt", "--kind", "pointcloud"),
            ("pairs", "tetra.diagram.json", "--degree", "1"),
            ("plot", "tetra.diagram.json", "--degree", "1",
             "-o", "pd1.svg"),
            ("vectorize", "tetra.diagram.json", "--degree", "1",
             "-o", "vec.csv"),
            ("distance", "tetra.diagram.json", "tetra.diagram.json",
             "--degree", "1"),
        ]
        for step in steps:
            r = run_cli(*step, cwd=d)
            if r.returncode != 0:
                ok = False
                detail = f"{step[0]} failed: {r.stderr}"
            outputs[f"stdout:{step[0]}"] = r.stdout
        for name in ("tetra.diagram.json", "pd1.svg", "vec.csv"):
            outputs[name] = (d / name).read_bytes()
        captured.append(outputs)
    if ok:
        for key in captured[0]:
            if captured[0][key] != captured[1][key]:
                ok = False
                detail = f"{key} differs between runs"
                break
        if float(captured[0]["stdout:distance"]) != 0.0:
            ok = False
            detail = "self-distance is not zero"
    elapsed = time.monotonic() - t0
    report(9, "deterministic CLI pipeline", ok, elapsed, detail)
