"""End-to-end command line tests via subprocess."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phkit
from phkit import PersistenceDiagram, read_diagram_file, write_diagram_file
from phkit import fileio
from phkit.cli import _default_range, _nearest

from conftest import child_env

INV_SQRT3 = 1.0 / math.sqrt(3.0)
TETRA_TXT = "\n".join(
    " ".join(f"{x:.17g}" for x in row) for row in [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.5, math.sqrt(3) / 2, 0.0),
        (0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)),
    ]) + "\n"
_R = 1 / math.sqrt(2.0)  # circumradius of the edge-1 octahedron
OCTA_TXT = "\n".join(
    " ".join(f"{x:.17g}" for x in row) for row in [
        (_R, 0, 0), (-_R, 0, 0), (0, _R, 0),
        (0, -_R, 0), (0, 0, _R), (0, 0, -_R),
    ]) + "\n"


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "phkit.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=child_env())


def parse_pairs(stdout):
    out = []
    for line in stdout.splitlines():
        b, d = line.split()
        out.append((float(b), float(d)))
    return out


@pytest.fixture
def tetra_dir(tmp_path):
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    r = run("compute", "tetra.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_compute_writes_default_output(tetra_dir):
    assert (tetra_dir / "tetra.diagram.json").exists()


def test_pairs_degree1_unsquared(tetra_dir):
    r = run("pairs", "tetra.diagram.json", "--degree", "1", cwd=tetra_dir)
    assert r.returncode == 0
    got = parse_pairs(r.stdout)
    assert len(got) == 3
    for b, d in got:
        assert b == pytest.approx(0.5, abs=1e-12)
        assert d == pytest.approx(INV_SQRT3, abs=1e-12)


def test_pairs_degree0_essential_prints_inf(tetra_dir):
    r = run("pairs", "tetra.diagram.json", "--degree", "0", cwd=tetra_dir)
    lines = r.stdout.splitlines()
    assert len(lines) == 4
    assert sum(1 for ln in lines if ln.endswith(" inf")) == 1
    finite = [bd for bd in parse_pairs(r.stdout) if math.isfinite(bd[1])]
    for b, d in finite:
        assert (b, d) == (0.0, pytest.approx(0.5, abs=1e-12))


def test_compute_squared_keeps_raw_values(tmp_path):
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    r = run("compute", "tetra.txt", "--kind", "pointcloud", "--squared",
            "-o", "sq.json", cwd=tmp_path)
    assert r.returncode == 0
    r = run("pairs", "sq.json", "--degree", "1", cwd=tmp_path)
    for b, d in parse_pairs(r.stdout):
        assert b == pytest.approx(0.25, abs=1e-12)
        assert d == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_maxdim_caps_reported_degrees(tmp_path):
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    r = run("compute", "tetra.txt", "--kind", "pointcloud", "--maxdim", "1",
            cwd=tmp_path)
    assert r.returncode == 0
    df = read_diagram_file(tmp_path / "tetra.diagram.json")
    assert df.max_degree == 1


def test_missing_input_exits_2(tmp_path):
    r = run("compute", "nope.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 2


def test_parse_error_exits_2_with_line(tmp_path):
    (tmp_path / "bad.txt").write_text("0 0 0\n1.0 x 2.0\n")
    r = run("compute", "bad.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 2
    assert "line 2" in r.stderr


@pytest.mark.parametrize("kind, data, extra, line", [
    ("pointcloud", b"0 0 0\n1 2\n", [], 2),
    ("pointcloud-weighted", b"0 0 0 1\n0 x 0 1\n", [], 2),
    ("distance-matrix", b"0,1\n1,x\n", ["--maxdim", "1", "--max-value", "2"],
     2),
    ("bitmap", b"P2\n2 1\n255\n1 x\n", [], 1),
    ("bitmap", b"NDBITMAP v1\n2\n2 y\n", [], 3),
    ("binary-bitmap", b"NDBITMAP v1\n1\n3\n1 0 q\n", [], 4),
], ids=["pointcloud", "weighted", "distance-matrix", "pgm", "ndbitmap",
        "binary-bitmap"])
def test_each_input_kind_parse_error_exits_2(tmp_path, kind, data, extra,
                                             line):
    (tmp_path / "bad.in").write_bytes(data)
    r = run("compute", "bad.in", "--kind", kind, *extra, cwd=tmp_path)
    assert r.returncode == 2
    assert f"error: line {line}: " in r.stderr
    assert "Traceback" not in r.stderr


def test_unwritable_output_exits_2(tmp_path):
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    r = run("compute", "tetra.txt", "--kind", "pointcloud", "-o",
            "missing_dir/out.json", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "missing_dir").exists()


def test_duplicate_points_exit_3(tmp_path):
    (tmp_path / "dup.txt").write_text("0 0 0\n1 0 0\n1 0 0\n")
    r = run("compute", "dup.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 3
    assert "DuplicatePoints" in r.stderr


def test_jitter_that_breaks_monotonicity_exits_3(tmp_path):
    pts = np.random.default_rng(7).random((10, 3)) * 1000
    pts[-1] = pts[0] + 2e-12
    np.savetxt(tmp_path / "jitter.txt", pts, fmt="%.17g")
    r = run("compute", "jitter.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 3
    assert "DegenerateInput" in r.stderr


def test_distance_matrix_requires_maxdim(tmp_path):
    (tmp_path / "d.csv").write_text("0,1\n1,0\n")
    r = run("compute", "d.csv", "--kind", "distance-matrix",
            "--max-value", "2", cwd=tmp_path)
    assert r.returncode == 2


def test_distance_matrix_requires_max_value(tmp_path):
    (tmp_path / "d.csv").write_text("0,1\n1,0\n")
    r = run("compute", "d.csv", "--kind", "distance-matrix",
            "--maxdim", "1", cwd=tmp_path)
    assert r.returncode == 3
    assert "TooLarge" in r.stderr


def square_csv():
    s = math.sqrt(2.0)
    d = [[0, 1, s, 1], [1, 0, 1, s], [s, 1, 0, 1], [1, s, 1, 0]]
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in d) + "\n"


def test_rips_square_loop(tmp_path):
    (tmp_path / "square.csv").write_text(square_csv())
    r = run("compute", "square.csv", "--kind", "distance-matrix",
            "--maxdim", "2", "--max-value", "3", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run("pairs", "square.diagram.json", "--degree", "1", cwd=tmp_path)
    got = parse_pairs(r.stdout)
    assert len(got) == 1
    assert got[0][0] == pytest.approx(1.0)
    assert got[0][1] == pytest.approx(math.sqrt(2.0))


def test_bad_degree_exits_3(tetra_dir):
    r = run("pairs", "tetra.diagram.json", "--degree", "9", cwd=tetra_dir)
    assert r.returncode == 3
    assert "BadDegree" in r.stderr


def test_plot_writes_svg(tetra_dir):
    r = run("plot", "tetra.diagram.json", "--degree", "1",
            "-o", "pd1.svg", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    svg = (tetra_dir / "pd1.svg").read_text()
    assert svg.startswith("<svg")
    import xml.etree.ElementTree as ET
    ET.fromstring(svg)


def test_plot_explicit_range_and_log(tetra_dir):
    r = run("plot", "tetra.diagram.json", "--degree", "1", "--range",
            "0", "1", "--bins", "16", "--log", "-o", "pd1log.svg",
            cwd=tetra_dir)
    assert r.returncode == 0, r.stderr


def test_plot_bad_range_exits_3(tetra_dir):
    r = run("plot", "tetra.diagram.json", "--degree", "1", "--range",
            "1", "0", "-o", "x.svg", cwd=tetra_dir)
    assert r.returncode == 3
    assert "BadRange" in r.stderr


@pytest.mark.parametrize("args, error", [
    (("plot", "--range", "-inf", "1", "-o", "x.svg"), "BadRange"),
    (("vectorize", "--range", "0", "inf", "--bins", "2"), "BadParams"),
    (("distance", "tetra.diagram.json", "--metric", "wasserstein", "--q",
      "inf"), "BadParams"),
], ids=["plot-range", "vectorize-range", "wasserstein-q"])
def test_non_finite_parameter_exits_3(tetra_dir, args, error):
    # an infinite window or exponent is a usage error, not a traceback or
    # a NaN or wrong number on stdout
    r = run(args[0], "tetra.diagram.json", *args[1:], "--degree", "1",
            cwd=tetra_dir)
    assert r.returncode == 3, r.stderr
    assert error in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args", [("plot", "-o", "x.svg"), ("vectorize",)],
                         ids=["plot", "vectorize"])
def test_grid_past_cap_exits_3(tetra_dir, args):
    # a 100,000 x 100,000 grid would take 80 GB; the check comes first
    r = run(args[0], "tetra.diagram.json", *args[1:], "--degree", "1",
            "--bins", "100000", cwd=tetra_dir)
    assert r.returncode == 3
    assert "TooLarge" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == "" and not (tetra_dir / "x.svg").exists()


@pytest.mark.parametrize("points, degree, hi", [
    ("0 0\n1 0\n0 1\n1 1.5\n", 2, "1"),
    ("0.5 0.5\n", 0, "0.05"),
], ids=["no-pairs", "all-zero"])
def test_default_range_fallbacks(tmp_path, points, degree, hi):
    # a planar cloud has no degree-2 pairs: the window falls back to
    # [0, 1]; one point has one essential class born at 0, so the window
    # has no span and gets [0, 0.05]
    (tmp_path / "c.txt").write_text(points)
    r = run("compute", "c.txt", "--kind", "pointcloud", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run("plot", "c.diagram.json", "--degree", degree, "-o", "c.svg",
            cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    svg = (tmp_path / "c.svg").read_text()
    assert 'font-size="13">0</text>' in svg
    assert f'font-size="13">{hi}</text>' in svg
    r = run("vectorize", "c.diagram.json", "--degree", degree, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ",".join(["0"] * 400) + "\n"


def test_vectorize_stdout_row(tetra_dir):
    r = run("vectorize", "tetra.diagram.json", "--degree", "1",
            cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    values = [float(t) for t in r.stdout.strip().split(",")]
    assert len(values) == 400
    assert sum(values) > 0


def test_vectorize_flags_and_output_file(tetra_dir):
    r = run("vectorize", "tetra.diagram.json", "--degree", "1", "--range",
            "0", "1", "--bins", "4", "--sigma", "0.1", "--wmax", "0.5",
            "-o", "vec.csv", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    values = [float(t) for t in
              (tetra_dir / "vec.csv").read_text().strip().split(",")]
    assert len(values) == 16


def test_distance_between_tetra_and_octa(tmp_path):
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    (tmp_path / "octa.txt").write_text(OCTA_TXT)
    for name in ("tetra", "octa"):
        r = run("compute", f"{name}.txt", "--kind", "pointcloud",
                cwd=tmp_path)
        assert r.returncode == 0, r.stderr
    r = run("distance", "tetra.diagram.json", "octa.diagram.json",
            "--degree", "2", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    # both single pairs go to the diagonal: the octahedron one is costlier
    expected = (1 / math.sqrt(2) - INV_SQRT3) / 2
    assert float(r.stdout) == pytest.approx(expected, abs=1e-12)
    r = run("distance", "tetra.diagram.json", "octa.diagram.json",
            "--degree", "2", "--metric", "wasserstein", "--q", "2",
            cwd=tmp_path)
    tetra_diag = (math.sqrt(3.0 / 8.0) - INV_SQRT3) / 2
    expected = (tetra_diag ** 2 + expected ** 2) ** 0.5
    assert float(r.stdout) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("metric", ["bottleneck", "wasserstein"])
def test_distance_past_size_cap_exits_3(tmp_path, metric):
    births = np.arange(60_000) / 60_000
    for name, length in (("a.json", 0.5), ("b.json", 0.25)):
        write_diagram_file(
            tmp_path / name,
            [PersistenceDiagram(1, births, births + length)],
            kind="pointcloud", squared=False, input_path="x.txt")
    r = run("distance", "a.json", "b.json", "--degree", "1", "--metric",
            metric, cwd=tmp_path)
    assert r.returncode == 3
    assert "TooLarge" in r.stderr and "Traceback" not in r.stderr


def test_rips_past_cell_cap_exits_3(tmp_path):
    # the cliques of 200 points up to dimension 3 have 64.7M candidates
    pts = np.random.default_rng(0).random((200, 3))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    np.savetxt(tmp_path / "d.csv", d, delimiter=",", fmt="%.17g")
    r = run("compute", "d.csv", "--kind", "distance-matrix", "--maxdim", "3",
            "--max-value", "10", cwd=tmp_path)
    assert r.returncode == 3
    assert "TooLarge" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "d.diagram.json").exists()


def test_bitmap_past_cell_cap_exits_3(tmp_path):
    # rank 12, two voxels per axis: 5**12 cubes pass the cell cap
    values = " ".join(["0"] * 2 ** 12)
    (tmp_path / "big.txt").write_text(
        f"NDBITMAP v1\n12\n{' '.join(['2'] * 12)}\n{values}\n")
    r = run("compute", "big.txt", "--kind", "bitmap", cwd=tmp_path)
    assert r.returncode == 3
    assert "TooLarge" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "big.diagram.json").exists()


def test_binary_bitmap_ring(tmp_path):
    (tmp_path / "ring.pgm").write_text(
        "P2\n3 3\n1\n1 1 1\n1 0 1\n1 1 1\n")
    r = run("compute", "ring.pgm", "--kind", "binary-bitmap", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run("pairs", "ring.diagram.json", "--degree", "1", cwd=tmp_path)
    got = parse_pairs(r.stdout)
    assert got == [(-1.0, 1.0)]


def test_binary_bitmap_positive_inside(tmp_path):
    (tmp_path / "ring.pgm").write_text(
        "P2\n3 3\n1\n1 1 1\n1 0 1\n1 1 1\n")
    r = run("compute", "ring.pgm", "--kind", "binary-bitmap",
            "--positive-inside", "-o", "flip.json", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    df = read_diagram_file(tmp_path / "flip.json")
    assert df.metadata["params"]["positive_inside"] is True
    # the foreground ring is now positive, the background center is -1
    assert df.diagram(0).essential_births == [-1.0]
    assert len(df.diagram(1)) == 0


def test_uniform_bitmap_exits_3(tmp_path):
    (tmp_path / "flat.pgm").write_text("P2\n2 2\n1\n1 1\n1 1\n")
    r = run("compute", "flat.pgm", "--kind", "binary-bitmap", cwd=tmp_path)
    assert r.returncode == 3
    assert "UniformBitmap" in r.stderr


def test_gray_bitmap_compute(tmp_path):
    (tmp_path / "g.pgm").write_text("P2\n3 1\n9\n1 9 2\n")
    r = run("compute", "g.pgm", "--kind", "bitmap", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run("pairs", "g.diagram.json", "--degree", "0", cwd=tmp_path)
    got = parse_pairs(r.stdout)
    assert (2.0, 9.0) in got
    assert (1.0, float("inf")) in got


def test_invert_degree1_cycle(tetra_dir):
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].startswith("pair: 0.5 0.577350269")
    n = int(lines[1].removeprefix("cells (").rstrip("):"))
    assert n in (3, 4)  # a triangle boundary, possibly merged with another
    edges = [tuple(int(v) for v in ln.split()) for ln in lines[2:2 + n]]
    assert all(len(e) == 2 for e in edges)
    # the edges close up into a loop: every vertex appears exactly twice
    flat = [v for e in edges for v in e]
    assert all(flat.count(v) == 2 for v in set(flat))
    assert "vertices:" in r.stdout
    coord_lines = lines[lines.index("vertices:") + 1:]
    assert len(coord_lines) == n


def test_invert_tighten(tetra_dir):
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", "--tighten", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    assert "cells (3):" in r.stdout


def test_invert_degree0(tetra_dir):
    r = run("invert", "tetra.diagram.json", "--degree", "0", "--nearest",
            "0", "0.5", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    assert "cells (1):" in r.stdout


def test_invert_rips(tmp_path):
    (tmp_path / "square.csv").write_text(square_csv())
    run("compute", "square.csv", "--kind", "distance-matrix", "--maxdim",
        "2", "--max-value", "3", cwd=tmp_path)
    r = run("invert", "square.diagram.json", "--degree", "1", "--nearest",
            "1", "1.4", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "cells (3):" in r.stdout or "cells (4):" in r.stdout
    assert "vertices:" not in r.stdout


def test_invert_without_provenance_exits_3(tmp_path):
    # diagrams built from bare pairs carry no cells, so the file has none
    (tmp_path / "tetra.txt").write_text(TETRA_TXT)
    diagrams = [PersistenceDiagram.from_pairs(1, [(0.25, 1 / 3)] * 3)]
    write_diagram_file(tmp_path / "bare.json", diagrams, kind="pointcloud",
                       squared=True, input_path="tetra.txt")
    r = run("invert", "bare.json", "--degree", "1", "--nearest", "0.25",
            "0.34", cwd=tmp_path)
    assert r.returncode == 3
    assert "MissingProvenance" in r.stderr


def test_invert_vanished_input_exits_3(tetra_dir):
    (tetra_dir / "tetra.txt").unlink()
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3
    assert "MissingProvenance" in r.stderr


def test_invert_no_finite_pairs_exits_3(tmp_path):
    (tmp_path / "two.txt").write_text("0 0 0\n1 0 0\n")
    run("compute", "two.txt", "--kind", "pointcloud", cwd=tmp_path)
    r = run("invert", "two.diagram.json", "--degree", "1", "--nearest",
            "0", "1", cwd=tmp_path)
    assert r.returncode == 3
    assert "NoPairs" in r.stderr or "BadDegree" in r.stderr


def test_weighted_pointcloud_signed_sqrt(tmp_path):
    (tmp_path / "w.txt").write_text("0 0 0 0\n1 0 0 0.25\n")
    r = run("compute", "w.txt", "--kind", "pointcloud-weighted",
            cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    df = read_diagram_file(tmp_path / "w.diagram.json")
    pd0 = df.diagram(0)
    births = sorted(pd0.pairs)
    # raw values -0.25 and 0 map to -0.5 and 0 under the signed square root
    assert births[0][0] == pytest.approx(-0.5)
    assert min(pd0.essential_births) == pytest.approx(-0.5)


def test_signed_sqrt_matches_per_value_form():
    from phkit.cli import _signed_sqrt

    values = [0.0, -0.0, 5e-324, -5e-324, -1e-300, 2.0, -2.0, 0.3,
              math.inf]
    expected = [float(np.sign(x) * np.sqrt(abs(x))) for x in values]
    got = _signed_sqrt(np.array(values))
    assert got.tobytes() == np.array(expected).tobytes()
    assert got[-1] == math.inf


def test_outputs_byte_identical_across_runs(tmp_path):
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        (d / "tetra.txt").write_text(TETRA_TXT)
        r = run("compute", "tetra.txt", "--kind", "pointcloud", cwd=d)
        assert r.returncode == 0, r.stderr
        r = run("plot", "tetra.diagram.json", "--degree", "1", "-o",
                "pd1.svg", cwd=d)
        assert r.returncode == 0, r.stderr
        r = run("vectorize", "tetra.diagram.json", "--degree", "1", "-o",
                "vec.csv", cwd=d)
        assert r.returncode == 0, r.stderr
    for name in ("tetra.diagram.json", "pd1.svg", "vec.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_provenance_stored_as_json(tetra_dir):
    doc = json.loads((tetra_dir / "tetra.diagram.json").read_text())
    assert doc["format"] == "phkit-diagram"
    assert doc["metadata"]["input"] == "tetra.txt"
    assert "provenance" in doc["degrees"]["1"]


RING_PGM = ("P2\n7 4\n9\n"
            "1 1 1 1 1 9 0\n"
            "1 5 5 5 1 9 9\n"
            "1 5 5 5 1 9 9\n"
            "1 1 1 1 1 9 9\n")


def parse_cubes(lines):
    """(anchor, extent) tuples from 'a,b e,f' lines."""
    out = []
    for ln in lines:
        anchor, extent = ln.split()
        out.append((tuple(int(a) for a in anchor.split(",")),
                    tuple(int(e) for e in extent.split(","))))
    return out


@pytest.fixture
def ring_dir(tmp_path):
    (tmp_path / "ring.pgm").write_text(RING_PGM)
    r = run("compute", "ring.pgm", "--kind", "bitmap", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path


def test_invert_cubical_degree0(ring_dir):
    r = run("invert", "ring.diagram.json", "--degree", "0", "--nearest",
            "1", "9", cwd=ring_dir)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[:2] == ["pair: 1 9", "cells (1):"]
    [(anchor, extent)] = parse_cubes(lines[2:])
    assert len(anchor) == 2 and extent == (0, 0)


def test_invert_cubical_degree1_tighten(ring_dir):
    r = run("invert", "ring.diagram.json", "--degree", "1", "--nearest",
            "1", "5", "--tighten", cwd=ring_dir)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "pair: 1 5"
    n = int(lines[1].removeprefix("cells (").rstrip("):"))
    edges = parse_cubes(lines[2:])
    assert len(edges) == n >= 4
    assert all(sum(extent) == 1 for _, extent in edges)
    # the edges close up into a loop: every corner appears exactly twice
    ends = [c for a, e in edges
            for c in (a, tuple(x + y for x, y in zip(a, e)))]
    assert all(ends.count(c) == 2 for c in ends)
    assert "vertices:" not in r.stdout


def test_invert_changed_input_exits_3(tetra_dir):
    # two points have no triangle, so the recorded death cell is gone
    (tetra_dir / "tetra.txt").write_text("0 0 0\n1 0 0\n")
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3
    assert "MissingProvenance" in r.stderr
    assert "no longer reproduces" in r.stderr


def test_invert_crossed_cells_exit_3(tetra_dir):
    # pair 0 names pair 1's death cell: both cells are found in the
    # rebuilt filtration, but they are not paired with each other
    path = tetra_dir / "tetra.diagram.json"
    doc = json.loads(path.read_text())
    prov = doc["degrees"]["1"]["provenance"]
    prov["death_cells"][0] = prov["death_cells"][1]
    path.write_text(json.dumps(doc))
    f = phkit.alpha_filtration(np.loadtxt(tetra_dir / "tetra.txt"))
    assert f.position(1, prov["birth_cells"][0]) >= 0
    assert f.position(2, prov["death_cells"][0]) >= 0
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3, r.stderr
    assert "MissingProvenance" in r.stderr
    assert "no longer reproduces" in r.stderr


@pytest.mark.parametrize("damage", [
    lambda prov: prov.update(birth_cells=[]),
    lambda prov: prov.pop("death_cells"),
    lambda prov: prov.update(birth_cells=[[[0, 1], [2]]] * 3),
    lambda prov: prov.update(death_cells=[None] * 3),
    lambda prov: prov.update(death_cells=[[0, 1, 2, 3]] * 3),
], ids=["short", "missing", "ragged", "null", "wrong-width"])
def test_invert_damaged_provenance_exits_3(tetra_dir, damage):
    path = tetra_dir / "tetra.diagram.json"
    doc = json.loads(path.read_text())
    damage(doc["degrees"]["1"]["provenance"])
    path.write_text(json.dumps(doc))
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3, r.stderr
    assert "MissingProvenance" in r.stderr


@pytest.mark.parametrize("damage", [
    lambda meta: meta.update(params=[]),
    lambda meta: meta.update(kind="nonsense"),
    lambda meta: meta.update(input=["ring.pgm"]),
], ids=["params-array", "unknown-kind", "input-array"])
def test_invert_malformed_metadata_exits_2(ring_dir, damage):
    path = ring_dir / "ring.diagram.json"
    doc = json.loads(path.read_text())
    damage(doc["metadata"])
    path.write_text(json.dumps(doc))
    r = run("invert", "ring.diagram.json", "--degree", "0", "--nearest",
            "1", "9", cwd=ring_dir)
    assert r.returncode == 2, r.stderr
    assert "metadata" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_malformed_diagram_file_exits_2(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps(
        {"format": "phkit-diagram", "version": 1, "degrees": []}))
    r = run("pairs", "bad.json", "--degree", "0", cwd=tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


# --- files in the writer's layout, read one degree at a time ------------

def dump_in_layout(path, doc):
    """doc written as the writer lays a file out, json.dump(indent=1) plus
    a newline; the test fails unless the layout read accepts it."""
    path.write_text(json.dumps(doc, indent=1) + "\n")
    fileio._layout_document(path.read_bytes())


@pytest.mark.parametrize("damage", [
    lambda prov: prov.update(birth_cells=[]),
    lambda prov: prov.pop("death_cells"),
    lambda prov: prov.update(birth_cells=[[[0, 1], [2]]] * 3),
    lambda prov: prov.update(death_cells=[None] * 3),
    lambda prov: prov.update(death_cells=[[0, 1, 2, 3]] * 3),
], ids=["short", "missing", "ragged", "null", "wrong-width"])
def test_invert_damaged_provenance_in_layout_exits_3(tetra_dir, damage):
    path = tetra_dir / "tetra.diagram.json"
    doc = json.loads(path.read_text())
    damage(doc["degrees"]["1"]["provenance"])
    dump_in_layout(path, doc)
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3, r.stderr
    assert "MissingProvenance" in r.stderr


@pytest.mark.parametrize("damage", [
    lambda meta: meta.update(params=[]),
    lambda meta: meta.update(kind="nonsense"),
    lambda meta: meta.update(input=["ring.pgm"]),
], ids=["params-array", "unknown-kind", "input-array"])
def test_invert_malformed_metadata_in_layout_exits_2(ring_dir, damage):
    path = ring_dir / "ring.diagram.json"
    doc = json.loads(path.read_text())
    damage(doc["metadata"])
    dump_in_layout(path, doc)
    r = run("invert", "ring.diagram.json", "--degree", "0", "--nearest",
            "1", "9", cwd=ring_dir)
    assert r.returncode == 2, r.stderr
    assert "metadata" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("doc", [
    {"format": "phkit-diagram", "version": 1, "metadata": [],
     "degrees": {}},
    {"format": "phkit-diagram", "version": 1,
     "degrees": {"0": {"pairs": [[0.0]]}}},
], ids=["metadata-array", "short-pair"])
def test_malformed_diagram_file_in_layout_exits_2(tmp_path, doc):
    dump_in_layout(tmp_path / "bad.json", doc)
    r = run("pairs", "bad.json", "--degree", "0", cwd=tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_invert_bad_json_in_provenance_exits_2(tetra_dir):
    path = tetra_dir / "tetra.diagram.json"
    data = path.read_bytes()
    at = data.index(b'"death_cells": [', data.index(b'"1": {'))
    path.write_bytes(data[:at] + b'"death_cells": [oops,'
                     + data[at + len(b'"death_cells": ['):])
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("fault", [
    lambda text: text.replace('"pairs": [\n    [\n     0.0', '"pairs": [\n'
                              '    [\n     oops', 1),
    lambda text: text.replace('"0": {\n   "pairs": [\n    [\n     0.0,',
                              '"0": {\n   "pairs": [\n    [', 1),
], ids=["bad-number", "short-pair"])
def test_light_commands_skip_a_malformed_other_degree(tetra_dir, fault):
    # a light command reads only the degree it is asked for: a fault in
    # degree 0 of a file in the writer's layout stops degree 0 (exit 2),
    # and degree 1 prints as before. The same fault in a file of another
    # layout stops every degree, as the file is then parsed whole.
    path = tetra_dir / "tetra.diagram.json"
    before = run("pairs", "tetra.diagram.json", "--degree", "1",
                 cwd=tetra_dir)
    text = path.read_text()
    assert fault(text) != text
    path.write_text(fault(text))
    fileio._layout_document(path.read_bytes())
    for args in (["pairs"], ["plot", "-o", "p.svg"], ["vectorize"]):
        r = run(args[0], "tetra.diagram.json", "--degree", "1", *args[1:],
                cwd=tetra_dir)
        assert r.returncode == 0, r.stderr
        r = run(args[0], "tetra.diagram.json", "--degree", "0", *args[1:],
                cwd=tetra_dir)
        assert r.returncode == 2 and "Traceback" not in r.stderr
    r = run("pairs", "tetra.diagram.json", "--degree", "1", cwd=tetra_dir)
    assert r.stdout == before.stdout
    path.write_text(fault(text).replace("\n", "\n "))  # off the layout
    r = run("pairs", "tetra.diagram.json", "--degree", "1", cwd=tetra_dir)
    assert r.returncode == 2 and "Traceback" not in r.stderr


def _old_default_range(pd):
    # the per-value window of the earlier CLI, the reference for ties,
    # signed zeros and NaN
    values = [v for bd in pd.finite_pairs for v in bd] + pd.essential_births
    if not values:
        return 0.0, 1.0
    lo = min(0.0, min(values))
    hi = max(values)
    span = hi - lo
    if span <= 0:
        span = 1.0
    return lo, hi + 0.05 * span


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from([-0.0, 0.0, 0.5, -0.25, 1.0, math.nan, 2.0]),
           st.sampled_from([-0.0, 0.0, 0.5, 1.0, math.nan, math.inf])),
           max_size=5))
def test_default_range_matches_per_value_window(pairs):
    pd = PersistenceDiagram(1, np.array([b for b, _ in pairs], dtype=float),
                            np.array([d for _, d in pairs], dtype=float))
    got, want = _default_range(pd), _old_default_range(pd)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                          st.sampled_from([-0.0, 0.0, 0.5, 0.75, 1.0])),
                min_size=1, max_size=6),
       st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 0.25]),
                 st.sampled_from([-0.0, 0.0, 0.5, 1.0])))
def test_nearest_takes_the_first_of_tied_pairs(pairs, target):
    # the earlier pick: the least (distance, birth, death, index) tuple;
    # -0.0 and 0.0 tie, so the index decides between them
    births = np.array([b for b, _ in pairs])
    deaths = np.array([d for _, d in pairs])
    tb, td = target
    want = min(((b - tb) ** 2 + (d - td) ** 2, b, d, k)
               for k, (b, d) in enumerate(pairs))[3]
    assert _nearest(births, deaths, target) == want


def test_invert_picks_the_first_of_tied_pairs(tetra_dir):
    # the three degree-1 pairs of the regular tetrahedron are equal: only
    # the first one's cells are kept readable, so only it can be shown
    path = tetra_dir / "tetra.diagram.json"
    doc = json.loads(path.read_text())
    prov = doc["degrees"]["1"]["provenance"]
    assert len(set(map(tuple, doc["degrees"]["1"]["pairs"]))) == 1
    prov["death_cells"][1:] = [[0, 1, 2, 3]] * 2
    dump_in_layout(path, doc)
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 0, r.stderr
    prov["death_cells"][:] = [[0, 1, 2, 3]] + prov["death_cells"][:1] * 2
    dump_in_layout(path, doc)
    r = run("invert", "tetra.diagram.json", "--degree", "1", "--nearest",
            "0.5", "0.58", cwd=tetra_dir)
    assert r.returncode == 3 and "MissingProvenance" in r.stderr
