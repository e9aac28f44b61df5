"""File readers and the diagram JSON format."""

import json
import math

import numpy as np
import pytest

from phkit import (Bitmap, DistanceMatrix, PersistenceDiagram,
                   alpha_filtration, compute_persistence, cubical_filtration,
                   make_filtration, read_bitmap, read_diagram_file,
                   read_distance_matrix, read_point_cloud, rips_filtration,
                   weighted_alpha_filtration, write_diagram_file, PointCloud)
from phkit.errors import ParseError

from conftest import regular_tetrahedron


def test_point_cloud_plain(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("# a comment\n"
                 "0 0 0\n"
                 "\n"
                 "1.5 0 0  # trailing comment\n"
                 "0 2 1e-1\n")
    cloud = read_point_cloud(p)
    assert cloud.points.shape == (3, 3)
    assert cloud.points[1, 0] == 1.5
    assert cloud.points[2, 2] == 0.1
    assert cloud.weights is None


def test_point_cloud_2d(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("0 0\n3 4\n")
    cloud = read_point_cloud(p)
    assert cloud.points.shape == (2, 2)


def test_point_cloud_weighted(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("0 0 0 0.5\n1 0 0 0.25\n")
    cloud = read_point_cloud(p, weighted=True)
    assert cloud.points.shape == (2, 3)
    assert cloud.weights.tolist() == [0.5, 0.25]


def test_point_cloud_bad_number(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("0 0 0\n1.0 x 2.0\n")
    with pytest.raises(ParseError) as exc:
        read_point_cloud(p)
    assert exc.value.line == 2


def test_point_cloud_ragged(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("# leading\n0 0 0\n1 2\n")
    with pytest.raises(ParseError) as exc:
        read_point_cloud(p)
    assert exc.value.line == 3


def test_point_cloud_empty(tmp_path):
    p = tmp_path / "cloud.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        read_point_cloud(p)


def test_distance_matrix_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    d = read_distance_matrix(p)
    assert d.d.shape == (3, 3)
    assert d.d[0, 2] == 2.0


def test_distance_matrix_jagged(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\n1,0,2\n")
    with pytest.raises(ParseError) as exc:
        read_distance_matrix(p)
    assert exc.value.line == 2


def test_distance_matrix_asymmetric(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\n2,0\n")
    with pytest.raises(ParseError):
        read_distance_matrix(p)


def test_pgm_ascii(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_text("P2\n# comment line\n3 2\n255\n"
                 "0 10 20\n30 40 50\n")
    bmp = read_bitmap(p)
    assert bmp.values.shape == (2, 3)
    assert bmp.values[0, 1] == 10
    assert bmp.values[1, 2] == 50


def test_pgm_binary_u8(tmp_path):
    p = tmp_path / "img.pgm"
    pixels = bytes([0, 10, 20, 30, 40, 50])
    p.write_bytes(b"P5\n3 2\n255\n" + pixels)
    bmp = read_bitmap(p)
    assert bmp.values.shape == (2, 3)
    assert bmp.values[1, 0] == 30


def test_pgm_binary_u16(tmp_path):
    p = tmp_path / "img.pgm"
    vals = np.array([[300, 5], [65535, 0]], dtype=">u2")
    p.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
    bmp = read_bitmap(p)
    assert bmp.values[0, 0] == 300
    assert bmp.values[1, 0] == 65535


def test_pgm_truncated(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n3 2\n255\n\x00\x01")
    with pytest.raises(ParseError):
        read_bitmap(p)


def test_ndbitmap_3d(tmp_path):
    p = tmp_path / "vol.txt"
    values = np.arange(24.0).reshape(2, 3, 4)
    lines = ["NDBITMAP v1", "3", "2 3 4"]
    for plane in values:
        for row in plane:
            lines.append(" ".join(str(v) for v in row))
    p.write_text("\n".join(lines) + "\n")
    bmp = read_bitmap(p)
    assert bmp.values.shape == (2, 3, 4)
    assert bmp.values[1, 2, 3] == 23.0


def test_ndbitmap_wrong_count(tmp_path):
    p = tmp_path / "vol.txt"
    p.write_text("NDBITMAP v1\n2\n2 2\n1 2 3\n")
    with pytest.raises(ParseError):
        read_bitmap(p)


def test_unknown_magic(tmp_path):
    p = tmp_path / "vol.txt"
    p.write_text("GIBBERISH\n")
    with pytest.raises(ParseError) as exc:
        read_bitmap(p)
    assert exc.value.line == 1


# case -> (reader, file bytes, line and message of its ParseError); each
# case pins one check, and the "order" cases which of two faults comes first
READER_ERRORS = {
    "cloud-column-count": (read_point_cloud, b"0 0 0 0 0\n1 1 1 1 1\n",
                           1, "expected 2 or 3 columns, found 5"),
    "cloud-weighted-column-count": (
        lambda p: read_point_cloud(p, weighted=True), b"0 0\n",
        1, "expected 3 or 4 columns, found 2"),
    "cloud-non-finite": (read_point_cloud, b"0 0 0\n1 inf 0\n",
                         0, "points must be finite"),
    "cloud-order-ragged-first": (read_point_cloud, b"0 0 0\n1 2\n1 x 2\n",
                                 2, "expected 3 columns, found 2"),
    "csv-bad-number": (read_distance_matrix, b"0, 1\n1 , x \n",
                       2, "bad number 'x'"),
    "csv-empty": (read_distance_matrix, b"\n  \n", 0, "empty matrix file"),
    "csv-row-count": (read_distance_matrix, b"0,1,2\n1,0,1\n\n",
                      2, "expected 3 rows, found 2"),
    "csv-order-bad-number-first": (read_distance_matrix,
                                   b"0,1\n1,0,2\n1,x\n",
                                   3, "bad number 'x'"),
    "pgm-truncated-header": (read_bitmap, b"P2\n3 2\n",
                             1, "truncated PGM header"),
    "pgm-comment-to-end": (read_bitmap, b"P2 3 2 # 255 0 0 0\r",
                           1, "truncated PGM header"),
    "pgm-bad-header": (read_bitmap, b"P2\n3 x\n255\n", 1, "bad PGM header"),
    "pgm-non-positive-size": (read_bitmap, b"P5\n0 2\n255\n",
                              1, "bad PGM dimensions"),
    "pgm-pixel-count": (read_bitmap, b"P2\n2 2\n255\n1 2 3\n",
                        1, "expected 4 pixels, found 3"),
    "pgm-bad-pixel": (read_bitmap, b"P2\n2 1\n255\n1 x\n",
                      1, "bad pixel value"),
    "ndbitmap-truncated": (read_bitmap, b"NDBITMAP v1\n\n2\n",
                           3, "truncated bitmap"),
    "ndbitmap-bad-rank": (read_bitmap, b"NDBITMAP v1\nx\n2 2\n",
                          2, "bad rank"),
    "ndbitmap-bad-extents": (read_bitmap, b"NDBITMAP v1\n2\n2 y\n",
                             3, "bad extents"),
    "ndbitmap-extent-count": (read_bitmap, b"NDBITMAP v1\n2\n\n2\n1 2\n",
                              4, "expected 2 positive extents"),
    "ndbitmap-bad-number": (read_bitmap, b"NDBITMAP v1\n1\n3\n1 2\n\nz\n",
                            6, "bad number 'z'"),
    "ndbitmap-value-count": (read_bitmap, b"NDBITMAP v1\n1\n3\n1 2\n\n",
                             5, "expected 3 values, found 2"),
}


@pytest.mark.parametrize("case", list(READER_ERRORS))
def test_reader_error_line_and_message(tmp_path, case):
    reader, data, line, message = READER_ERRORS[case]
    p = tmp_path / "input"
    p.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        reader(p)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_diagram_roundtrip_bit_exact(tmp_path):
    _, diagrams = compute_persistence(alpha_filtration(PointCloud(regular_tetrahedron())))
    out = tmp_path / "t.diagram.json"
    write_diagram_file(out, diagrams, kind="pointcloud", squared=True,
                       input_path="tetra.txt")
    df = read_diagram_file(out)
    assert df.max_degree == 3
    for pd in diagrams:
        loaded = df.diagram(pd.degree)
        assert loaded.pairs == pd.pairs
    assert df.metadata["kind"] == "pointcloud"
    assert df.metadata["squared"] is True
    prov = df.provenance[1]
    assert len(prov["birth_cells"]) == len(df.diagram(1).finite_pairs)
    # every recorded birth cell of degree 1 is an edge
    assert all(len(c) == 2 for c in prov["birth_cells"])
    assert all(len(c) == 3 for c in prov["death_cells"])


def test_diagram_write_deterministic(tmp_path):
    _, diagrams = compute_persistence(alpha_filtration(PointCloud(regular_tetrahedron())))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        write_diagram_file(out, diagrams, kind="pointcloud", squared=True,
                           input_path="tetra.txt")
    assert a.read_bytes() == b.read_bytes()


def test_writer_keeps_the_callers_order(tmp_path):
    births = np.array([0.5, 0.1, 0.3, 0.1])
    deaths = np.array([0.9, np.inf, 0.4, 0.2])
    pd = PersistenceDiagram(1, births.copy(), deaths.copy())
    write_diagram_file(tmp_path / "t.json", [pd], kind="pointcloud",
                       squared=True, input_path="x.txt")
    assert np.array_equal(pd.births, births)
    assert np.array_equal(pd.deaths, deaths)
    df = read_diagram_file(tmp_path / "t.json")
    assert df.diagram(1).pairs == [(0.1, 0.2), (0.1, math.inf), (0.3, 0.4),
                                   (0.5, 0.9)]


def test_diagram_essential_preserved(tmp_path):
    _, diagrams = compute_persistence(alpha_filtration(PointCloud(regular_tetrahedron())))
    out = tmp_path / "t.json"
    write_diagram_file(out, diagrams, kind="pointcloud", squared=True,
                       input_path="tetra.txt")
    df = read_diagram_file(out)
    assert df.diagram(0).essential_births == [0.0]
    assert df.diagram(1).essential_births == []


def test_diagram_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"format": "phkit-diagram",\n  "version": oops\n}')
    with pytest.raises(ParseError) as exc:
        read_diagram_file(p)
    assert exc.value.line == 2


def test_diagram_wrong_format(tmp_path):
    p = tmp_path / "other.json"
    p.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ParseError):
        read_diagram_file(p)


def test_diagram_missing_degree_is_empty(tmp_path):
    p = tmp_path / "sparse.json"
    p.write_text(json.dumps({
        "format": "phkit-diagram", "version": 1,
        "degrees": {"0": {"pairs": [[0.0, 1.0]], "essential": [0.0]},
                    "2": {"pairs": [], "essential": []}},
    }))
    df = read_diagram_file(p)
    assert df.max_degree == 2
    assert len(df.diagram(1)) == 0


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"format": "phkit-diagram", "version": 1, "degrees": []},
    {"format": "phkit-diagram", "version": 1,
     "degrees": {"0": {"pairs": None, "essential": []}}},
    {"format": "phkit-diagram", "version": 1, "metadata": [],
     "degrees": {}},
    {"format": "phkit-diagram", "version": 1,
     "degrees": {"0": [[0.0, 1.0]]}},
    {"format": "phkit-diagram", "version": 1,
     "degrees": {"0": {"pairs": [[0.0]]}}},
    {"format": "phkit-diagram", "version": 2, "degrees": {}},
], ids=["array", "degrees-array", "pairs-null", "metadata-array",
        "degree-array", "short-pair", "version-2"])
def test_diagram_malformed_document(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_diagram_file(p)


def test_provenance_matches_cell_objects(tmp_path):
    # the writer reads identity rows; they must name the same cells as the
    # Simplex/Cube objects of PersistenceDiagram.provenance
    rng = np.random.default_rng(3)
    for kind, f in [
            ("pointcloud", alpha_filtration(PointCloud(rng.random((30, 3))))),
            ("bitmap", cubical_filtration(Bitmap(rng.random((5, 4, 3)))))]:
        _, diagrams = compute_persistence(f)
        out = tmp_path / f"{kind}.json"
        write_diagram_file(out, diagrams, kind=kind, squared=True,
                           input_path="x")
        df = read_diagram_file(out)
        for pd in diagrams:
            finite = np.flatnonzero(pd.finite_mask)
            cells = [pd.provenance(int(i)) for i in finite]
            ess = [pd.provenance(int(i))[0]
                   for i in np.flatnonzero(~pd.finite_mask)]
            as_list = (list if kind == "pointcloud" else
                       lambda c: [list(c.anchor), list(c.extent)])
            prov = df.provenance[pd.degree]
            assert prov["birth_cells"] == [as_list(b) for b, _ in cells]
            assert prov["death_cells"] == [as_list(d) for _, d in cells]
            assert prov["essential_cells"] == [as_list(b) for b in ess]


def json_dump_reference(path, diagrams, *, kind, squared, input_path,
                        params=None):
    """The diagram file as a json.dump(doc, indent=1) of nested lists."""
    def cells(f, d, positions):
        if not len(positions):
            return []
        rows = f.identity_rows(d, positions)
        if f.kind == "cubical":
            rows = rows.reshape(len(rows), 2, -1)
        return rows.tolist()

    degrees = {}
    for pd in diagrams:
        pd.sort()
        finite = pd.finite_mask
        entry = {
            "pairs": [[float(b), float(d)] for b, d
                      in zip(pd.births[finite], pd.deaths[finite])],
            "essential": [float(b) for b in pd.births[~finite]],
        }
        f = pd.filtration
        if pd.birth_index is not None and f is not None:
            entry["provenance"] = {
                "birth_cells": cells(f, pd.degree, pd.birth_index[finite]),
                "death_cells": cells(f, pd.degree + 1,
                                     pd.death_index[finite]),
                "essential_cells": cells(f, pd.degree,
                                         pd.birth_index[~finite]),
            }
        degrees[str(pd.degree)] = entry
    doc = {
        "format": "phkit-diagram",
        "version": 1,
        "metadata": {"kind": kind, "squared": bool(squared),
                     "input": str(input_path), "params": params or {}},
        "degrees": degrees,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _diagrams(f):
    return compute_persistence(f)[1]


def _unsquared(diagrams):
    return [pd.scaled(np.sqrt) for pd in diagrams]


def _big_vertex_ids():
    # vertex ids past 2**31, -0.0 and a subnormal as filtration values
    a, b, c = 2**31, 2**31 + 1, 2**40
    return make_filtration([((a,), -0.0), ((b,), 5e-324), ((c,), 0.0),
                            ((a, b), 1.0), ((a, c), 1.0), ((b, c), 2.0),
                            ((a, b, c), 3.0)])


def _odd_values():
    # -0.0, subnormals, NaN and an essential birth of -inf, no filtration
    nan, inf = math.nan, math.inf
    return [PersistenceDiagram.from_pairs(0, [(-0.0, 5e-324), (nan, 1.0),
                                              (-5e-324, 2.5e-308)],
                                          [-inf, -0.0]),
            PersistenceDiagram.from_pairs(1, [], []),
            PersistenceDiagram.from_pairs(2, [], [1e300]),
            PersistenceDiagram(3, np.array([nan, 0.5]),
                               np.array([nan, -inf]))]


def _hidden_point():
    f = weighted_alpha_filtration(
        np.array([[0.0, 0], [0.1, 0], [3.0, 0], [0.0, 3.0], [-3.0, -3.0]]),
        np.array([4.0, 0.0, 0.0, 0.0, 0.0]))
    assert f.info["hidden_points"] == [1]
    return f


def _cloud(n, dim):
    return PointCloud(np.random.default_rng(11).random((n, dim)))


def _volume(*shape):
    return Bitmap(np.random.default_rng(11).random(shape))


# name -> (diagrams, writer options); built when the case runs
WRITER_CASES = {
    "alpha-2d-squared": lambda: (
        _diagrams(alpha_filtration(_cloud(40, 2))), {"squared": True}),
    "alpha-2d": lambda: (
        _unsquared(_diagrams(alpha_filtration(_cloud(40, 2)))), {}),
    "alpha-3d-squared": lambda: (
        _diagrams(alpha_filtration(_cloud(40, 3))), {"squared": True}),
    "alpha-3d": lambda: (
        _unsquared(_diagrams(alpha_filtration(_cloud(40, 3)))), {}),
    "alpha-3d-no-provenance": lambda: (
        [PersistenceDiagram(pd.degree, pd.births, pd.deaths)
         for pd in _diagrams(alpha_filtration(_cloud(40, 3)))], {}),
    "weighted-hidden": lambda: (
        _diagrams(_hidden_point()), {"kind": "pointcloud-weighted"}),
    "weighted-3d": lambda: (
        _diagrams(weighted_alpha_filtration(
            _cloud(30, 3).points, np.linspace(0.0, 0.01, 30))),
        {"kind": "pointcloud-weighted"}),
    # degree 2 is the top degree: essential births only, no death cells
    "rips": lambda: (
        _diagrams(rips_filtration(
            DistanceMatrix.from_points(_cloud(15, 2).points), 2, 0.6)),
        {"kind": "distance-matrix",
         "params": {"maxdim": 2, "max_value": 0.6}}),
    "cubical-1d": lambda: (
        _diagrams(cubical_filtration(_volume(9))), {"kind": "bitmap"}),
    "cubical-2d": lambda: (
        _diagrams(cubical_filtration(_volume(6, 5))), {"kind": "bitmap"}),
    "cubical-3d": lambda: (
        _diagrams(cubical_filtration(_volume(4, 3, 3))), {"kind": "bitmap"}),
    "cubical-4d": lambda: (
        _diagrams(cubical_filtration(_volume(3, 3, 2, 2))),
        {"kind": "bitmap"}),
    "big-vertex-ids": lambda: (_diagrams(_big_vertex_ids()), {}),
    "from-pairs": lambda: (
        [PersistenceDiagram.from_pairs(1, [(0.25, 0.5), (0.125, 1.0)],
                                       [0.0])], {}),
    "odd-values": lambda: (
        _odd_values(), {"input_path": "données/nuage-é.txt"}),
    "no-degrees": lambda: ([], {"params": {"maxdim": None}}),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writer_bytes_equal_json_dump(tmp_path, case):
    diagrams, options = WRITER_CASES[case]()
    kw = {"kind": "pointcloud", "squared": False, "input_path": "in.txt",
          **options}
    write_diagram_file(tmp_path / "new.json", diagrams, **kw)
    json_dump_reference(tmp_path / "ref.json", diagrams, **kw)
    assert ((tmp_path / "new.json").read_bytes()
            == (tmp_path / "ref.json").read_bytes())
