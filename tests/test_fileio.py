"""File readers and the diagram JSON format."""

import json

import numpy as np
import pytest

from phkit import (Bitmap, alpha_filtration, compute_persistence,
                   cubical_filtration, read_bitmap, read_diagram_file,
                   read_distance_matrix, read_point_cloud, write_diagram_file,
                   PointCloud)
from phkit.errors import ParseError


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


def tetra_cloud(a=1.0):
    pts = np.array([
        [0, 0, 0],
        [a, 0, 0],
        [a / 2, a * np.sqrt(3) / 2, 0],
        [a / 2, a * np.sqrt(3) / 6, a * np.sqrt(2.0 / 3.0)],
    ])
    return PointCloud(pts)


def test_diagram_roundtrip_bit_exact(tmp_path):
    _, diagrams = compute_persistence(alpha_filtration(tetra_cloud()))
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
    _, diagrams = compute_persistence(alpha_filtration(tetra_cloud()))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        write_diagram_file(out, diagrams, kind="pointcloud", squared=True,
                           input_path="tetra.txt")
    assert a.read_bytes() == b.read_bytes()


def test_diagram_essential_preserved(tmp_path):
    _, diagrams = compute_persistence(alpha_filtration(tetra_cloud()))
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
], ids=["array", "degrees-array", "pairs-null", "metadata-array",
        "degree-array", "short-pair"])
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
