"""Text and binary readers, plus the diagram file format.

Diagram files are single JSON documents with a version field, per-degree
finite pairs and essential births, optional cell provenance, and the
metadata needed to redo the computation (input path, kind, parameters).
Floats survive a write/read round trip bit-exactly via repr formatting.
Each reader imports its input class when called (alpha and cubical load
scipy), so reading a diagram file loads no builder module.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .persistence import PersistenceDiagram

DIAGRAM_FORMAT = "phkit-diagram"
DIAGRAM_VERSION = 1


def _tokenized_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            yield lineno, body.split()


def read_point_cloud(path, weighted: bool = False) -> PointCloud:
    """Whitespace-separated coordinates, one point per line.

    '#' starts a comment, blank lines are skipped; with weighted=True the
    last column is the point's weight.
    """
    from .alpha import PointCloud

    rows = []
    weights = []
    width = None
    for lineno, tokens in _tokenized_lines(path):
        try:
            vals = [float(t) for t in tokens]
        except ValueError:
            bad = next(t for t in tokens if not _is_float(t))
            raise ParseError(lineno, f"bad number {bad!r}") from None
        if width is None:
            width = len(vals)
            min_cols = 3 if weighted else 2
            if not min_cols <= width <= min_cols + 1:
                raise ParseError(lineno,
                                 f"expected {min_cols} or {min_cols + 1} "
                                 f"columns, found {width}")
        elif len(vals) != width:
            raise ParseError(lineno,
                             f"expected {width} columns, found {len(vals)}")
        if weighted:
            rows.append(vals[:-1])
            weights.append(vals[-1])
        else:
            rows.append(vals)
    if not rows:
        raise ParseError(0, "no points in file")
    pts = np.array(rows)
    try:
        return PointCloud(pts, np.array(weights) if weighted else None)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_distance_matrix(path) -> DistanceMatrix:
    """CSV matrix, n rows by n columns of decimal floats."""
    from .combinatorial import DistanceMatrix

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = raw.strip()
            if not body:
                continue
            cells = [c.strip() for c in body.split(",")]
            vals = []
            for c in cells:
                if not _is_float(c):
                    raise ParseError(lineno, f"bad number {c!r}")
                vals.append(float(c))
            rows.append((lineno, vals))
    if not rows:
        raise ParseError(0, "empty matrix file")
    n = len(rows[0][1])
    for lineno, vals in rows:
        if len(vals) != n:
            raise ParseError(lineno,
                             f"expected {n} columns, found {len(vals)}")
    if len(rows) != n:
        raise ParseError(rows[-1][0],
                         f"expected {n} rows, found {len(rows)}")
    try:
        return DistanceMatrix(np.array([vals for _, vals in rows]))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def _read_pgm(data: bytes, path) -> np.ndarray:
    # header tokens may be separated by whitespace and '#' comments
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                break
            continue
        if ch.isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    if len(tokens) < 4:
        raise ParseError(1, "truncated PGM header")
    magic = tokens[0].decode("ascii", "replace")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ParseError(1, "bad PGM header") from None
    if width <= 0 or height <= 0 or maxval <= 0:
        raise ParseError(1, "bad PGM dimensions")
    count = width * height
    if magic == "P2":
        body = data[pos:].split()
        if len(body) != count:
            raise ParseError(1, f"expected {count} pixels, "
                             f"found {len(body)}")
        try:
            vals = np.array([int(t) for t in body], dtype=np.float64)
        except ValueError:
            raise ParseError(1, "bad pixel value") from None
    else:
        pos += 1  # single whitespace after maxval
        wide = maxval > 255
        need = count * (2 if wide else 1)
        raw = data[pos:pos + need]
        if len(raw) != need:
            raise ParseError(1, f"expected {need} pixel bytes, "
                             f"found {len(raw)}")
        dtype = ">u2" if wide else np.uint8
        vals = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    return vals.reshape(height, width)


def _read_ndbitmap(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "NDBITMAP v1":
        raise ParseError(1, "missing NDBITMAP v1 magic")
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
            if ln.strip() and i > 0]
    if len(body) < 2:
        raise ParseError(len(lines), "truncated bitmap")
    try:
        rank = int(body[0][1])
    except ValueError:
        raise ParseError(body[0][0], "bad rank") from None
    ext_line, ext_text = body[1]
    try:
        extents = [int(t) for t in ext_text.split()]
    except ValueError:
        raise ParseError(ext_line, "bad extents") from None
    if len(extents) != rank or any(e <= 0 for e in extents):
        raise ParseError(ext_line, f"expected {rank} positive extents")
    tokens = []
    for lineno, text in body[2:]:
        for t in text.split():
            if not _is_float(t):
                raise ParseError(lineno, f"bad number {t!r}")
            tokens.append(float(t))
    count = int(np.prod(extents))
    if len(tokens) != count:
        raise ParseError(len(lines),
                         f"expected {count} values, found {len(tokens)}")
    return np.array(tokens).reshape(extents)


def read_bitmap(path) -> Bitmap:
    """PGM (P2/P5) or NDBITMAP v1, chosen by the file's magic."""
    from .cubical import Bitmap

    with open(path, "rb") as fh:
        head = fh.read(2)
    if head in (b"P2", b"P5"):
        with open(path, "rb") as fh:
            return Bitmap(_read_pgm(fh.read(), path))
    return Bitmap(_read_ndbitmap(path))


def _item_template(shape, indent: int) -> str:
    """%-template of one array item of this shape, json's indent=1 layout.

    indent is the indentation of the line the item's opening bracket is on.
    """
    if not shape:
        return "%s"
    inner = ",\n" + " " * (indent + 1)
    item = _item_template(shape[1:], indent + 1)
    return ("[\n" + " " * (indent + 1) + inner.join([item] * shape[0])
            + "\n" + " " * indent + "]")


def _json_array(a: np.ndarray, indent: int) -> str:
    """a as json.dumps(a.tolist(), indent=1), its first line at indent.

    Ints and finite floats print as their repr, like json's; NaN and the
    infinities get json's own spelling.
    """
    if not len(a):
        return "[]"
    values = a.ravel().tolist()
    if not np.isfinite(a).all():
        values = [v if math.isfinite(v) else json.dumps(v) for v in values]
    row = _item_template(a.shape[1:], indent + 1)
    rows = zip(*[iter(values)] * (a.size // len(a)))
    inner = " " * (indent + 1)
    return ("[\n" + inner + (",\n" + inner).join([row % r for r in rows])
            + "\n" + " " * indent + "]")


def _cells(f, d, positions) -> np.ndarray:
    """Vertex ids of simplices, (anchor, extent) of cubes, one per row."""
    if not len(positions):  # the top degree has no table for its deaths
        return np.empty(0, dtype=np.int64)
    rows = f.identity_rows(d, positions)
    if f.kind == "cubical":
        rows = rows.reshape(len(rows), 2, -1)
    return rows


def write_diagram_file(path, diagrams, *, kind, squared, input_path,
                       params=None, with_provenance=True):
    """Serialize diagrams (optionally with birth/death cells) as JSON.

    The bytes are those of json.dump(doc, fh, indent=1) plus a newline:
    the header and the degree keys go through json.dumps, and the arrays
    are formatted in json's indent=1 layout by _json_array, one section
    at a time.
    """
    by_degree = {}
    for pd in diagrams:
        pd.sort()
        by_degree[str(pd.degree)] = pd
    header = json.dumps({
        "format": DIAGRAM_FORMAT,
        "version": DIAGRAM_VERSION,
        "metadata": {
            "kind": kind,
            "squared": bool(squared),
            "input": str(input_path),
            "params": params or {},
        },
    }, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        # the header less its closing "\n}", then the degrees object
        fh.write(header[:-2] + ',\n "degrees": {')
        for n, (key, pd) in enumerate(by_degree.items()):
            finite = pd.finite_mask
            births = pd.births.astype(np.float64)
            deaths = pd.deaths.astype(np.float64)
            fh.write(("," if n else "") + "\n  " + json.dumps(key) + ": {")
            fh.write('\n   "pairs": ' + _json_array(
                np.column_stack((births[finite], deaths[finite])), 3))
            fh.write(',\n   "essential": ' + _json_array(births[~finite], 3))
            f = pd.filtration
            if (with_provenance and pd.birth_index is not None
                    and f is not None):
                d = pd.degree
                fh.write(',\n   "provenance": {\n    "birth_cells": '
                         + _json_array(_cells(f, d, pd.birth_index[finite]),
                                       4))
                fh.write(',\n    "death_cells": '
                         + _json_array(_cells(f, d + 1,
                                              pd.death_index[finite]), 4))
                fh.write(',\n    "essential_cells": '
                         + _json_array(_cells(f, d, pd.birth_index[~finite]),
                                       4))
                fh.write("\n   }")
            fh.write("\n  }")
        fh.write("\n }\n}\n" if by_degree else "}\n}\n")


class DiagramFile:
    """Parsed diagram document: diagrams plus computation metadata."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or doc.get("format") != DIAGRAM_FORMAT:
            raise ParseError(0, "not a diagram file")
        if doc.get("version") != DIAGRAM_VERSION:
            raise ParseError(0, f"unsupported version {doc.get('version')!r}")
        self.metadata = doc.get("metadata", {})
        if not isinstance(self.metadata, dict):
            raise ParseError(0, "metadata must be a JSON object")
        self.degrees = {}
        self.provenance = {}
        try:
            for key, entry in doc.get("degrees", {}).items():
                degree = int(key)
                self.degrees[degree] = PersistenceDiagram.from_pairs(
                    degree, entry.get("pairs", []), entry.get("essential", []))
                if "provenance" in entry:
                    self.provenance[degree] = entry["provenance"]
        except (AttributeError, TypeError, ValueError):
            raise ParseError(0, "degrees must map each degree to its "
                             "pairs and essential births") from None

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=-1)

    def diagram(self, degree: int) -> PersistenceDiagram:
        if degree in self.degrees:
            return self.degrees[degree]
        return PersistenceDiagram.from_pairs(degree, [], [])


def read_diagram_file(path) -> DiagramFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, exc.msg) from None
    return DiagramFile(doc)
