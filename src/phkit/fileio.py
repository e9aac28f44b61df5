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
import re
from dataclasses import replace

import numpy as np

from .errors import ParseError
from .persistence import PersistenceDiagram

DIAGRAM_FORMAT = "phkit-diagram"
DIAGRAM_VERSION = 1


def _number_rows(lines, sep=None):
    """(line number, floats) of each non-blank line, split at sep.

    Raises ParseError at the first token float() rejects.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = []
        for token in line.split(sep):
            try:
                row.append(float(token))
            except ValueError:
                raise ParseError(lineno,
                                 f"bad number {token.strip()!r}") from None
        yield lineno, row


def _check_width(lineno, row, width):
    if len(row) != width:
        raise ParseError(lineno, f"expected {width} columns, found {len(row)}")


def read_point_cloud(path, weighted: bool = False) -> PointCloud:
    """Whitespace-separated coordinates, one point per line.

    '#' starts a comment, blank lines are skipped; with weighted=True the
    last column is the point's weight.
    """
    from .alpha import PointCloud

    min_cols = 3 if weighted else 2
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        # widths are checked as lines are read: a ragged line is reported
        # before a bad number further down
        for lineno, row in _number_rows(ln.split("#", 1)[0] for ln in fh):
            if rows:
                _check_width(lineno, row, len(rows[0]))
            elif not min_cols <= len(row) <= min_cols + 1:
                raise ParseError(lineno,
                                 f"expected {min_cols} or {min_cols + 1} "
                                 f"columns, found {len(row)}")
            rows.append(row)
    if not rows:
        raise ParseError(0, "no points in file")
    pts = np.array(rows)
    try:
        if weighted:
            return PointCloud(pts[:, :-1], pts[:, -1])
        return PointCloud(pts)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def read_distance_matrix(path) -> DistanceMatrix:
    """CSV matrix, n rows by n columns of decimal floats."""
    from .combinatorial import DistanceMatrix

    # every row is parsed before any width is checked: a bad number is
    # reported before a jagged row above it
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(_number_rows(fh, ","))
    if not rows:
        raise ParseError(0, "empty matrix file")
    n = len(rows[0][1])
    for lineno, row in rows:
        _check_width(lineno, row, n)
    if len(rows) != n:
        raise ParseError(rows[-1][0],
                         f"expected {n} rows, found {len(rows)}")
    try:
        return DistanceMatrix(np.array([row for _, row in rows]))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


# four header tokens, each after whitespace and '#' comments that end in a
# newline; a token starts with no '#' and runs to whitespace, so a match
# can neither split a token nor read an unterminated comment as one
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)(?!\S)" * 4)


def _read_pgm(data: bytes) -> np.ndarray:
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(1, "truncated PGM header")
    magic, *sizes = header.groups()
    pos = header.end()
    try:
        width, height, maxval = map(int, sizes)
    except ValueError:
        raise ParseError(1, "bad PGM header") from None
    if width <= 0 or height <= 0 or maxval <= 0:
        raise ParseError(1, "bad PGM dimensions")
    count = width * height
    if magic == b"P2":
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


def _read_ndbitmap(lines) -> np.ndarray:
    if not lines or lines[0].strip() != "NDBITMAP v1":
        raise ParseError(1, "missing NDBITMAP v1 magic")
    # the rank and extents lines are the first two non-blank after the magic
    head = [i for i in range(1, len(lines)) if lines[i].strip()][:2]
    if len(head) < 2:
        raise ParseError(len(lines), "truncated bitmap")
    rank_at, ext_at = head
    try:
        rank = int(lines[rank_at])
    except ValueError:
        raise ParseError(rank_at + 1, "bad rank") from None
    try:
        extents = [int(t) for t in lines[ext_at].split()]
    except ValueError:
        raise ParseError(ext_at + 1, "bad extents") from None
    if len(extents) != rank or any(e <= 0 for e in extents):
        raise ParseError(ext_at + 1, f"expected {rank} positive extents")
    # the header lines are blanked so that the values keep their line numbers
    values = [v for _, row in _number_rows(
        [""] * (ext_at + 1) + lines[ext_at + 1:]) for v in row]
    count = int(np.prod(extents))
    if len(values) != count:
        raise ParseError(len(lines),
                         f"expected {count} values, found {len(values)}")
    return np.array(values).reshape(extents)


def read_bitmap(path) -> Bitmap:
    """PGM (P2/P5) or NDBITMAP v1, chosen by the file's magic."""
    from .cubical import Bitmap

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] in (b"P2", b"P5"):
        return Bitmap(_read_pgm(data))
    return Bitmap(_read_ndbitmap(data.decode("utf-8").splitlines()))


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
                       params=None):
    """Serialize diagrams as JSON, with birth/death cells when they are known.

    The bytes are those of json.dump(doc, fh, indent=1) plus a newline:
    the header and the degree keys go through json.dumps, and the arrays
    are formatted in json's indent=1 layout by _json_array, one section
    at a time.
    """
    by_degree = {}
    for pd in diagrams:
        pd = replace(pd)  # sort a copy: the caller's diagram keeps its order
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
            if pd.birth_index is not None and f is not None:
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
