"""SVG heatmap rendering."""

import time
import xml.etree.ElementTree as ET

import numpy as np

from phkit import PersistenceDiagram, histogram, histogram_svg
from phkit.analysis import DiagramHistogram
from phkit.svgplot import _SIZE, _X0, _Y0, _color, _fmt, _scale_counts


def sample_hist(**kwargs):
    pd = PersistenceDiagram.from_pairs(
        1, [(0.1, 0.4), (0.1, 0.45), (0.6, 0.9), (0.2, 1.5)], [0.3])
    return histogram(pd, (0.0, 1.0), 8, **kwargs)


def test_valid_xml_with_expected_parts():
    svg = histogram_svg(sample_hist())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # background, frame, legend plus one rect per nonzero bin
    assert len(rects) >= 5
    text = svg
    assert "birth" in text and "death" in text
    assert "outside range: 1" in text  # the (0.2, 1.5) pair leaves the window
    assert "essential: 1" in text


def test_deterministic():
    assert histogram_svg(sample_hist()) == histogram_svg(sample_hist())


def test_log_mode_differs():
    h = sample_hist()
    assert histogram_svg(h) != histogram_svg(h, log=True)
    assert "log" in histogram_svg(h, log=True)


def test_empty_histogram_renders():
    pd = PersistenceDiagram.from_pairs(0, [], [])
    svg = histogram_svg(histogram(pd, (0.0, 1.0), 4))
    ET.fromstring(svg)


def test_no_nan_coordinates():
    svg = histogram_svg(sample_hist())
    assert "nan" not in svg.lower() or "NDBITMAP" in svg
    for token in svg.replace('"', " ").split():
        assert token != "nan"


def test_counts_drive_shading():
    pd = PersistenceDiagram.from_pairs(1, [(0.1, 0.9)] * 50 + [(0.4, 0.6)],
                                       [])
    h = histogram(pd, (0.0, 1.0), 4)
    svg = histogram_svg(h)
    assert "#08306b" in svg  # the 50-count bin gets the darkest shade
    assert np.int64(h.counts.max()) == 50


def reference_bin_rects(hist, log):
    """The bin rects as a scan of every bin renders them, skipping zeros."""
    if not hist.counts.any():
        return []
    cell = _SIZE / hist.bins
    shade = _scale_counts(hist.counts, log)
    rects = []
    for bi in range(hist.bins):
        for di in range(hist.bins):
            if hist.counts[bi, di] == 0:
                continue
            x = _X0 + bi * cell
            y = _Y0 + _SIZE - (di + 1) * cell
            rects.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell)}" '
                f'height="{_fmt(cell)}" fill="{_color(shade[bi, di])}"/>')
    return rects


def test_bin_rects_match_full_scan():
    rng = np.random.default_rng(22)
    for k in range(120):
        bins = int(rng.integers(1, 30))
        counts = rng.integers(0, 9, (bins, bins))
        counts[rng.random((bins, bins)) < rng.random()] = 0
        hist = DiagramHistogram(lo=0.0, hi=1.0, bins=bins, counts=counts,
                                overflow=0, essential=k % 2)
        for log in (False, True):
            lines = histogram_svg(hist, log=log).split("\n")
            want = reference_bin_rects(hist, log)
            # three header lines, the bin rects, then the diagonal
            assert lines[3:3 + len(want)] == want
            assert lines[3 + len(want)].startswith("<line ")


def test_fine_grid_draws_only_its_filled_bins():
    pd = PersistenceDiagram.from_pairs(1, [(0.1, 0.5), (0.2, 0.9)])
    hist = histogram(pd, (0.0, 1.0), 4096)
    t0 = time.perf_counter()
    svg = histogram_svg(hist)
    elapsed = time.perf_counter() - t0
    # background, frame and legend, plus one rect per nonzero bin; the
    # bound allows for a loaded host, not for a scan of all 4096^2 bins
    assert svg.count("<rect") == 3 + np.count_nonzero(hist.counts) == 5
    assert elapsed < 1.0
