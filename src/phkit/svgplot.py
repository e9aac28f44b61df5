"""Deterministic SVG rendering of diagram histograms.

Pure string assembly: fixed layout, fixed number formatting, no randomness,
so identical histograms always produce identical bytes.
"""

from __future__ import annotations

import numpy as np

_LIGHT = (238, 243, 251)
_DARK = (8, 48, 107)

_X0, _Y0, _SIZE = 70.0, 30.0, 440.0
_LEGEND_X, _LEGEND_W = _X0 + _SIZE + 34.0, 18.0
_WIDTH, _HEIGHT = 640, 560


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _color(t: float) -> str:
    r, g, b = (round(a + t * (b_ - a)) for a, b_ in zip(_LIGHT, _DARK))
    return f"#{r:02x}{g:02x}{b:02x}"


def _scale_counts(counts: np.ndarray, log: bool) -> np.ndarray:
    """Shade in [0, 1] of each drawn (nonzero) count, the largest at 1."""
    peak = counts.max(initial=0)
    if log:
        return np.log1p(counts) / np.log1p(peak)
    return counts / peak


def histogram_svg(hist, *, log: bool = False) -> str:
    """Render a DiagramHistogram as a square heatmap with legend."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        '<defs><linearGradient id="ramp" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{_color(0.0)}"/>'
        f'<stop offset="1" stop-color="{_color(1.0)}"/>'
        '</linearGradient></defs>',
    ]
    cell = _SIZE / hist.bins
    # np.nonzero visits the drawn bins in row-major order
    drawn = np.nonzero(hist.counts)
    filled = hist.counts[drawn]
    for bi, di, t in zip(*drawn, _scale_counts(filled, log)):
        x = _X0 + bi * cell
        y = _Y0 + _SIZE - (di + 1) * cell
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell)}" '
            f'height="{_fmt(cell)}" fill="{_color(t)}"/>')
    x1, y1 = _X0, _Y0 + _SIZE
    x2, y2 = _X0 + _SIZE, _Y0
    parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                 f'y2="{_fmt(y2)}" stroke="#888888" stroke-width="1"/>')
    parts.append(f'<rect x="{_fmt(_X0)}" y="{_fmt(_Y0)}" '
                 f'width="{_fmt(_SIZE)}" height="{_fmt(_SIZE)}" '
                 'fill="none" stroke="#000000" stroke-width="1"/>')
    lo, hi = hist.lo, hist.hi
    labels = [
        (_X0, _Y0 + _SIZE + 18, "start", f"{lo:.6g}"),
        (_X0 + _SIZE, _Y0 + _SIZE + 18, "end", f"{hi:.6g}"),
        (_X0 - 8, _Y0 + _SIZE, "end", f"{lo:.6g}"),
        (_X0 - 8, _Y0 + 10, "end", f"{hi:.6g}"),
        (_X0 + _SIZE / 2, _Y0 + _SIZE + 40, "middle", "birth"),
    ]
    for x, y, anchor, text in labels:
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" '
                     f'text-anchor="{anchor}" font-family="monospace" '
                     f'font-size="13">{text}</text>')
    ymid = _Y0 + _SIZE / 2
    parts.append(f'<text x="20" y="{_fmt(ymid)}" text-anchor="middle" '
                 f'font-family="monospace" font-size="13" '
                 f'transform="rotate(-90 20 {_fmt(ymid)})">death</text>')
    parts.append(f'<rect x="{_fmt(_LEGEND_X)}" y="{_fmt(_Y0)}" '
                 f'width="{_fmt(_LEGEND_W)}" height="{_fmt(_SIZE)}" '
                 'fill="url(#ramp)" stroke="#000000" stroke-width="0.5"/>')
    peak = int(filled.max(initial=0))
    legend_title = "count (log)" if log else "count"
    parts.append(f'<text x="{_fmt(_LEGEND_X + _LEGEND_W + 6)}" '
                 f'y="{_fmt(_Y0 + 10)}" font-family="monospace" '
                 f'font-size="12">{peak}</text>')
    parts.append(f'<text x="{_fmt(_LEGEND_X + _LEGEND_W + 6)}" '
                 f'y="{_fmt(_Y0 + _SIZE)}" font-family="monospace" '
                 f'font-size="12">0</text>')
    parts.append(f'<text x="{_fmt(_LEGEND_X)}" y="{_fmt(_Y0 - 8)}" '
                 f'font-family="monospace" font-size="12">{legend_title}</text>')
    notes = []
    if hist.overflow:
        notes.append(f"outside range: {hist.overflow}")
    if hist.essential:
        notes.append(f"essential: {hist.essential}")
    if notes:
        parts.append(f'<text x="{_fmt(_X0)}" y="18" '
                     f'font-family="monospace" font-size="12">'
                     f'{"; ".join(notes)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
