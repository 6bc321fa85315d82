"""Static SVG heatmaps of spreading surfaces.

The value-to-color mapping is fixed and documented: values are clamped to
[0, 4] (the full range of the squared commutator), normalized, and linearly
interpolated through the five stops

    0.0 -> #000004, 0.25 -> #56106e, 0.5 -> #bb3754,
    0.75 -> #f98c0a, 1.0 -> #fcffa4.

Missing values render as neutral gray #d0d0d0.  Output is plain SVG text
with fixed-precision coordinates, so identical inputs give byte-identical
documents.
"""

from __future__ import annotations

import numpy as np

from .surface_io import SurfaceTable

VALUE_RANGE = (0.0, 4.0)
MISSING_COLOR = "#d0d0d0"

_STOPS = (
    (0.00, (0x00, 0x00, 0x04)),
    (0.25, (0x56, 0x10, 0x6e)),
    (0.50, (0xbb, 0x37, 0x54)),
    (0.75, (0xf9, 0x8c, 0x0a)),
    (1.00, (0xfc, 0xff, 0xa4)),
)

CELL = 16
MARGIN_LEFT = 40
MARGIN_TOP = 24
MARGIN_BOTTOM = 34
LEGEND_GAP = 18
LEGEND_WIDTH = 12
LEGEND_LABELS = 46


def color_for(value: float) -> str:
    """Hex color for a commutator value on the fixed [0, 4] scale."""
    if np.isnan(value):
        return MISSING_COLOR
    lo, hi = VALUE_RANGE
    f = (min(max(float(value), lo), hi) - lo) / (hi - lo)
    for (f0, c0), (f1, c1) in zip(_STOPS, _STOPS[1:]):
        if f <= f1:
            w = (f - f0) / (f1 - f0)
            rgb = tuple(round(a + (b - a) * w) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap(table: SurfaceTable, variant: str) -> str:
    """SVG heatmap of one variant column: time index along x, probe site
    along y (site 1 on top).  Raises ValueError for unknown columns."""
    grid = table.grid(variant)
    n, l1 = grid.shape
    width = MARGIN_LEFT + l1 * CELL + LEGEND_GAP + LEGEND_WIDTH + LEGEND_LABELS
    height = MARGIN_TOP + n * CELL + MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="16" font-family="monospace" '
        f'font-size="12" fill="#000000">{variant}</text>',
    ]
    for j in range(n):
        y = MARGIN_TOP + j * CELL
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + CELL - 4}" text-anchor="end" '
            f'font-family="monospace" font-size="10" fill="#000000">j={j + 1}</text>')
        for ell in range(l1):
            x = MARGIN_LEFT + ell * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{color_for(grid[j, ell])}"/>')
    tick = max(1, l1 // 8)
    y_axis = MARGIN_TOP + n * CELL
    for ell in range(0, l1, tick):
        x = MARGIN_LEFT + ell * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{y_axis + 14}" text-anchor="middle" '
            f'font-family="monospace" font-size="10" fill="#000000">{ell}</text>')
    parts.append(
        f'<text x="{MARGIN_LEFT + (l1 * CELL) // 2}" y="{y_axis + 28}" '
        f'text-anchor="middle" font-family="monospace" font-size="10" '
        f'fill="#000000">time index</text>')

    # legend: vertical gradient from 4 (top) to 0 (bottom)
    lx = MARGIN_LEFT + l1 * CELL + LEGEND_GAP
    steps = 32
    seg = n * CELL / steps
    for i in range(steps):
        value = VALUE_RANGE[1] * (1.0 - i / (steps - 1))
        parts.append(
            f'<rect x="{lx}" y="{MARGIN_TOP + i * seg:.2f}" '
            f'width="{LEGEND_WIDTH}" height="{seg + 0.5:.2f}" '
            f'fill="{color_for(value)}"/>')
    for frac, label in ((0.0, "4"), (0.5, "2"), (1.0, "0")):
        ly = MARGIN_TOP + frac * n * CELL
        parts.append(
            f'<text x="{lx + LEGEND_WIDTH + 4}" y="{ly + 4:.2f}" '
            f'font-family="monospace" font-size="10" fill="#000000">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
