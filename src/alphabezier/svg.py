"""Minimal deterministic SVG 1.1 writer.

Only what the CLI figures need: polylines, circles, text and translated
groups, with fixed-precision coordinates so identical inputs produce
byte-identical files.  Pixels are computed a whole coordinate array at a
time: the ``transformer`` closure takes arrays as well as floats, and
``polyline`` formats an (m, 2) array of pixels in one pass.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)
#: The plot margin per side as a fraction of the size, the font size and
#: colour of every label, and the stroke of every frame.
MARGIN, TEXT_SIZE, TEXT_FILL, RECT_STROKE = 0.05, 12, "#333333", "#cccccc"


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def transformer(bbox, width: float, height: float):
    """Map data (x, y) to pixel (X, Y) with the relative ``MARGIN`` and a y flip.

    The returned closure takes floats or equal-shape arrays; on arrays it
    does elementwise the same float operations, so each pixel has the same
    bits either way.
    """
    x0, x1, y0, y1 = bbox
    mx, my = MARGIN * width, MARGIN * height
    sx = (width - 2 * mx) / max(x1 - x0, 1e-30)
    sy = (height - 2 * my) / max(y1 - y0, 1e-30)

    def to_pixel(x, y):
        return mx + (x - x0) * sx, height - my - (y - y0) * sy

    return to_pixel


def data_bbox(point_sets) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) over a list of (m, 2) arrays."""
    allpts = np.vstack([np.atleast_2d(np.asarray(p, dtype=float)) for p in point_sets])
    return (float(allpts[:, 0].min()), float(allpts[:, 0].max()),
            float(allpts[:, 1].min()), float(allpts[:, 1].max()))


def polyline(pixels, stroke: str, width: float = 1.5, dash: str | None = None) -> str:
    """One polyline through ``pixels``, an (m, 2) sequence of (X, Y)."""
    pts = np.asarray(pixels, dtype=float).reshape(-1, 2)
    # one %-template for the whole line: the same text as _fmt per number, in one call
    coords = " ".join(["%.4f,%.4f"] * len(pts)) % tuple(pts.ravel().tolist())
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
            f'{dash_attr} points="{coords}"/>')


def circle(x: float, y: float, r: float, fill: str) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'


def text(x: float, y: float, s: str) -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{TEXT_SIZE}" fill="{TEXT_FILL}">{s}</text>')


def rect(x: float, y: float, w: float, h: float) -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="none" stroke="{RECT_STROKE}"/>')


def _lines(first: str, elements, last: str) -> str:
    """first, each element and last, one per line, in one join; no elements
    leave one empty line between first and last."""
    return "\n".join([first, *(list(elements) or [""]), last])


def group(elements, tx: float, ty: float) -> str:
    return _lines(f'<g transform="translate({_fmt(tx)},{_fmt(ty)})">', elements, "</g>")


def document(width: float, height: float, elements) -> str:
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return _lines(head, elements, "</svg>\n")
