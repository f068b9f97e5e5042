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


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def transformer(bbox, width: float, height: float, margin: float = 0.05):
    """Map data (x, y) to pixel (X, Y) with a relative margin and a y flip.

    The returned closure takes floats or equal-shape arrays; on arrays it
    does elementwise the same float operations, so each pixel has the same
    bits either way.
    """
    x0, x1, y0, y1 = bbox
    spanx = max(x1 - x0, 1e-30)
    spany = max(y1 - y0, 1e-30)
    mx = margin * width
    my = margin * height
    sx = (width - 2 * mx) / spanx
    sy = (height - 2 * my) / spany

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


def text(x: float, y: float, s: str, size: int = 12, fill: str = "#333333") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}">{s}</text>')


def rect(x: float, y: float, w: float, h: float, stroke: str = "#cccccc") -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="none" stroke="{stroke}"/>')


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
