"""Minimal deterministic SVG 1.1 writer.

Only what the CLI figures need: polylines, circles, text and translated
groups, with fixed-precision coordinates so identical inputs produce
byte-identical files.  Pixels are computed a whole coordinate array at a
time: the ``transformer`` closure takes arrays as well as floats.  A figure
formats all of its pixels in one ``point_runs`` call, one pass of the numpy
kernel ``_fixed4`` that writes the exact ``'%.4f'`` text of every entry,
and cuts each polyline's and circle's text out of that one string.
``_fmt`` writes the few scalars and is the kernel's reference.
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


# ``_fixed4`` writes each entry as two 8-byte words, joined and compacted by
# dropping the NUL bytes: the integer part, right-aligned and with its sign
# (row q + 10**4 of ``_WHOLE`` is -q), then ".dddd" and a separator.
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10_000).T + np.uint8(ord("0"))
_WHOLE_BYTES = np.zeros((2, 10_000, 8), np.uint8)
_WHOLE_BYTES[:, :, 4:] = _DIGITS
_WHOLE_BYTES[:, :1000, 4] = _WHOLE_BYTES[:, :100, 5] = _WHOLE_BYTES[:, :10, 6] = 0
_WHOLE_BYTES[1, :10, 6] = _WHOLE_BYTES[1, 10:100, 5] = ord("-")
_WHOLE_BYTES[1, 100:1000, 4] = _WHOLE_BYTES[1, 1000:, 3] = ord("-")
_WHOLE = _WHOLE_BYTES.reshape(20_000, 8).view(np.uint64).ravel()
_FRAC_BYTES = np.zeros((10_001, 8), np.uint8)
_FRAC_BYTES[:-1, 0], _FRAC_BYTES[:-1, 1:5], _FRAC_BYTES[:, 5] = ord("."), _DIGITS, ord(",")
_FRAC = _FRAC_BYTES.view(np.uint64).ravel()  # the last row is the separator alone
_LENGTH = np.repeat([7, 8, 9, 10], [10, 90, 900, 9000])  # of q's entry: digits, ".dddd" and ","
#: ``_fixed4`` writes an entry itself if its magnitude, rounded to 4 decimals,
#: is below this; other entries, NaN and inf among them, go to ``'%.4f'``.
_FIXED4_LIMIT = 1e4
#: Rows per ``_fixed4`` block: its scratch arrays stay near 0.4 MiB for pairs.
_FIXED4_BLOCK = 2048


def _fixed4(values) -> tuple[str, np.ndarray]:
    """The ``'%.4f'`` text of every entry of an (n, k) array, k >= 1.

    Entries are joined by "," within a row, and each row ends in " ".
    Returns the text and the end offset of each row in it.  The bytes are
    written in blocks of ``_FIXED4_BLOCK`` rows and decoded once.

    An entry is rounded half to even on its exact binary value, as
    ``'%.4f'`` does.  With a = |v|, p = fl(a * 10**4) lies on the same side
    of every half-integer as the exact product, so ``rint(p)`` is right
    unless p is itself a half; only there is the exact error of the product
    read, by Dekker's two-product (10**4 needs no split).  Entries whose
    rounded magnitude is not below ``_FIXED4_LIMIT``, NaN and infinities
    among them, are written by ``'%.4f'`` and spliced in.
    """
    values = np.asarray(values, dtype=float)
    raw, ends = bytearray(), np.empty(len(values), np.int64)
    for lo in range(0, len(values), _FIXED4_BLOCK):
        block, rows = _fixed4_block(values[lo:lo + _FIXED4_BLOCK])
        np.cumsum(rows, out=ends[lo:lo + len(rows)])
        ends[lo:lo + len(rows)] += len(raw)
        raw += block.data
    return raw.decode("ascii"), ends


def _fixed4_block(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fixed4`` on a few rows: the ASCII bytes and the length of each row."""
    n, k = values.shape
    flat = values.ravel()
    mag = np.abs(flat)
    inside = mag < _FIXED4_LIMIT  # false for NaN and inf
    mag[~inside] = 0.0
    p = mag * 1e4
    rounded = np.rint(p)
    half = np.flatnonzero(p - np.floor(p) == 0.5)
    if half.size:
        a, ph = mag[half], p[half]
        split = a * 134217729.0  # 2**27 + 1
        hi = split - (split - a)
        err = (hi * 1e4 - ph) + (a - hi) * 1e4  # exactly a * 10**4 - ph
        rounded[half] = np.where(err > 0, ph + 0.5, np.where(err < 0, ph - 0.5, rounded[half]))
    inside &= rounded < _FIXED4_LIMIT * 1e4
    rounded[~inside] = 0.0
    whole, frac = np.divmod(rounded.astype(np.int64), 10_000)
    negative = np.signbit(flat)
    frac[~inside] = 10_000  # the separator alone
    words = np.empty((len(flat), 2), np.uint64)
    words[:, 0] = _WHOLE[whole + 10_000 * negative]
    words[:, 1] = _FRAC[frac]
    words[~inside, 0] = 0
    raw = words.view(np.uint8).reshape(n, k, 16)
    raw[:, -1, 13] = ord(" ")
    raw = raw[raw != 0]
    lengths = np.where(inside, _LENGTH[whole] + negative, 1)
    outside = np.flatnonzero(~inside)
    if outside.size:
        spill = [b"%.4f" % v for v in flat[outside].tolist()]
        data, parts, start = raw.tobytes(), [], 0
        for cut, item in zip((np.cumsum(lengths)[outside] - 1).tolist(), spill):
            parts += [data[start:cut], item]
            start = cut
        raw = np.frombuffer(b"".join([*parts, data[start:]]), np.uint8)
        lengths[outside] += [len(item) for item in spill]
    return raw, lengths.reshape(n, k).sum(axis=1)


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


def data_bbox(points: np.ndarray) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) of an (m, 2) float array, m >= 1: a figure
    stacks all of its points into one array first."""
    xs, ys = points[:, 0], points[:, 1]  # column by column: min(axis=0) is slower
    return float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())


def point_runs(pixels, counts) -> list[str]:
    """The points text "X,Y X,Y ..." of each run of ``counts`` consecutive
    rows of ``pixels``, an (n, 2) array, from one ``_fixed4`` pass."""
    text, ends = _fixed4(np.asarray(pixels, dtype=float).reshape(-1, 2))
    bounds = np.concatenate([[0], ends])[np.cumsum([0, *counts])].tolist()
    # each run's text ends in the row separator " ", which is cut off
    return [text[lo:max(lo, hi - 1)] for lo, hi in zip(bounds, bounds[1:])]


def polyline_at(points: str, stroke: str, width: float = 1.5, dash: str | None = None) -> str:
    """One polyline through a points text from ``point_runs``."""
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
            f'{dash_attr} points="{points}"/>')


def polyline(pixels, stroke: str, width: float = 1.5, dash: str | None = None) -> str:
    """One polyline through ``pixels``, an (m, 2) sequence of (X, Y)."""
    return polyline_at(point_runs(pixels, [np.size(pixels) // 2])[0], stroke, width, dash)


_CIRCLE = '<circle cx="{}" cy="{}" r="{}" fill="{}"/>'


def circles_at(points: str, r: float, fill: str) -> list[str]:
    """One circle at each pair of a points text from ``point_runs``."""
    radius = _fmt(r)
    return [_CIRCLE.format(*pair.split(","), radius, fill) for pair in points.split()]


def circle(x: float, y: float, r: float, fill: str) -> str:
    return _CIRCLE.format(_fmt(x), _fmt(y), _fmt(r), fill)


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
