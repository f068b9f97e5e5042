"""The three output formats of a CLI job.

``RENDERERS[fmt]`` turns one command's ``Result`` into the whole text of its
file; nothing here reads arguments or touches a file.  Numbers are written in
shortest round-trip form, JSON byte-identical to ``json.dumps(indent=2)``,
and SVG through the ``svg`` element writers, looked up as ``svg.<name>``.
Each SVG figure maps all of its points to pixels in one transformer pass and
formats them in one ``svg.point_runs`` pass, the exact ``'%.4f'`` text;
each polyline and circle is cut out of that text.  A curve figure stacks
its polygons and samples into one array, projected and bounded once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import svg


@dataclass(frozen=True)
class Result:
    """Everything one command computed, before any formatting.

    ``tables`` pairs each basis index (None for commands with a single
    curve or fit) with a sample matrix: row j holds the values at
    ``xs[j]`` and the columns are named by ``columns``.  All ``polygons``
    share one point dimension.
    """

    params: dict
    xs: np.ndarray
    columns: list[str]
    tables: list[tuple[float | None, np.ndarray]]
    polygons: list[np.ndarray]
    results: dict | None = None


def alpha_json(alpha: float):  # JSON holds either infinity as the string "inf"
    return "inf" if math.isinf(alpha) else alpha


def alpha_text(alpha: float) -> str:
    return "inf" if math.isinf(alpha) else repr(alpha)


#: how JSON spells the numbers that ``repr`` writes as nan, inf and -inf
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _numbers(values, spelling: dict[str, str] | None = None) -> list[str]:
    """Shortest round-trip text of each number; ``spelling`` renames the non-finite ones."""
    values = np.asarray(values, dtype=float)
    texts = list(map(repr, values.tolist()))
    if spelling is not None and not np.isfinite(values).all():
        texts = [spelling.get(text, text) for text in texts]
    return texts


def render_csv(result: Result) -> str:
    """The sample table; subdivide and elevate write their polygon table instead."""
    blocks = []  # the formatted columns of each table or polygon, stacked in order
    if result.params["command"] in ("subdivide", "elevate"):
        header = ["polygon", "point"]
        for k, poly in enumerate(result.polygons):
            blocks.append([[repr(k)] * len(poly), list(map(repr, range(len(poly)))),
                           *map(_numbers, poly.T)])
    else:
        # single-index tables use the plain x,... schema; panel lists gain a
        # leading alpha column
        panel = len(result.tables) > 1
        header = ["alpha", "x"] if panel else ["x"]
        xs = _numbers(result.xs)
        for alpha, matrix in result.tables:
            lead = [[alpha_text(alpha)] * len(xs)] if panel else []
            blocks.append([*lead, xs, *map(_numbers, matrix.T)])
    lines = [",".join(header + result.columns)]
    for block in blocks:
        lines.extend(map(",".join, zip(*block)))
    lines.append("")  # the final newline, so the text is built in one join
    return "\n".join(lines)


def _json_list(items: list[str], depth: int) -> str:
    """Formatted items as the list ``json.dumps(indent=2)`` writes ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]"


def _json_block(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` nested ``depth`` levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_samples(xs: list[str], alpha: float | None, matrix: np.ndarray) -> list[str]:
    """One table's sample objects, each filled into one row template."""
    label = "" if alpha is None else f'"alpha": {json.dumps(alpha_json(alpha))},\n      '
    row = ("{{\n      " + label + '"x": {},\n      "values": '
           + _json_list(["{}"] * matrix.shape[1], 3) + "\n    }}")
    columns = [_numbers(col, JSON_SPELLING) for col in matrix.T]
    return list(map(row.format, xs, *columns))


def _json_polygons(polygons: list[np.ndarray]) -> str:
    """The polygon lists, formatted as one stacked table; they share a dimension."""
    if not polygons:
        return "[]"
    stacked = np.concatenate(polygons)
    point = _json_list(["{}"] * stacked.shape[1], 3)
    points = list(map(point.format, *(_numbers(col, JSON_SPELLING) for col in stacked.T)))
    ends = np.cumsum([len(poly) for poly in polygons]).tolist()
    return _json_list([_json_list(points[end - len(poly):end], 2)
                       for poly, end in zip(polygons, ends)], 1)


def render_json(result: Result) -> str:
    """params, samples, polygons and, for fits, results as one document.

    The text is byte-identical to ``json.dumps(payload, indent=2)`` of the
    nested dicts and lists, but the sample rows and polygons are filled into
    fixed templates, one formatted column at a time.
    """
    xs = _numbers(result.xs, JSON_SPELLING)
    samples = []
    for alpha, matrix in result.tables:  # one table's column strings at a time
        samples.extend(_json_samples(xs, alpha, matrix))
    head = '{\n  "params": ' + _json_block(result.params, 1) + ',\n  "samples": '
    tail = ',\n  "polygons": ' + _json_polygons(result.polygons)
    if result.results is not None:
        tail += ',\n  "results": ' + _json_block(result.results, 1)
    tail += "\n}\n"
    if not samples:
        return head + "[]" + tail
    # one join over the rows, so the document is never copied whole
    samples[0] = head + "[\n    " + samples[0]
    samples[-1] += "\n  ]" + tail
    return ",\n    ".join(samples)


def _planar(points: np.ndarray, counts: list[int]) -> np.ndarray:
    """Project stacked runs of ``counts`` samples or polygon points to 2-D for
    plotting; a 1-D point plots over its index within its own run."""
    if points.shape[1] > 1:
        return points[:, :2]
    starts = np.repeat(np.cumsum([0, *counts[:-1]]), counts)
    return np.column_stack([np.arange(len(points)) - starts, points[:, 0]])


def _graphs(xs: np.ndarray, matrices: list[np.ndarray], bbox, colors, titles,
            width: float, height: float) -> list[list[str]]:
    """One framed plot per matrix, of each column against xs.

    All plots share one pixel map: their pixels come from one transformer
    pass and are formatted in one ``svg.point_runs`` pass.
    """
    to_px = svg.transformer(bbox, width, height)
    count = matrices[0].shape[1]
    pixels = np.empty((len(matrices), count, len(xs), 2))  # (plot, column, sample, X/Y)
    pixels[..., 0], pixels[..., 1] = to_px(xs, np.stack(matrices).transpose(0, 2, 1))
    runs = svg.point_runs(pixels, [len(xs)] * (len(matrices) * count))
    return [[svg.rect(0.0, 0.0, width, height),
             *map(svg.polyline_at, runs[k * count:(k + 1) * count], colors),
             svg.text(8.0, 16.0, title)] for k, title in enumerate(titles)]


def _basis_panels(result: Result) -> str:
    panel_w, panel_h, gap = 420.0, 320.0, 10.0
    a, b = result.params["interval"]
    colors = [svg.PALETTE[i % len(svg.PALETTE)] for i in range(len(result.columns))]
    cols = 2 if len(result.tables) > 1 else 1
    rows = (len(result.tables) + cols - 1) // cols
    panels = _graphs(result.xs, [matrix for _, matrix in result.tables], (a, b, 0.0, 1.0),
                     colors, [f"alpha = {alpha_text(alpha)}" for alpha, _ in result.tables],
                     panel_w, panel_h)
    parts = [svg.group(panel, (k % cols) * (panel_w + gap), (k // cols) * (panel_h + gap))
             for k, panel in enumerate(panels)]
    return svg.document(cols * panel_w + (cols - 1) * gap, rows * panel_h + (rows - 1) * gap,
                        parts)


def _fit_figure(result: Result) -> str:
    width, height = 640.0, 480.0
    matrix = result.tables[0][1]
    # the grid is strictly increasing, so its ends bound it
    bbox = svg.data_bbox(np.array([[result.xs[0], matrix.min()], [result.xs[-1], matrix.max()]]))
    [elements] = _graphs(result.xs, [matrix], bbox, ("#999999", "#1f77b4", "#d62728"),
                         [f"target = {result.params['target']}"], width, height)
    return svg.document(width, height, elements)


def _curve_figure(result: Result) -> str:
    # the control polygon is drawn dashed; subdivision pieces all in colour
    dashed_first = result.params["command"] != "subdivide"
    width, height = 640.0, 480.0
    counts = [len(points) for points in result.polygons] + [len(result.xs)]
    planar = _planar(np.concatenate([*result.polygons, result.tables[0][1]]), counts)
    # every polygon and the curve in one transformer pass and one formatting pass
    to_px = svg.transformer(svg.data_bbox(planar), width, height)
    *runs, curve = svg.point_runs(np.column_stack(to_px(*planar.T)), counts)
    elements = [svg.rect(0.0, 0.0, width, height)]
    for k, points in enumerate(runs):
        dashed = dashed_first and k == 0
        color = "#999999" if dashed else svg.PALETTE[k % len(svg.PALETTE)]
        elements.append(svg.polyline_at(points, color, 1.0, "6,4" if dashed else None))
        elements.extend(svg.circles_at(points, 2.5, color))
    elements.append(svg.polyline_at(curve, "#1f77b4", 2.0))
    return svg.document(width, height, elements)


def render_svg(result: Result) -> str:
    """Basis panels, the fit graph, or the curve over its polygons."""
    command = result.params["command"]
    if command == "basis":
        return _basis_panels(result)
    if command == "fit":
        return _fit_figure(result)
    return _curve_figure(result)


RENDERERS = {"csv": render_csv, "json": render_json, "svg": render_svg}
