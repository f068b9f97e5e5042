"""The JSON and SVG writers against the per-value writers they replaced.

``reference_json`` builds the nested payload and hands it to
``json.dumps(indent=2)``; ``reference_svg`` maps every point through the
pixel closure on its own and formats it with ``svg._fmt``.  Both are kept
verbatim as oracles: the template and per-column writers in ``render`` and
``svg`` must give the same text, byte for byte.
"""

import json
import math

import numpy as np
import pytest

from alphabezier import svg
from alphabezier.cli import DISPATCH, parse_config
from alphabezier.render import Result, render_json, render_svg

# ------------------------------------------------------------ reference writers


def _alpha_json(alpha):
    return "inf" if math.isinf(alpha) else alpha


def _alpha_text(alpha):
    return "inf" if math.isinf(alpha) else repr(alpha)


def reference_json(result: Result) -> str:
    samples = []
    xs = result.xs.tolist()
    for alpha, matrix in result.tables:
        label = {} if alpha is None else {"alpha": _alpha_json(alpha)}
        samples.extend({**label, "x": x, "values": row} for x, row in zip(xs, matrix.tolist()))
    payload = {
        "params": result.params,
        "samples": samples,
        "polygons": [poly.tolist() for poly in result.polygons],
    }
    if result.results is not None:
        payload["results"] = result.results
    return json.dumps(payload, indent=2) + "\n"


def _reference_polyline(pixels, stroke, width=1.5, dash=None):
    coords = " ".join(f"{svg._fmt(x)},{svg._fmt(y)}" for x, y in pixels)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{stroke}" stroke-width="{svg._fmt(width)}"'
            f'{dash_attr} points="{coords}"/>')


def _planar(points):
    pts = np.atleast_2d(points)
    if pts.shape[1] == 1:
        return np.column_stack([np.arange(len(pts), dtype=float), pts[:, 0]])
    return pts[:, :2]


def _reference_graph(xs, matrix, bbox, colors, title, width, height):
    to_px = svg.transformer(bbox, width, height)
    elements = [svg.rect(0.0, 0.0, width, height)]
    for column, color in zip(matrix.T.tolist(), colors):
        elements.append(_reference_polyline([to_px(x, y) for x, y in zip(xs.tolist(), column)],
                                            color))
    elements.append(svg.text(8.0, 16.0, title))
    return elements


def reference_svg(result: Result) -> str:
    command = result.params["command"]
    if command == "basis":
        panel_w, panel_h, gap = 420.0, 320.0, 10.0
        a, b = result.params["interval"]
        colors = [svg.PALETTE[i % len(svg.PALETTE)] for i in range(len(result.columns))]
        cols = 2 if len(result.tables) > 1 else 1
        rows = (len(result.tables) + cols - 1) // cols
        parts = []
        for k, (alpha, matrix) in enumerate(result.tables):
            panel = _reference_graph(result.xs, matrix, (a, b, 0.0, 1.0), colors,
                                     f"alpha = {_alpha_text(alpha)}", panel_w, panel_h)
            parts.append(svg.group(panel, (k % cols) * (panel_w + gap),
                                   (k // cols) * (panel_h + gap)))
        return svg.document(cols * panel_w + (cols - 1) * gap,
                            rows * panel_h + (rows - 1) * gap, parts)
    width, height = 640.0, 480.0
    if command == "fit":
        matrix = result.tables[0][1]
        bbox = svg.data_bbox([np.column_stack([result.xs, column]) for column in matrix.T])
        elements = _reference_graph(result.xs, matrix, bbox, ("#999999", "#1f77b4", "#d62728"),
                                    f"target = {result.params['target']}", width, height)
        return svg.document(width, height, elements)
    dashed_first = command != "subdivide"
    curve_pts = _planar(result.tables[0][1])
    polygons = [_planar(poly) for poly in result.polygons]
    to_px = svg.transformer(svg.data_bbox(polygons + [curve_pts]), width, height)
    elements = [svg.rect(0.0, 0.0, width, height)]
    for k, planar in enumerate(polygons):
        pixels = [to_px(x, y) for x, y in planar.tolist()]
        dashed = dashed_first and k == 0
        color = "#999999" if dashed else svg.PALETTE[k % len(svg.PALETTE)]
        elements.append(_reference_polyline(pixels, color, 1.0, "6,4" if dashed else None))
        for x, y in pixels:
            elements.append(svg.circle(x, y, 2.5, color))
    elements.append(_reference_polyline([to_px(x, y) for x, y in curve_pts.tolist()],
                                         "#1f77b4", 2.0))
    return svg.document(width, height, elements)


# ------------------------------------------------------------ random jobs

INDICES = ("-1", "2", "5", "inf", "1.01", "-0.01", "1e300", "-1e300", "-3.5", "17.25")
INTERVALS = ("0,1", "-1,2", "-2.5,0.125", "3,1e4", "-1e-3,1e-3")


def _polygon_files(tmp_path, rng):
    files = []
    for dim in (1, 2, 3):
        for npts in (2, 4, 7):
            path = tmp_path / f"poly{dim}d{npts}.json"
            path.write_text(json.dumps(rng.uniform(-10.0, 10.0, size=(npts, dim)).tolist()))
            files.append(str(path))
    return files + list("abcdefghi")


def _random_argv(rng, polygons, command):
    argv = ["--command", command, f"--interval={rng.choice(INTERVALS)}",
            "--samples", str(int(rng.choice([2, 3, int(rng.integers(2, 200))])))]
    if command == "basis":
        count = int(rng.choice([1, 1, 2, 3, 4]))
        argv += [f"--alpha={','.join(rng.choice(INDICES, size=count))}",
                 "--degree", str(int(rng.integers(1, 15)))]
        return argv
    argv.append(f"--alpha={rng.choice(INDICES)}")
    if command == "fit":
        return argv + ["--degree", str(int(rng.integers(1, 9))),
                       "--target", str(rng.choice(["rational1", "rational2", "sine", "constant"]))]
    argv += ["--polygon", str(rng.choice(polygons))]
    if command == "subdivide":
        argv += ["--depth", str(int(rng.integers(0, 7)))]
    return argv


def _random_results(tmp_path, seed, jobs):
    rng = np.random.default_rng(seed)
    polygons = _polygon_files(tmp_path, rng)
    commands = ["basis", "curve", "subdivide", "elevate", "fit"]
    for k in range(jobs):
        argv = _random_argv(rng, polygons, commands[k % len(commands)])
        config = parse_config([*argv, "--out", "x"])
        yield argv, DISPATCH[config.command](config)


def test_json_matches_json_dumps_on_random_jobs(tmp_path):
    for argv, result in _random_results(tmp_path, 20261018, 60):
        assert render_json(result) == reference_json(result), argv


def test_svg_matches_per_point_pixels_on_random_jobs(tmp_path):
    for argv, result in _random_results(tmp_path, 4711, 60):
        assert render_svg(result) == reference_svg(result), argv


@pytest.mark.parametrize("argv", [
    ["--command", "basis", "--alpha=-1,2,5,inf", "--degree", "3", "--samples", "2"],
    ["--command", "basis", "--alpha=1e300", "--degree", "1", "--samples", "5"],
    ["--command", "curve", "--polygon", "i", "--alpha=-0.01", "--samples", "2"],
    ["--command", "subdivide", "--polygon", "a", "--depth", "0", "--samples", "9"],
    ["--command", "elevate", "--polygon", "e", "--alpha=1.01", "--samples", "2"],
    ["--command", "fit", "--degree", "3", "--samples", "2", "--target", "constant"],
])
def test_writers_match_references_on_edge_jobs(argv):
    config = parse_config([*argv, "--out", "x"])
    result = DISPATCH[config.command](config)
    assert render_json(result) == reference_json(result)
    assert render_svg(result) == reference_svg(result)


def test_json_spells_non_finite_numbers_like_json_dumps():
    nan, inf = float("nan"), float("inf")
    table = np.array([[nan, 1.0, -inf], [inf, -0.0, 5e-324], [1e300, nan, -2.5]])
    result = Result(
        params={"command": "basis", "alpha": [2.0, "inf"], "interval": [0.0, 1.0]},
        xs=np.array([0.0, nan, inf]),
        columns=["B0", "B1", "B2"],
        tables=[(2.0, table), (inf, -table)],
        polygons=[np.array([[nan, inf], [-inf, 0.1]]),
                  np.array([[1.0, nan], [-inf, 5.0], [0.0, -0.0]])],
        results={"fit": {"max_error": nan, "l2_error": inf, "worst": -inf}},
    )
    assert render_json(result) == reference_json(result)
    assert "NaN" in render_json(result) and "-Infinity" in render_json(result)


def test_json_writes_empty_blocks_like_json_dumps():
    result = Result(params={"command": "curve"}, xs=np.array([0.0, 1.0]), columns=[],
                    tables=[(None, np.zeros((2, 0)))], polygons=[])
    assert '"polygons": []' in render_json(result)
    assert render_json(result) == reference_json(result)
    no_rows = Result({}, np.zeros(0), ["B0"], [(2.0, np.zeros((0, 1)))], [np.zeros((0, 2))])
    assert render_json(no_rows) == reference_json(no_rows)
