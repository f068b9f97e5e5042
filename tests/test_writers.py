"""The JSON and SVG writers against the per-value writers they replaced.

``reference_json`` builds the nested payload and hands it to
``json.dumps(indent=2)``; ``reference_svg`` bounds the stacked point sets
itself, maps every point through the pixel closure on its own and formats
it with ``svg._fmt``.  Both are kept as oracles: the template and
per-column writers in ``render`` and ``svg`` must give the same text, byte
for byte.
"""

import json
import math

import numpy as np
import pytest

from alphabezier import svg
from alphabezier.cli import DISPATCH, parse_config
from alphabezier.render import Result, render_json, render_svg
from helpers import GOLDEN_POLYGONS, random_jobs

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


def _reference_bbox(point_sets):
    stacked = np.vstack(point_sets)
    return (stacked[:, 0].min(), stacked[:, 0].max(), stacked[:, 1].min(), stacked[:, 1].max())


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
        bbox = _reference_bbox([np.column_stack([result.xs, column]) for column in matrix.T])
        elements = _reference_graph(result.xs, matrix, bbox, ("#999999", "#1f77b4", "#d62728"),
                                    f"target = {result.params['target']}", width, height)
        return svg.document(width, height, elements)
    dashed_first = command != "subdivide"
    curve_pts = _planar(result.tables[0][1])
    polygons = [_planar(poly) for poly in result.polygons]
    to_px = svg.transformer(_reference_bbox(polygons + [curve_pts]), width, height)
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


def _random_results(tmp_path, seed, jobs):
    for argv in random_jobs(tmp_path, seed, jobs):
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
    # one figure, many elements cut from one formatting pass: 64 polygons and
    # 256 circles; polylines of two lengths in 1-D and 3-D; three fit graphs
    ["--command", "subdivide", "--polygon", "c", "--depth", "6", "--samples", "64"],
    ["--command", "elevate", "--polygon", "line1d.txt", "--alpha=-1", "--samples", "17"],
    ["--command", "elevate", "--polygon", "space3d.json", "--alpha", "5", "--samples", "17"],
    ["--command", "fit", "--degree", "12", "--samples", "512", "--target", "sine"],
])
def test_writers_match_references_on_edge_jobs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_POLYGONS.items():
        (tmp_path / name).write_text(text)
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


# ------------------------------------------------------------ the %.4f kernel


def _reference_fixed4(values):
    """``svg._fixed4`` one ``'%.4f'`` at a time: the text and each row's end."""
    rows = [",".join("%.4f" % v for v in row) + " " for row in values.tolist()]
    return "".join(rows), np.cumsum([len(row) for row in rows], dtype=np.int64)


def _assert_fixed4(values, layouts=((-1, 2),)):
    values = np.asarray(values, dtype=float)
    for shape in layouts:
        table = values[:len(values) // shape[1] * shape[1]].reshape(shape)
        text, ends = svg._fixed4(table)
        expected, expected_ends = _reference_fixed4(table)
        assert text == expected
        assert np.array_equal(ends, expected_ends)


def test_fixed4_matches_percent_format_on_fuzzed_arrays():
    rng = np.random.default_rng(20261020)
    _assert_fixed4(rng.uniform(-1e4, 1e4, 4000))
    _assert_fixed4(rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.uniform(-8.0, 4.0, 4000))
    _assert_fixed4(np.round(rng.uniform(-1e4, 1e4, 4000), 4))  # near the 4-digit grid


def test_fixed4_rounds_exact_ties_half_to_even():
    # the only exact ties of round(|v| * 10**4) are the odd multiples of 1/32
    odd = 2 * np.concatenate([np.arange(-20_000, 20_000),
                              np.random.default_rng(3).integers(-160_000, 160_000, 10_000)]) + 1
    _assert_fixed4(odd / 32.0)
    assert svg._fixed4(np.array([[0.03125, 0.09375]]))[0] == "0.0312,0.0938 "


def test_fixed4_matches_percent_format_next_to_every_half():
    rng = np.random.default_rng(31)
    k = np.concatenate([np.arange(20_000), rng.integers(0, 10**8, 20_000)])
    halves = (k + 0.5) / 1e4
    for near in (halves, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf)):
        _assert_fixed4(near)
        _assert_fixed4(-near)


def test_fixed4_writes_negative_zero_subnormals_and_the_range_limit():
    tiny = np.array([-0.0, -4e-5, -1e-300, 0.0, 4e-5, 5e-324, -5e-324, 2.0**-1074 * 12345,
                     -2.2250738585072014e-308, 1e-310])
    assert svg._fixed4(tiny[:3, None])[0] == "-0.0000 -0.0000 -0.0000 "
    _assert_fixed4(tiny, ((-1, 1), (-1, 2), (1, -1)))
    # magnitudes that round to 10**4 or more, NaN and inf are written by '%.4f' itself
    edge = np.array([svg._FIXED4_LIMIT, 9999.99995, 9999.99994999999, 1e300, np.inf, np.nan,
                     1e4 + 0.5])
    steps = np.concatenate([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    _assert_fixed4(np.concatenate([steps, -steps, [np.finfo(float).max, 1.0, 12.5]]),
                   ((-1, 1), (-1, 2), (-1, 3), (1, -1)))
    assert svg._fixed4(np.array([[np.nan, -1e5], [2.5, -np.inf]]))[0] == \
        "nan,-100000.0000 2.5000,-inf "
    # spliced into later blocks too, on both sides of a block boundary
    rng = np.random.default_rng(11)
    many = rng.uniform(-1e4, 1e4, 5 * svg._FIXED4_BLOCK)
    spots = [0, 2 * svg._FIXED4_BLOCK - 1, 2 * svg._FIXED4_BLOCK, len(many) - 1,
             *rng.choice(len(many), 40)]
    many[spots] = rng.choice(steps, len(spots))
    _assert_fixed4(many, ((-1, 2), (-1, 3)))


def test_fixed4_writes_an_empty_array():
    text, ends = svg._fixed4(np.zeros((0, 2)))
    assert text == "" and ends.shape == (0,)
    assert svg.polyline(np.zeros((0, 2)), "#000000") == _reference_polyline([], "#000000")


def test_polyline_and_circle_match_the_scalar_writers():
    rng = np.random.default_rng(5)
    for m in (1, 2, 17, 300):
        pixels = rng.uniform(-50.0, 700.0, size=(m, 2))
        for width, dash in ((1.5, None), (1.0, "6,4"), (2.0, None)):
            assert svg.polyline(pixels, "#1f77b4", width, dash) == \
                _reference_polyline(pixels.tolist(), "#1f77b4", width, dash)
        points = svg.point_runs(pixels, [m])[0]
        assert svg.circles_at(points, 2.5, "#999999") == \
            [svg.circle(x, y, 2.5, "#999999") for x, y in pixels.tolist()]
        none, first, empty, rest = svg.point_runs(pixels, [0, 1, 0, m - 1])
        assert none == empty == "" and " ".join(filter(None, [first, rest])) == points
