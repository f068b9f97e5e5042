"""Command line surface.

One executable with a --command switch: dump basis tables, sample curves,
subdivide, elevate, run demo fits, or run a seeded self test.

parse_config validates the arguments into a JobConfig.  Each cmd_* computes
one Result record: the sample grid, a sample matrix per basis index, the
polygons and any fit results.  main hands that record to the one renderer
of the requested format (render_csv, render_json or render_svg) and writes
the text once; only selftest writes its own JSON report.  Identical
configurations produce byte-identical files.  Exit codes: 0 success, 2
validation failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svg
from .approx import fit_collocation, fit_least_squares
from .basis import BasisSpec, collocation_matrix, rowwise_dot
from .curve import MAX_SUBDIVISION_DEPTH, BezierCurve, ControlPolygon, make_curve
from .errors import ArgumentError, DomainError, SolveError, ValidationError
from .homography import INFINITY, HomographyMap
from .presets import PRESET_POLYGONS, preset_polygon

COMMANDS = ("basis", "curve", "subdivide", "elevate", "fit", "selftest")
FORMATS = ("csv", "json", "svg")
DEFAULT_PANEL_ALPHAS = (-1.0, 2.0, 5.0, INFINITY)
SEED_ENV_VAR = "ALPHABEZIER_SEED"
MAX_SAMPLES = 2**16  # output tables hold one row per sample
#: numbers one job may write: its sample tables plus its polygons.  It admits
#: every size flag at its own cap with the others at their defaults; the
#: largest such job, a depth-20 subdivision of a planar cubic, writes 8.4e6.
MAX_OUTPUT_NUMBERS = 10**7
#: largest control-point magnitude a polygon file may hold: a curve sample
#: sums at most 61 weighted points, and the SVG bounding-box span subtracts
#: two, so neither can overflow
MAX_COORDINATE = 1e300
#: largest interval end a fit accepts: the targets square t, and below this
#: t * t and every target value stay finite
MAX_FIT_ENDPOINT = 1e150

FIT_TARGETS = {
    "rational1": lambda t: t / (1.0 + t * t),
    "rational2": lambda t: (1.0 - t * t) / (1.0 + t * t),
    "sine": lambda t: math.sin(math.pi * t),
    "constant": lambda t: 1.0,
}


@dataclass
class JobConfig:
    """A fully validated CLI job, ready to run."""

    command: str
    degree: int
    alphas: tuple[float, ...]
    interval: tuple[float, float]
    polygon: ControlPolygon | None
    polygon_label: str | None
    samples: int
    depth: int
    fmt: str
    out: Path | None
    target: str
    seed: int


def _parse_alpha_token(token: str) -> float:
    if token.strip().lower() == "inf":
        return INFINITY
    try:
        return float(token)
    except ValueError:
        raise ValidationError("alpha", f"cannot parse {token!r}") from None


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("interval", f"expected 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        HomographyMap(a, b, INFINITY)  # the interval checks, with no index involved
    except ValueError as exc:  # ArgumentError included
        raise ValidationError("interval", f"{text!r}: {exc}") from None
    return a, b


def _load_polygon(token: str) -> tuple[ControlPolygon, str]:
    if token in PRESET_POLYGONS:
        return preset_polygon(token), f"preset:{token}"
    path = Path(token)
    if not path.exists():
        raise ValidationError("polygon", f"{token!r} is neither a preset nor a file")
    try:
        text = path.read_text()
        if text.lstrip().startswith("["):
            rows = json.loads(text)
        else:
            rows = [
                [float(part) for part in line.replace(",", " ").split()]
                for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
        polygon = ControlPolygon(np.array(rows, dtype=float))
    except (ValueError, ArgumentError, json.JSONDecodeError) as exc:
        raise ValidationError("polygon", f"cannot read control points: {exc}") from None
    if np.abs(polygon.points).max() > MAX_COORDINATE:
        raise ValidationError(
            "polygon", f"control point magnitudes must be at most {MAX_COORDINATE:g}")
    return polygon, f"file:{token}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphabezier",
        description="Rational Bernstein bases and Bezier curve tools.",
        epilog=f"A job writes at most {MAX_OUTPUT_NUMBERS} numbers (sample tables plus "
               f"polygons). Polygon files hold control points of magnitude at most "
               f"{MAX_COORDINATE:g}. A fit interval lies within "
               f"[-{MAX_FIT_ENDPOINT:g}, {MAX_FIT_ENDPOINT:g}].",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--degree", type=int, default=None,
                        help="basis/fit degree; curve commands take it from the polygon")
    parser.add_argument("--alpha", default=None,
                        help="index value, 'inf', or a comma list for basis panels")
    parser.add_argument("--interval", default="0,1", help="parameter interval 'a,b'")
    parser.add_argument("--polygon", default=None,
                        help="preset name (a..i) or a file of control points")
    parser.add_argument("--samples", type=int, default=512, help=f"grid size (max {MAX_SAMPLES})")
    parser.add_argument("--depth", type=int, default=4,
                        help=f"subdivision recursion depth (max {MAX_SUBDIVISION_DEPTH})")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--target", default="rational1", choices=sorted(FIT_TARGETS),
                        help="named scalar function for the fit command")
    return parser


def _output_numbers(command: str, degree: int, panels: int, polygon: ControlPolygon | None,
                    samples: int, depth: int) -> int:
    """How many numbers a job's result holds: x and the values per sample, plus polygons."""
    if command == "selftest":
        return 0
    if command == "basis":
        return panels * samples * (degree + 2)
    if command == "fit":
        return samples * 4 + 2 * (degree + 1)
    points = {"curve": degree + 1, "subdivide": 2**depth * (degree + 1),
              "elevate": 2 * degree + 3}[command]
    return samples * (polygon.dim + 1) + points * polygon.dim


def parse_config(argv=None) -> JobConfig:
    ns = build_parser().parse_args(argv)
    command = ns.command
    interval = _parse_interval(ns.interval)
    if command == "fit" and max(abs(interval[0]), abs(interval[1])) > MAX_FIT_ENDPOINT:
        raise ValidationError(
            "interval", f"fit needs both ends within [-{MAX_FIT_ENDPOINT:g}, "
            f"{MAX_FIT_ENDPOINT:g}], got {ns.interval!r}: the targets would overflow")

    if ns.alpha is None:
        alphas = DEFAULT_PANEL_ALPHAS if command == "basis" else (2.0,)
    else:
        alphas = tuple(_parse_alpha_token(tok) for tok in ns.alpha.split(","))
    if not alphas:
        raise ValidationError("alpha", "at least one index value is required")
    if command != "basis" and len(alphas) != 1:
        raise ValidationError("alpha", f"{command} takes a single index value")

    polygon = None
    polygon_label = None
    if ns.polygon is not None:
        polygon, polygon_label = _load_polygon(ns.polygon)

    needs_polygon = command in ("curve", "subdivide", "elevate")
    if needs_polygon and polygon is None:
        raise ValidationError("polygon", f"{command} requires --polygon")

    if needs_polygon:
        degree = polygon.degree
        if ns.degree is not None and ns.degree != degree:
            raise ValidationError(
                "degree", f"--degree {ns.degree} conflicts with polygon of degree {degree}")
    elif ns.degree is not None:
        degree = ns.degree
    else:
        degree = 8 if command == "fit" else 3
    if degree < 1:
        raise ValidationError("degree", "degree must be at least 1")

    if not 2 <= ns.samples <= MAX_SAMPLES:
        raise ValidationError("samples", f"samples must be in 2..{MAX_SAMPLES}, got {ns.samples}")
    if not 0 <= ns.depth <= MAX_SUBDIVISION_DEPTH:
        raise ValidationError(
            "depth", f"depth must be in 0..{MAX_SUBDIVISION_DEPTH}, got {ns.depth}")

    numbers = _output_numbers(command, degree, len(alphas), polygon, ns.samples, ns.depth)
    if numbers > MAX_OUTPUT_NUMBERS:
        raise ValidationError(
            "output", f"{command} would write {numbers} numbers, over the budget of "
            f"{MAX_OUTPUT_NUMBERS}; lower --samples, --degree, --depth or the --alpha count")

    fmt = ns.fmt
    if fmt is None:
        fmt = "json" if command in ("fit", "selftest") else "svg"

    out = Path(ns.out) if ns.out is not None else None
    if out is None and command != "selftest":
        raise ValidationError("out", f"{command} requires --out")

    for alpha in alphas:
        try:
            HomographyMap(interval[0], interval[1], alpha)
        except ArgumentError as exc:
            raise ValidationError("alpha", str(exc)) from None

    seed_text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValidationError("seed", f"{SEED_ENV_VAR}={seed_text!r} is not an integer") from None
    config = JobConfig(command, degree, alphas, interval, polygon, polygon_label,
                       ns.samples, ns.depth, fmt, out, ns.target, seed)
    if command != "selftest" and np.any(np.diff(_grid(config)) <= 0.0):
        raise ValidationError(
            "samples", f"{ns.samples} samples on [{interval[0]!r}, {interval[1]!r}] repeat "
            "grid points; the interval holds too few distinct floats")
    return config


# ---------------------------------------------------------------- commands


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


def _params_dict(config: JobConfig) -> dict:
    params = {
        "command": config.command,
        "degree": config.degree,
        "alpha": [_alpha_json(al) for al in config.alphas],
        "interval": [config.interval[0], config.interval[1]],
        "samples": config.samples,
        "format": config.fmt,
    }
    if config.command == "subdivide":
        params["depth"] = config.depth
    if config.polygon_label is not None:
        params["polygon"] = config.polygon_label
    if config.command == "fit":
        params["target"] = config.target
    return params


def _grid(config: JobConfig) -> np.ndarray:
    a, b = config.interval
    return np.linspace(a, b, config.samples)


def _spec(config: JobConfig, alpha: float) -> BasisSpec:
    a, b = config.interval
    return BasisSpec(config.degree, HomographyMap(a, b, alpha))


def cmd_basis(config: JobConfig) -> Result:
    xs = _grid(config)
    tables = [(alpha, collocation_matrix(_spec(config, alpha), xs)) for alpha in config.alphas]
    names = [f"B{i}" for i in range(config.degree + 1)]
    return Result(_params_dict(config), xs, names, tables, [])


def _curve_result(config: JobConfig, curve: BezierCurve, polygons: list[np.ndarray]) -> Result:
    xs = _grid(config)
    names = [f"p{i}" for i in range(curve.polygon.dim)]
    return Result(_params_dict(config), xs, names, [(None, curve.samples(xs))], polygons)


def _config_curve(config: JobConfig) -> BezierCurve:
    a, b = config.interval
    return make_curve(config.polygon, config.alphas[0], a, b)


def cmd_curve(config: JobConfig) -> Result:
    curve = _config_curve(config)
    return _curve_result(config, curve, [curve.polygon.points])


def cmd_subdivide(config: JobConfig) -> Result:
    curve = _config_curve(config)
    return _curve_result(config, curve, list(curve._subdivision_stack(config.depth)))


def cmd_elevate(config: JobConfig) -> Result:
    curve = _config_curve(config)
    return _curve_result(config, curve, [curve.polygon.points, curve.elevated().polygon.points])


def cmd_fit(config: JobConfig) -> Result:
    f = FIT_TARGETS[config.target]
    spec = _spec(config, config.alphas[0])
    try:
        colloc = fit_collocation(f, spec)
        lsq = fit_least_squares(f, spec, max(config.samples, config.degree + 1))
    except SolveError as exc:
        raise ValidationError("degree", f"degree {config.degree} at alpha "
                              f"{_alpha_text(config.alphas[0])}: {exc}; lower the degree or "
                              "move alpha away from [0, 1]") from None
    xs = _grid(config)
    rows = collocation_matrix(spec, xs)
    table = np.column_stack([[f(x) for x in xs], rowwise_dot(rows, colloc.coefficients),
                             rowwise_dot(rows, lsq.coefficients)])
    results = {
        "collocation": {"max_error": colloc.max_error, "l2_error": colloc.l2_error},
        "least_squares": {"max_error": lsq.max_error, "l2_error": lsq.l2_error},
    }
    return Result(_params_dict(config), xs, ["target", "collocation", "least_squares"],
                  [(None, table)],
                  [colloc.coefficients[:, None], lsq.coefficients[:, None]], results)


# ---------------------------------------------------------------- output


def _alpha_json(alpha: float):
    return "inf" if math.isinf(alpha) else alpha


def _alpha_text(alpha: float) -> str:
    return "inf" if math.isinf(alpha) else repr(alpha)


def _write_text(out: Path | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


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
            lead = [[_alpha_text(alpha)] * len(xs)] if panel else []
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
    label = "" if alpha is None else f'"alpha": {json.dumps(_alpha_json(alpha))},\n      '
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


def _planar(points: np.ndarray) -> np.ndarray:
    """Project samples or polygons to 2-D for plotting."""
    pts = np.atleast_2d(points)
    if pts.shape[1] == 1:
        # 1-D curves plot as a graph over an index axis
        return np.column_stack([np.arange(len(pts), dtype=float), pts[:, 0]])
    return pts[:, :2]


def _graph(xs: np.ndarray, matrix: np.ndarray, bbox, colors, title: str,
           width: float, height: float) -> list[str]:
    """One framed plot of every matrix column against xs."""
    to_px = svg.transformer(bbox, width, height)
    elements = [svg.rect(0.0, 0.0, width, height)]
    for column, color in zip(matrix.T, colors):
        elements.append(svg.polyline(np.column_stack(to_px(xs, column)), color))
    elements.append(svg.text(8.0, 16.0, title))
    return elements


def _basis_panels(result: Result) -> str:
    panel_w, panel_h, gap = 420.0, 320.0, 10.0
    a, b = result.params["interval"]
    colors = [svg.PALETTE[i % len(svg.PALETTE)] for i in range(len(result.columns))]
    cols = 2 if len(result.tables) > 1 else 1
    rows = (len(result.tables) + cols - 1) // cols
    parts = []
    for k, (alpha, matrix) in enumerate(result.tables):
        panel = _graph(result.xs, matrix, (a, b, 0.0, 1.0), colors,
                       f"alpha = {_alpha_text(alpha)}", panel_w, panel_h)
        parts.append(svg.group(panel, (k % cols) * (panel_w + gap), (k // cols) * (panel_h + gap)))
    return svg.document(cols * panel_w + (cols - 1) * gap, rows * panel_h + (rows - 1) * gap,
                        parts)


def _fit_figure(result: Result) -> str:
    width, height = 640.0, 480.0
    matrix = result.tables[0][1]
    bbox = svg.data_bbox([np.column_stack([result.xs, column]) for column in matrix.T])
    elements = _graph(result.xs, matrix, bbox, ("#999999", "#1f77b4", "#d62728"),
                      f"target = {result.params['target']}", width, height)
    return svg.document(width, height, elements)


def _curve_figure(result: Result) -> str:
    # the control polygon is drawn dashed; subdivision pieces all in colour
    dashed_first = result.params["command"] != "subdivide"
    width, height = 640.0, 480.0
    curve_pts = _planar(result.tables[0][1])
    polygons = [_planar(poly) for poly in result.polygons]
    to_px = svg.transformer(svg.data_bbox(polygons + [curve_pts]), width, height)
    elements = [svg.rect(0.0, 0.0, width, height)]
    for k, planar in enumerate(polygons):
        pixels = np.column_stack(to_px(*planar.T))
        dashed = dashed_first and k == 0
        color = "#999999" if dashed else svg.PALETTE[k % len(svg.PALETTE)]
        elements.append(svg.polyline(pixels, color, 1.0, "6,4" if dashed else None))
        for x, y in pixels.tolist():
            elements.append(svg.circle(x, y, 2.5, color))
    elements.append(svg.polyline(np.column_stack(to_px(*curve_pts.T)), "#1f77b4", 2.0))
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


def _random_spec(rng: np.random.Generator) -> BasisSpec:
    a = rng.uniform(-5.0, 5.0)
    b = a + rng.uniform(0.5, 10.0)
    kind = rng.integers(0, 3)
    if kind == 0:
        alpha = rng.uniform(-6.0, -1.0)
    elif kind == 1:
        alpha = rng.uniform(2.0, 7.0)
    else:
        alpha = INFINITY
    degree = int(rng.integers(1, 9))
    return BasisSpec(degree, HomographyMap(a, b, alpha))


def _partition_residual(spec: BasisSpec, rng: np.random.Generator) -> float:
    return abs(spec.values(rng.uniform(spec.a, spec.b)).sum() - 1.0)


def _recursion_residual(spec: BasisSpec, rng: np.random.Generator) -> float:
    x = rng.uniform(spec.a, spec.b)
    return float(np.abs(spec.values(x) - spec.values_recursive(x)).max())


def _decasteljau_residual(spec: BasisSpec, rng: np.random.Generator) -> float:
    curve = BezierCurve(ControlPolygon(rng.uniform(-5.0, 5.0, size=(spec.degree + 1, 2))), spec)
    x = rng.uniform(spec.a, spec.b)
    apex, _ = curve.decasteljau(x)
    return float(np.linalg.norm(apex - curve.point(x))) / curve.polygon.diameter()


def _round_trip_residual(spec: BasisSpec, rng: np.random.Generator) -> float:
    h = spec.homography
    x = rng.uniform(h.a, h.b)
    return abs(h.inverse(h.value(x)) - x) / h.width


#: (name, draws, residual at one random spec, tolerance); the checks run in
#: this order on one seeded generator.
SELFTEST_CHECKS = (
    ("partition_of_unity", 200, _partition_residual, 1e-12),
    ("recursion_matches_closed_form", 200, _recursion_residual, 1e-13),
    ("decasteljau_matches_direct", 100, _decasteljau_residual, 1e-12),
    ("inverse_round_trip", 200, _round_trip_residual, 1e-12),
)


def cmd_selftest(config: JobConfig) -> None:
    """Write the seeded identity-check report as JSON, whatever --format says."""
    rng = np.random.default_rng(config.seed)
    entries = []
    for name, draws, residual, tol in SELFTEST_CHECKS:
        worst = float(np.max([residual(_random_spec(rng), rng) for _ in range(draws)]))
        entries.append({"name": name, "max_residual": worst, "tolerance": tol,
                        "pass": bool(worst <= tol)})
    report = {"seed": config.seed, "checks": entries,
              "pass": all(entry["pass"] for entry in entries)}
    _write_text(config.out, _json_text(report))
    if not report["pass"]:
        raise RuntimeError("self test failed; see report")


DISPATCH = {
    "basis": cmd_basis,
    "curve": cmd_curve,
    "subdivide": cmd_subdivide,
    "elevate": cmd_elevate,
    "fit": cmd_fit,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        result = DISPATCH[config.command](config)
        if result is not None:  # selftest writes its own report
            _write_text(config.out, RENDERERS[config.fmt](result))
    except (ValidationError, ArgumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # I/O trouble or a genuine bug
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
