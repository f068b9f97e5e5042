"""Command line surface.

One executable with a --command switch: dump basis tables, sample curves,
subdivide, elevate, run demo fits, or run a seeded self test.

``COMMANDS`` holds each command's defaults, degree cap and size rule, but for
selftest, which reads only --out and the seed.  parse_config reads, checks and
records a flag only for the commands that use it, into a JobConfig that holds
the interval map of each basis index, the sample grid and the output's params.
Each cmd_* computes one Result record from them (the sample grid, a sample
matrix per basis index, the polygons and any fit results), and main writes it
once through the renderer of its format (``render.RENDERERS``); selftest
writes its own JSON report.  Identical configurations produce byte-identical
files.  An output file is rewritten in place: it is complete once the command
exits 0, and a job that fails while writing may leave a partial file.  Exit
codes: 0 success, 2 validation failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .approx import MAX_FIT_DEGREE, fit_collocation, fit_least_squares
from .basis import MAX_DEGREE, BasisSpec, collocation_matrix, rowwise_dot
from .curve import MAX_SUBDIVISION_DEPTH, BezierCurve, ControlPolygon
from .errors import ArgumentError, DomainError, SolveError, ValidationError
from .homography import INFINITY, HomographyMap
from .presets import PRESET_POLYGONS, preset_polygon
from .render import RENDERERS, Result, alpha_json, alpha_text

#: One rule per command but selftest: the default --degree (None: the polygon's;
#: only these commands read --polygon, and require it), the degree cap, the
#: default --format, and the size rule: the numbers a result holds at degree n,
#: with k basis indices, polygon dimension d (0 if none), s samples and depth r.
COMMANDS = {
    "basis": (3, MAX_DEGREE, "svg", lambda n, k, d, s, r: k * s * (n + 2)),
    "curve": (None, MAX_DEGREE, "svg", lambda n, k, d, s, r: s * (d + 1) + (n + 1) * d),
    "subdivide": (None, MAX_DEGREE, "svg", lambda n, k, d, s, r: s * (d + 1) + 2**r * (n + 1) * d),
    "elevate": (None, MAX_DEGREE, "svg", lambda n, k, d, s, r: s * (d + 1) + (2 * n + 3) * d),
    "fit": (8, MAX_FIT_DEGREE, "json", lambda n, k, d, s, r: 4 * s + 2 * (n + 1)),
}
FORMATS = ("csv", "json", "svg")
DEFAULT_PANEL_ALPHAS = (-1.0, 2.0, 5.0, INFINITY)
SEED_ENV_VAR = "ALPHABEZIER_SEED"  # read only by selftest, the one seeded command
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
    """A fully validated CLI job.  A selftest job holds only ``out`` and ``seed``;
    any other job's ``maps`` holds the interval map of each basis index, in
    --alpha order, ``xs`` the strictly increasing sample grid and ``params`` the
    job's settings as its output writes them, the one record of --depth and --target."""

    command: str
    out: Path | None
    seed: int = 0
    degree: int = 0
    maps: tuple[HomographyMap, ...] = ()
    xs: np.ndarray | None = None
    polygon: ControlPolygon | None = None
    fmt: str = "json"
    params: dict | None = None


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
    except (OSError, TypeError, ValueError, RecursionError) as exc:
        # a directory, JSON objects and JSON nested too deep land here too
        raise ValidationError("polygon", f"cannot read control points: {exc}") from None
    if np.abs(polygon.points).max() > MAX_COORDINATE:
        raise ValidationError(
            "polygon", f"control point magnitudes must be at most {MAX_COORDINATE:g}")
    return polygon, f"file:{token}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every job and
    thread: parsing keeps no state in it, and nothing may add to it."""
    parser = argparse.ArgumentParser(
        prog="alphabezier",
        description="Rational Bernstein bases and Bezier curve tools.",
        epilog=f"A job writes at most {MAX_OUTPUT_NUMBERS} numbers (sample tables plus "
               f"polygons). Polygon files hold control points of magnitude at most "
               f"{MAX_COORDINATE:g}. A fit interval lies within "
               f"[-{MAX_FIT_ENDPOINT:g}, {MAX_FIT_ENDPOINT:g}].",
    )
    parser.add_argument("--command", required=True, choices=[*COMMANDS, "selftest"])
    parser.add_argument("--degree", type=int, default=None, help="default/max: " + ", ".join(
        f"{name} {'polygon' if degree is None else degree}/{cap}"
        for name, (degree, cap, _, _) in COMMANDS.items()))
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


def parse_config(argv=None) -> JobConfig:
    ns = build_parser().parse_args(argv)
    command = ns.command
    out = Path(ns.out) if ns.out is not None else None
    if command == "selftest":
        seed = os.environ.get(SEED_ENV_VAR, "0")
        try:
            return JobConfig(command, out, int(seed))
        except ValueError:
            raise ValidationError("seed", f"{SEED_ENV_VAR}={seed!r} is not an integer") from None
    a, b = _parse_interval(ns.interval)
    if command == "fit" and max(abs(a), abs(b)) > MAX_FIT_ENDPOINT:
        raise ValidationError(
            "interval", f"fit needs both ends within [-{MAX_FIT_ENDPOINT:g}, "
            f"{MAX_FIT_ENDPOINT:g}], got {ns.interval!r}: the targets would overflow")

    if ns.alpha is None:
        alphas = DEFAULT_PANEL_ALPHAS if command == "basis" else (2.0,)
    else:  # never empty: an empty token fails to parse
        try:  # float reads inf, Infinity and -inf in any case, between spaces
            alphas = tuple(map(float, ns.alpha.split(",")))
        except ValueError as exc:  # its message quotes the bad token
            raise ValidationError("alpha", str(exc)) from None
    if command != "basis" and len(alphas) != 1:
        raise ValidationError("alpha", f"{command} takes a single index value")

    default_degree, cap, default_fmt, size_rule = COMMANDS[command]
    polygon = None
    if default_degree is not None:
        degree = default_degree if ns.degree is None else ns.degree
    elif ns.polygon is None:
        raise ValidationError("polygon", f"{command} requires --polygon")
    else:
        polygon, polygon_label = _load_polygon(ns.polygon)
        degree = polygon.degree
        if ns.degree is not None and ns.degree != degree:
            raise ValidationError(
                "degree", f"--degree {ns.degree} conflicts with polygon of degree {degree}")
    if not 1 <= degree <= cap:
        raise ValidationError("degree", f"degree must be in 1..{cap} for {command}, got {degree}")

    if not 2 <= ns.samples <= MAX_SAMPLES:
        raise ValidationError("samples", f"samples must be in 2..{MAX_SAMPLES}, got {ns.samples}")
    depth = ns.depth if command == "subdivide" else 0
    if not 0 <= depth <= MAX_SUBDIVISION_DEPTH:
        raise ValidationError("depth", f"depth must be in 0..{MAX_SUBDIVISION_DEPTH}, got {depth}")

    numbers = size_rule(degree, len(alphas), 0 if polygon is None else polygon.dim,
                        ns.samples, depth)
    if numbers > MAX_OUTPUT_NUMBERS:
        raise ValidationError(
            "output", f"{command} would write {numbers} numbers, over the budget of "
            f"{MAX_OUTPUT_NUMBERS}; lower --samples, --degree, --depth or the --alpha count")

    if out is None:
        raise ValidationError("out", f"{command} requires --out")
    try:
        maps = tuple(HomographyMap(a, b, alpha) for alpha in alphas)
    except ArgumentError as exc:
        raise ValidationError("alpha", str(exc)) from None

    xs = np.linspace(a, b, ns.samples)
    if np.any(np.diff(xs) <= 0.0):
        raise ValidationError(
            "samples", f"{ns.samples} samples on [{a!r}, {b!r}] repeat "
            "grid points; the interval holds too few distinct floats")
    params = {"command": command, "degree": degree, "alpha": [alpha_json(h.alpha) for h in maps],
              "interval": [a, b], "samples": ns.samples, "format": ns.fmt or default_fmt}
    if command == "subdivide":
        params["depth"] = depth
    if polygon is not None:
        params["polygon"] = polygon_label
    if command == "fit":
        params["target"] = ns.target
    return JobConfig(command, out, 0, degree, maps, xs, polygon, params["format"], params)


# ---------------------------------------------------------------- commands


def cmd_basis(config: JobConfig) -> Result:
    tables = [(h.alpha, collocation_matrix(BasisSpec(config.degree, h), config.xs))
              for h in config.maps]
    names = [f"B{i}" for i in range(config.degree + 1)]
    return Result(config.params, config.xs, names, tables, [])


def _curve_result(config: JobConfig, polygons) -> Result:
    """The samples of the job's curve, with the polygons ``polygons(curve)`` lists."""
    curve = BezierCurve(config.polygon, BasisSpec(config.degree, config.maps[0]))
    names = [f"p{i}" for i in range(config.polygon.dim)]
    return Result(config.params, config.xs, names, [(None, curve.samples(config.xs))],
                  polygons(curve))


def cmd_curve(config: JobConfig) -> Result:
    return _curve_result(config, lambda curve: [curve.polygon.points])


def cmd_subdivide(config: JobConfig) -> Result:
    depth = config.params["depth"]
    return _curve_result(config, lambda curve: list(curve.subdivision_stack(depth)))


def cmd_elevate(config: JobConfig) -> Result:
    return _curve_result(
        config, lambda curve: [curve.polygon.points, curve.elevated().polygon.points])


def cmd_fit(config: JobConfig) -> Result:
    f = FIT_TARGETS[config.params["target"]]
    spec = BasisSpec(config.degree, config.maps[0])
    try:
        colloc = fit_collocation(f, spec)
        lsq = fit_least_squares(f, spec, max(len(config.xs), config.degree + 1))
    except SolveError as exc:
        raise ValidationError("degree", f"degree {config.degree} at alpha "
                              f"{alpha_text(spec.homography.alpha)}: {exc}; lower the degree or "
                              "move alpha away from [0, 1]") from None
    rows = collocation_matrix(spec, config.xs)
    table = np.column_stack([[f(x) for x in config.xs], rowwise_dot(rows, colloc.coefficients),
                             rowwise_dot(rows, lsq.coefficients)])
    results = {
        "collocation": {"max_error": colloc.max_error, "l2_error": colloc.l2_error},
        "least_squares": {"max_error": lsq.max_error, "l2_error": lsq.l2_error},
    }
    return Result(config.params, config.xs, ["target", "collocation", "least_squares"],
                  [(None, table)],
                  [colloc.coefficients[:, None], lsq.coefficients[:, None]], results)


def _selftest_draws(rng: np.random.Generator, draws: int) -> list:
    """(spec, x, polygon) for each of a check's draws, from one generator call
    per parameter; x is uniform on the spec's interval, and the first
    degree + 1 rows of the (9, 2) polygon block are the curve's control points."""
    a = rng.uniform(-5.0, 5.0, draws)
    b = a + rng.uniform(0.5, 10.0, draws)
    kind = rng.integers(0, 3, draws)
    alpha = np.where(kind == 0, rng.uniform(-6.0, -1.0, draws),
                     np.where(kind == 1, rng.uniform(2.0, 7.0, draws), INFINITY))
    specs = [BasisSpec(n, HomographyMap(lo, hi, al)) for n, lo, hi, al in
             zip(rng.integers(1, 9, draws).tolist(), a.tolist(), b.tolist(), alpha.tolist())]
    return list(zip(specs, rng.uniform(a, b).tolist(), rng.uniform(-5.0, 5.0, (draws, 9, 2))))


def _partition_residual(spec: BasisSpec, x: float, polygon: np.ndarray) -> float:
    return abs(float(spec.values(x).sum()) - 1.0)


def _recursion_residual(spec: BasisSpec, x: float, polygon: np.ndarray) -> float:
    return float(np.abs(spec.values(x) - spec.values_recursive(x)).max())


def _decasteljau_residual(spec: BasisSpec, x: float, polygon: np.ndarray) -> float:
    curve = BezierCurve(ControlPolygon(polygon[:spec.degree + 1]), spec)
    apex, _ = curve.decasteljau(x)
    # the norm of the difference in a fixed order, without BLAS
    return math.hypot(*(apex - curve.point(x)).tolist()) / curve.polygon.diameter()


def _round_trip_residual(spec: BasisSpec, x: float, polygon: np.ndarray) -> float:
    h = spec.homography
    return abs(h.inverse(h.value(x)) - x) / h.width


#: (name, draws, residual at one draw of ``_selftest_draws``, tolerance); the
#: checks run in this order on one seeded generator.
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
        worst = float(np.max([residual(*draw) for draw in _selftest_draws(rng, draws)]))
        entries.append({"name": name, "max_residual": worst, "tolerance": tol,
                        "pass": bool(worst <= tol)})
    report = {"seed": config.seed, "checks": entries,
              "pass": all(entry["pass"] for entry in entries)}
    _write_text(config.out, json.dumps(report, indent=2) + "\n")
    if not report["pass"]:
        raise RuntimeError("self test failed; see report")


def _write_text(out: Path | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode()
    # no O_TRUNC: on ext4 a file truncated to zero and rewritten has its
    # blocks flushed at close, which costs several times the write itself
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null, a pipe or a FIFO
            fh.truncate(len(data))


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
