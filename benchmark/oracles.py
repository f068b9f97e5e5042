"""Independent checks of every op's output, run outside the timed section.

Nothing here calls alphabezier code; the preset table is read as input.
Basis values, curve points, subdivision and elevation polygons are
recomputed exactly with ``fractions.Fraction`` (``mpmath`` for the sine
target) on a seeded subset of rows; fits are
recomputed with a separate numpy implementation; SVG files are parsed and
their element and point counts compared with the job.  Tolerances are
absolute and scaled to the data: basis rows sum to 1, curve points are
compared against 1e-12 times the control polygon's diameter.  Pointwise ops
reuse the selftest tolerances.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from alphabezier.presets import PRESET_POLYGONS as PRESETS

#: selftest tolerances (``cli.cmd_selftest``), reused for the pointwise battery
PARTITION_TOL = 1e-12
RECURSION_TOL = 1e-13
DECASTELJAU_RTOL = 1e-12
INVERSE_RTOL = 1e-12

#: absolute tolerance on basis values (rows sum to 1) and, times the polygon
#: diameter, on curve and control points
VALUE_TOL = 1e-12

#: fitted columns against the independent refit, times max(1, max |target|)
FIT_TOL = 1e-9

#: rows (or polygons) per output checked against the exact evaluation
EXACT_ROWS = 6

SVG_NS = "{http://www.w3.org/2000/svg}"


class OracleError(AssertionError):
    """An output disagrees with the independent evaluation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------- exact maths


def _alpha(token) -> float:
    return math.inf if token in ("inf", math.inf) else float(token)


def exact_w(x: float, a: float, b: float, alpha: float) -> Fraction:
    X, A, B = Fraction(x), Fraction(a), Fraction(b)
    if math.isinf(alpha):
        return (X - A) / (B - A)
    al = Fraction(alpha)
    return al * (X - A) / (X + (al - 1) * B - al * A)


def exact_basis(n: int, w: Fraction) -> list[Fraction]:
    u = 1 - w
    return [math.comb(n, i) * w**i * u ** (n - i) for i in range(n + 1)]


def exact_point(points, w: Fraction) -> list[Fraction]:
    basis = exact_basis(len(points) - 1, w)
    dim = len(points[0])
    return [sum(bi * Fraction(p[k]) for bi, p in zip(basis, points)) for k in range(dim)]


def diameter(points) -> float:
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(-1).max()))


@lru_cache(maxsize=512)
def exact_subdivision(preset: str, alpha: float, a: float, b: float, depth: int):
    """Polygons of the 2**depth pieces, split at w((a + b) / 2) every level."""
    t = exact_w(0.5 * (a + b), a, b, alpha)
    s = 1 - t

    def split(poly, level):
        if level == 0:
            return [poly]
        levels = [poly]
        cur = poly
        for _ in range(len(poly) - 1):
            cur = [tuple(s * p + t * q for p, q in zip(cur[i], cur[i + 1]))
                   for i in range(len(cur) - 1)]
            levels.append(cur)
        n = len(poly) - 1
        left = [lvl[0] for lvl in levels]
        right = [levels[n - i][i] for i in range(n + 1)]
        return split(left, level - 1) + split(right, level - 1)

    start = [tuple(Fraction(v) for v in p) for p in PRESETS[preset]]
    return [[tuple(float(v) for v in p) for p in poly] for poly in split(start, depth)]


def exact_elevation(points) -> list[tuple[float, ...]]:
    n = len(points) - 1
    P = [tuple(Fraction(v) for v in p) for p in points]
    out = [P[0]]
    for i in range(1, n + 1):
        t = Fraction(i, n + 1)
        out.append(tuple(t * p + (1 - t) * q for p, q in zip(P[i - 1], P[i])))
    out.append(P[n])
    return [tuple(float(v) for v in p) for p in out]


def exact_target(name: str, x: float) -> float:
    X = Fraction(x)
    if name == "rational1":
        return float(X / (1 + X * X))
    if name == "rational2":
        return float((1 - X * X) / (1 + X * X))
    if name == "constant":
        return 1.0
    with mpmath.workdps(30):
        return float(mpmath.sin(mpmath.pi * mpmath.mpf(x)))


# ------------------------------------------------------ independent numpy maths


def ref_w(xs: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    if math.isinf(alpha):
        w = (xs - a) / (b - a)
    else:
        w = alpha * (xs - a) / (xs + (alpha - 1.0) * b - alpha * a)
    return np.clip(w, 0.0, 1.0)


def ref_basis(n: int, xs: np.ndarray, a: float, b: float, alpha: float) -> np.ndarray:
    w = ref_w(np.asarray(xs, dtype=float), a, b, alpha)[:, None]
    i = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in i], dtype=float)
    return binom * w**i * (1.0 - w) ** (n - i)


def ref_fits(target: str, n: int, a: float, b: float, alpha: float, samples: int):
    """Coefficients of the collocation fit (nodes where w = i/n) and the
    least-squares fit on a uniform grid, by a separate implementation."""
    w_nodes = np.arange(n + 1) / n
    if math.isinf(alpha):
        nodes = a + w_nodes * (b - a)
    else:
        nodes = a + w_nodes * (alpha - 1.0) * (b - a) / (alpha - w_nodes)
    nodes[0], nodes[-1] = a, b
    f = np.vectorize(lambda t: exact_target(target, float(t)))
    colloc = np.linalg.solve(ref_basis(n, nodes, a, b, alpha), f(nodes))
    xs = np.linspace(a, b, samples)
    lsq = np.linalg.lstsq(ref_basis(n, xs, a, b, alpha), f(xs), rcond=None)[0]
    return colloc, lsq


def grid(a: float, b: float, samples: int) -> np.ndarray:
    return a + np.arange(samples) * ((b - a) / (samples - 1))


# ------------------------------------------------------------------ render


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    _require(text.endswith("\n"), "csv must end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_grid(xs, a: float, b: float, samples: int) -> None:
    xs = np.asarray(xs, dtype=float)
    _require(len(xs) == samples, f"{len(xs)} sample rows, expected {samples}")
    err = float(np.abs(xs - grid(a, b, samples)).max())
    _require(err <= 1e-14 * (abs(a) + abs(b) + 1.0), f"sample grid off by {err:.3e}")


def _check_basis_rows(table, n, a, b, alpha, rng) -> None:
    """table: rows of (x, B_0..B_n) floats for one index."""
    arr = np.asarray(table, dtype=float)
    _require(arr.shape[1] == n + 2, f"basis rows have {arr.shape[1] - 1} values, expected {n + 1}")
    vals = arr[:, 1:]
    _require(bool(np.all(vals >= 0.0)), "negative basis value")
    part = float(np.abs(vals.sum(axis=1) - 1.0).max())
    _require(part <= PARTITION_TOL, f"partition residual {part:.3e}")
    for j in rng.choice(len(arr), size=min(EXACT_ROWS, len(arr)), replace=False):
        exact = exact_basis(n, exact_w(arr[j, 0], a, b, alpha))
        err = max(abs(float(e) - v) for e, v in zip(exact, vals[j]))
        _require(err <= VALUE_TOL, f"basis row at x={arr[j, 0]!r} off by {err:.3e}")


def _check_curve_rows(table, polygon, a, b, alpha, rng) -> None:
    """table: rows of (x, p0, p1..) floats."""
    arr = np.asarray(table, dtype=float)
    dim = len(polygon[0])
    _require(arr.shape[1] == dim + 1, "curve rows have the wrong dimension")
    tol = VALUE_TOL * diameter(polygon)
    for j in rng.choice(len(arr), size=min(EXACT_ROWS, len(arr)), replace=False):
        exact = exact_point(polygon, exact_w(arr[j, 0], a, b, alpha))
        err = math.dist([float(e) for e in exact], arr[j, 1:])
        _require(err <= tol, f"curve point at x={arr[j, 0]!r} off by {err:.3e}")


def _check_polygons(got, expected, rng, scale_points) -> None:
    _require(len(got) == len(expected), f"{len(got)} polygons, expected {len(expected)}")
    tol = VALUE_TOL * diameter(scale_points)
    picks = rng.choice(len(expected), size=min(EXACT_ROWS, len(expected)), replace=False)
    for k in picks:
        g = np.asarray(got[k], dtype=float)
        e = np.asarray(expected[k], dtype=float)
        _require(g.shape == e.shape, f"polygon {k} has shape {g.shape}, expected {e.shape}")
        err = float(np.sqrt(((g - e) ** 2).sum(-1)).max())
        _require(err <= tol, f"polygon {k} off by {err:.3e}")


def _polygons_from_csv(rows, dim) -> list[list[list[float]]]:
    polys: list[list[list[float]]] = []
    for row in rows:
        k, j = int(row[0]), int(row[1])
        if k == len(polys):
            polys.append([])
        _require(k == len(polys) - 1 and j == len(polys[k]), "polygon rows out of order")
        polys[k].append([float(v) for v in row[2:2 + dim]])
    return polys


def _check_fit_columns(table, p, samples) -> None:
    """table: rows of (x, target, collocation, least_squares)."""
    arr = np.asarray(table, dtype=float)
    a, b = p["interval"]
    alpha = _alpha(p["alphas"][0])
    n = p["degree"]
    _check_grid(arr[:, 0], a, b, samples)
    target = np.array([exact_target(p["target"], x) for x in arr[:, 0]])
    err = float(np.abs(arr[:, 1] - target).max())
    _require(err <= 1e-14, f"target column off by {err:.3e}")
    colloc, lsq = ref_fits(p["target"], n, a, b, alpha, max(samples, n + 1))
    basis = ref_basis(n, arr[:, 0], a, b, alpha)
    tol = FIT_TOL * max(1.0, float(np.abs(target).max()))
    for col, coef, label in ((2, colloc, "collocation"), (3, lsq, "least_squares")):
        err = float(np.abs(arr[:, col] - basis @ coef).max())
        _require(err <= tol, f"{label} column off the independent refit by {err:.3e}")


def _svg_points(el) -> list[tuple[float, float]]:
    pts = []
    for pair in el.get("points").split():
        x, y = pair.split(",")
        pts.append((float(x), float(y)))
    return pts


def _check_svg(op, text: str) -> None:
    root = ET.fromstring(text.encode())
    _require(root.tag == SVG_NS + "svg", "root element is not svg")
    width, height = float(root.get("width")), float(root.get("height"))
    lines = [_svg_points(el) for el in root.iter(SVG_NS + "polyline")]
    circles = list(root.iter(SVG_NS + "circle"))
    for pts in lines:
        arr = np.asarray(pts)
        _require(bool(np.all(np.isfinite(arr))), "non-finite polyline coordinate")
        # panels are translated groups, so test against the whole canvas
        _require(bool(np.all((arr[:, 0] >= -1e-6) & (arr[:, 0] <= width + 1e-6))
                      and np.all((arr[:, 1] >= -1e-6) & (arr[:, 1] <= height + 1e-6))),
                 "polyline leaves the canvas")
    counts = [len(pts) for pts in lines]
    p = op.params
    if op.kind == "basis":
        panels = len(p["alphas"])
        _require(len(list(root.iter(SVG_NS + "g"))) == panels, "wrong number of panels")
        _require(counts == [op.output_samples // panels] * ((p["degree"] + 1) * panels),
                 "basis polyline point counts do not match")
        return
    if op.kind == "fit":
        _require(counts == [op.output_samples] * 3, "fit polyline point counts do not match")
        return
    n1 = len(PRESETS[p["preset"]])
    polys = {"curve": [n1], "elevate": [n1, n1 + 1]}.get(op.kind) or [n1] * 2 ** p["depth"]
    _require(counts == polys + [op.output_samples], f"{op.kind} polyline point counts do not match")
    _require(len(circles) == sum(polys), f"{len(circles)} vertex markers, expected {sum(polys)}")


def check_render(op, path, rng) -> None:
    text = path.read_text()
    p = op.params
    kind, fmt = op.kind, p["fmt"]
    if kind == "selftest":
        report = json.loads(text)
        _require(report.get("seed") == p["seed"], "selftest seed not echoed")
        names = [c["name"] for c in report["checks"]]
        _require(len(names) == 4 and report["pass"] is True
                 and all(c["pass"] and c["max_residual"] <= c["tolerance"]
                         for c in report["checks"]), "selftest report failed")
        return
    if fmt == "svg":
        _check_svg(op, text)
        return
    a, b = p["interval"]
    samples = op.output_samples // len(p["alphas"])
    payload = json.loads(text) if fmt == "json" else None
    if payload is not None:
        params = payload["params"]
        _require(params["command"] == kind and params["samples"] == samples
                 and params["format"] == "json", "json params do not echo the job")

    if kind == "basis":
        n = p["degree"]
        if fmt == "csv":
            header, rows = _csv(text)
            _require(header == ["alpha", "x"] + [f"B{i}" for i in range(n + 1)],
                     f"basis header {header}")
            by_alpha = {tok: [] for tok in p["alphas"]}
            for row in rows:
                by_alpha[_token(row[0])].append([float(v) for v in row[1:]])
        else:
            by_alpha = {tok: [] for tok in p["alphas"]}
            for entry in payload["samples"]:
                by_alpha[_token(entry["alpha"])].append([entry["x"], *entry["values"]])
        for tok, table in by_alpha.items():
            _check_grid([r[0] for r in table], a, b, samples)
            _check_basis_rows(table, n, a, b, _alpha(tok), rng)
        return

    if kind == "fit":
        if fmt == "csv":
            header, rows = _csv(text)
            _require(header == ["x", "target", "collocation", "least_squares"],
                     f"fit header {header}")
            table = [[float(v) for v in row] for row in rows]
        else:
            table = [[e["x"], *e["values"]] for e in payload["samples"]]
            _require(len(payload["polygons"]) == 2
                     and all(len(c) == p["degree"] + 1 for c in payload["polygons"]),
                     "fit coefficients missing")
            res = payload["results"]
            _require(all(math.isfinite(res[k][m]) for k in ("collocation", "least_squares")
                         for m in ("max_error", "l2_error")), "non-finite fit error")
        _check_fit_columns(table, p, samples)
        return

    polygon = PRESETS[p["preset"]]
    alpha = _alpha(p["alphas"][0])
    dim = len(polygon[0])
    if kind == "curve":
        expected = [polygon]
    elif kind == "elevate":
        expected = [polygon, exact_elevation(polygon)]
    else:
        expected = exact_subdivision(p["preset"], alpha, a, b, p["depth"])
    if fmt == "csv":
        header, rows = _csv(text)
        if kind == "curve":
            _require(header == ["x"] + [f"p{i}" for i in range(dim)], f"curve header {header}")
            table = [[float(v) for v in row] for row in rows]
            _check_grid([r[0] for r in table], a, b, samples)
            _check_curve_rows(table, polygon, a, b, alpha, rng)
            return
        _require(header == ["polygon", "point"] + [f"p{i}" for i in range(dim)],
                 f"{kind} header {header}")
        _check_polygons(_polygons_from_csv(rows, dim), expected, rng, polygon)
        return
    table = [[e["x"], *e["values"]] for e in payload["samples"]]
    _check_grid([r[0] for r in table], a, b, samples)
    _check_curve_rows(table, polygon, a, b, alpha, rng)
    _check_polygons(payload["polygons"], expected, rng, polygon)


def _token(value) -> str:
    if value in ("inf", math.inf):
        return "inf"
    return {-1.0: "-1", 2.0: "2", 5.0: "5"}[float(value)]


# ------------------------------------------------------------------ geometry


def _point_to_polyline(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    v0 = verts[:-1]
    dv = verts[1:] - v0
    len2 = np.maximum((dv**2).sum(-1), 1e-300)
    out = np.empty(len(points))
    for k, q in enumerate(points):
        t = np.clip(((q - v0) * dv).sum(-1) / len2, 0.0, 1.0)
        out[k] = np.sqrt((((v0 + t[:, None] * dv) - q) ** 2).sum(-1)).min()
    return out


def subdivision_bound(polygon, alpha: float, depth: int, samples: int) -> float:
    """Upper bound on the Hausdorff distance between the depth-k chain and
    the sampled curve on [0, 1].

    Each piece spans at most h = max(t, 1 - t)**depth of the w-range, with
    t = w(1/2).  Its control polygon lies within N(n) h**2 max|D2 P| of the
    curve (Nairn, Peters and Lutterkort 1999, N(n) = floor(n/2) ceil(n/2) /
    (2n)), and a chord of the sampled curve within dx**2 / 8 max|C''|.
    """
    P = np.asarray(polygon, dtype=float)
    n = len(P) - 1
    d1 = np.sqrt((np.diff(P, axis=0) ** 2).sum(-1)).max()
    d2 = np.sqrt((np.diff(P, 2, axis=0) ** 2).sum(-1)).max() if n >= 2 else 0.0
    t = float(ref_w(np.array([0.5]), 0.0, 1.0, alpha)[0])
    h = max(t, 1.0 - t) ** depth
    npl = (n // 2) * ((n + 1) // 2) / (2.0 * n)
    if math.isinf(alpha):
        w1, w2 = 1.0, 0.0
    else:
        dens = np.abs(np.array([0.0, 1.0]) + (alpha - 1.0))  # D(x) at x = 0 and 1
        w1 = float((abs(alpha * (alpha - 1.0)) / dens**2).max())
        w2 = float((2.0 * abs(alpha * (alpha - 1.0)) / dens**3).max())
    second = n * (n - 1) * d2 * w1**2 + n * d1 * w2
    chord = second / (8.0 * (samples - 1) ** 2)
    return 2.0 * (npl * h * h * d2 + chord)


def check_geometry(op, dist: float, chain: np.ndarray, dense: np.ndarray, rng) -> None:
    p = op.params
    polygon = np.asarray(PRESETS[p["preset"]], dtype=float)
    n1 = len(polygon)
    depth = p["depth"]
    diam = diameter(polygon)
    _require(chain.shape == (n1 * 2**depth, polygon.shape[1]), f"chain shape {chain.shape}")
    _require(bool(np.array_equal(chain[0], polygon[0]) and np.array_equal(chain[-1], polygon[-1])),
             "chain does not interpolate the polygon ends")
    joints = np.sqrt(((chain[n1 - 1:-1:n1] - chain[n1::n1]) ** 2).sum(-1))
    _require(float(joints.max(initial=0.0)) <= VALUE_TOL * diam, "subpolygons do not join")
    _require(dense.shape == (op.output_samples, polygon.shape[1]), "wrong sample count")
    _require(math.isfinite(dist) and dist >= 0.0, f"distance {dist!r}")
    upper = subdivision_bound(polygon, _alpha(p["alpha"]), depth, op.output_samples)
    _require(dist <= upper, f"Hausdorff {dist:.3e} above the subdivision bound {upper:.3e}")
    if depth >= 8:
        # test_deep_subdivision_is_close's bound; shallower chains need not meet it
        _require(dist <= 1e-3 * diam, f"Hausdorff {dist:.3e} above 1e-3 x diameter")
    mids = 0.5 * (chain[:-1] + chain[1:])
    densified = np.empty((2 * len(chain) - 1, chain.shape[1]))
    densified[0::2] = chain
    densified[1::2] = mids
    probe_a = densified[rng.choice(len(densified), size=16, replace=False)]
    probe_b = dense[rng.choice(len(dense), size=16, replace=False)]
    lower = max(_point_to_polyline(probe_a, dense).max(),
                _point_to_polyline(probe_b, densified).max())
    _require(dist >= lower - VALUE_TOL * diam,
             f"Hausdorff {dist:.3e} below a sampled one-sided distance {lower:.3e}")


# ------------------------------------------------------------------ pointwise


def check_pointwise(op, rows, extras) -> None:
    p = op.params
    a, b, n = p["a"], p["b"], p["degree"]
    width = b - a
    diam = diameter(p["points"])
    for (x, w, xinv, d1, d2, vals, rec, der1, der2, pt, apex, curv) in rows:
        _require(0.0 <= w <= 1.0 and d1 > 0.0 and math.isfinite(d2), f"homography at x={x!r}")
        vals = np.asarray(vals)
        _require(vals.shape == (n + 1,) and bool(np.all(vals >= 0.0)), "basis values shape/sign")
        part = abs(float(vals.sum()) - 1.0)
        _require(part <= PARTITION_TOL, f"partition residual {part:.3e}")
        rdev = float(np.abs(vals - np.asarray(rec)).max())
        _require(rdev <= RECURSION_TOL, f"recursion vs closed form {rdev:.3e}")
        dc = float(np.linalg.norm(np.asarray(apex) - np.asarray(pt))) / diam
        _require(dc <= DECASTELJAU_RTOL, f"deCasteljau vs direct {dc:.3e}")
        inv = abs(xinv - x) / width
        _require(inv <= INVERSE_RTOL, f"inverse round trip {inv:.3e}")
        _require(np.asarray(der1).shape == (n + 1,) and np.asarray(der2).shape == (n + 1,)
                 and bool(np.all(np.isfinite(der1)) and np.all(np.isfinite(der2))),
                 "basis derivatives")
        _require(math.isfinite(curv) and curv >= 0.0, "curvature")
    maxima = extras["maxima"]
    locs = [m.location for m in maxima]
    _require(len(maxima) == n + 1 and locs[0] == a and locs[-1] == b
             and all(u <= v for u, v in zip(locs, locs[1:])), "basis maxima")
    _require(len(extras["elevated"].polygon) == n + 2, "elevated degree")
    halves = extras["halves"]
    _require(len(halves.left.polygon) == n + 1 and len(halves.right.polygon) == n + 1,
             "subdivision degree")
    _require(math.isfinite(extras["elevation_residual"]), "elevation residual")
    _require(math.isfinite(extras["invariance"].max_deviation), "index invariance")
    _require(bool(np.all(np.isfinite(extras["fit"].coefficients))), "fit coefficients")
    _require(abs(extras["diameter"] - diam) <= VALUE_TOL * diam, "polygon diameter")
