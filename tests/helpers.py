"""Shared strategies and independent numerical oracles for the test suite.

The oracles deliberately avoid the library's own code paths: the raw
reparametrization formula is restated here, in floats and in exact
rationals, derivatives come from finite differences, maxima from
golden-section search, curvature from a three-point circle fit.  The
polygon files of the golden CLI jobs and the seeded random CLI jobs live
here too, for every test that runs those jobs.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from alphabezier import INFINITY, BasisSpec, BezierCurve, ControlPolygon, DomainError

#: The polygon files the golden CLI jobs read: a 1-D graph and a 3-D cubic.
GOLDEN_POLYGONS = {
    "line1d.txt": "# a 1-D graph\n0\n2\n-1\n3\n",
    "space3d.json": "[[0, 0, 0], [1, 2, 0.5], [3, 1, -1], [4, 0, 2]]",
}

#: The indices and intervals the random CLI jobs draw from.
RANDOM_INDICES = ("-1", "2", "5", "inf", "1.01", "-0.01", "1e300", "-1e300", "-3.5", "17.25")
RANDOM_INTERVALS = ("0,1", "-1,2", "-2.5,0.125", "3,1e4", "-1e-3,1e-3")


def _random_argv(rng, polygons, command):
    argv = ["--command", command, f"--interval={rng.choice(RANDOM_INTERVALS)}",
            "--samples", str(int(rng.choice([2, 3, int(rng.integers(2, 200))])))]
    if command == "basis":
        count = int(rng.choice([1, 1, 2, 3, 4]))
        argv += [f"--alpha={','.join(rng.choice(RANDOM_INDICES, size=count))}",
                 "--degree", str(int(rng.integers(1, 15)))]
        return argv
    argv.append(f"--alpha={rng.choice(RANDOM_INDICES)}")
    if command == "fit":
        return argv + ["--degree", str(int(rng.integers(1, 9))),
                       "--target", str(rng.choice(["rational1", "rational2", "sine", "constant"]))]
    argv += ["--polygon", str(rng.choice(polygons))]
    if command == "subdivide":
        argv += ["--depth", str(int(rng.integers(0, 7)))]
    return argv


def random_jobs(tmp_path, seed, jobs):
    """The argv of ``jobs`` seeded random CLI jobs without --out, cycling through
    basis, curve, subdivide, elevate and fit: panel lists of up to four
    indices, the presets and random 1-D, 2-D and 3-D polygon files of 2, 4
    and 7 points, which are written to ``tmp_path``, and depths 0 to 6."""
    rng = np.random.default_rng(seed)
    polygons = []
    for dim in (1, 2, 3):
        for npts in (2, 4, 7):
            path = tmp_path / f"poly{dim}d{npts}.json"
            path.write_text(json.dumps(rng.uniform(-10.0, 10.0, size=(npts, dim)).tolist()))
            polygons.append(str(path))
    polygons += list("abcdefghi")
    commands = ["basis", "curve", "subdivide", "elevate", "fit"]
    for k in range(jobs):
        yield _random_argv(rng, polygons, commands[k % len(commands)])


# ------------------------------------------------------------ strategies

finite_alpha = st.one_of(
    st.floats(min_value=-50.0, max_value=-0.01),
    st.floats(min_value=1.01, max_value=50.0),
)
any_alpha = st.one_of(finite_alpha, st.just(INFINITY))

intervals = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.5, max_value=20.0),
).map(lambda t: (t[0], t[0] + t[1]))

unit = st.floats(min_value=0.0, max_value=1.0)

degrees = st.integers(min_value=1, max_value=8)


def in_interval(a: float, b: float, t: float) -> float:
    """Map t in [0, 1] onto [a, b] without falling outside by roundoff."""
    return min(max(a + t * (b - a), a), b)


# -------------------------------------------------------------- oracles


def raw_w(a: float, b: float, alpha: float, x: float) -> float:
    """Textbook reparametrization formula, restated independently."""
    if math.isinf(alpha):
        return (x - a) / (b - a)
    return alpha * (x - a) / (x + (alpha - 1.0) * b - alpha * a)


def central_diff1(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of f by bisection; f(lo) and f(hi) must bracket a sign change."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo: float, hi: float, tol: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def argmax_oracle(f, lo: float, hi: float) -> float:
    """Golden-section bracket plus one parabolic refinement step."""
    width = hi - lo
    x = golden_max(f, lo, hi, tol=1e-6 * width)
    d = 1e-5 * width
    fm, f0, fp = f(x - d), f(x), f(x + d)
    denom = fm - 2.0 * f0 + fp
    if denom != 0.0:
        x += 0.5 * d * (fm - fp) / denom
    return x


def circumradius(p1, p2, p3) -> float:
    """Radius of the circle through three planar points."""
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p1, p2, p3))
    la = np.linalg.norm(p2 - p3)
    lb = np.linalg.norm(p1 - p3)
    lc = np.linalg.norm(p1 - p2)
    cross = abs((p2 - p1)[0] * (p3 - p1)[1] - (p2 - p1)[1] * (p3 - p1)[0])
    return la * lb * lc / (2.0 * cross)


def hull_violation(hull_points, queries) -> float:
    """Largest signed distance of any query point outside the convex hull."""
    pts = np.atleast_2d(np.asarray(hull_points, dtype=float))
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if pts.shape[1] == 1:
        lo, hi = pts.min(), pts.max()
        return float(np.maximum(lo - q, q - hi).max())
    from scipy.spatial import ConvexHull

    eqs = ConvexHull(pts).equations
    return float((q @ eqs[:, :-1].T + eqs[:, -1]).max())


def second_derivative_branches(n: int, i: int, w: float, w1: float, w2: float) -> float:
    """The five printed second-derivative cases, as published, where they parse.

    Sign convention at the right end follows the endpoint-tangent relation
    (the i = n branch is the positive one).  Returns None for (n, i) pairs
    the printed cases do not cover unambiguously.
    """
    if i == 0:
        return n * (1 - w) ** (n - 2) * (-w2 * (1 - w) + (n - 1) * w1**2)
    if i == 1 and n >= 3:
        return n * (1 - w) ** (n - 3) * (
            w2 * (1 - w) * (1 - n * w) - (n - 1) * w1**2 * (2 - n * w)
        )
    if i == n - 1 and n >= 3:
        return n * w ** (n - 3) * (
            w2 * w * (n - 1 - n * w) + (n - 1) * w1**2 * (n - 2 - n * w)
        )
    if i == n:
        return n * w ** (n - 2) * (w2 * w + (n - 1) * w1**2)
    if 2 <= i <= n - 2:
        return math.comb(n, i) * w ** (i - 2) * (1 - w) ** (n - i - 2) * (
            (i - n * w) * w * (1 - w) * w2
            + ((n - 1) * (n * w - 2 * i) * w + i * (i - 1)) * w1**2
        )
    return None


# ------------------------------------------------- exact rational oracles
# The paper's homography in Fraction arithmetic, where 1 - w is exact: the
# library's float results are measured against these as relative errors.


def exact_weights(h, x: float) -> tuple[Fraction, Fraction]:
    """(w, 1 - w) at the float x from the textbook formula, exactly."""
    a, b, x = Fraction(h.a), Fraction(h.b), Fraction(x)
    if math.isinf(h.alpha):
        w = (x - a) / (b - a)
    else:
        al = Fraction(h.alpha)
        w = al * (x - a) / (x + (al - 1) * b - al * a)
    return w, 1 - w


def exact_values(spec, x: float) -> tuple[list[int], int]:
    """C(n, i) w**i (1 - w)**(n - i) at the float x, exactly.

    Returned as integer numerators over one common denominator: a
    ``Fraction`` per entry would spend most of its time on gcds of
    numbers tens of thousands of bits long at degree 60.
    """
    w, u = exact_weights(spec.homography, x)  # u = 1 - w shares w's denominator
    n = spec.degree
    nums = [math.comb(n, i) * w.numerator**i * u.numerator ** (n - i) for i in range(n + 1)]
    return nums, w.denominator**n


def exact_inverse(h, w: Fraction) -> Fraction:
    """The x with w(x) = w, from the textbook formula, exactly."""
    a, b = Fraction(h.a), Fraction(h.b)
    if math.isinf(h.alpha):
        return a + w * (b - a)
    al = Fraction(h.alpha)
    return a + w * (al - 1) * (b - a) / (al - w)


def exact_derivatives(spec, x, order):
    """Chain-rule derivatives of the closed form in exact rational arithmetic."""
    n, h = spec.degree, spec.homography
    a, b, x = Fraction(h.a), Fraction(h.b), Fraction(x)
    w, u = exact_weights(h, x)
    if math.isinf(h.alpha):
        w1, w2 = 1 / (b - a), Fraction(0)
    else:
        al = Fraction(h.alpha)
        d = x + (al - 1) * b - al * a
        w1 = al * (al - 1) * (b - a) / d**2
        w2 = -2 * al * (al - 1) * (b - a) / d**3

    def term(c, p, q):  # c * w**p * u**q, with a vanishing c never raised to p < 0
        return c * w**p * u**q if c else 0

    out = []
    for i in range(n + 1):
        g1 = term(i, i - 1, n - i) - term(n - i, i, n - i - 1)
        if order == 1:
            out.append(math.comb(n, i) * g1 * w1)
            continue
        g2 = (term(i * (i - 1), i - 2, n - i) - term(2 * i * (n - i), i - 1, n - i - 1)
              + term((n - i) * (n - i - 1), i, n - i - 2))
        out.append(math.comb(n, i) * (g2 * w1 * w1 + g1 * w2))
    return out


def worst_relative_error(computed, nums, den, floor: float = 1e-280) -> float:
    """Largest |c - e| / max(e, floor) over floats c and exact e = num / den >= 0.

    Computed in integers and rounded once at the end.  The floor covers
    entries so small that a partial power on the way to them passes
    through the subnormal range, where floats hold fewer digits.
    """
    fn, fd = floor.as_integer_ratio()
    worst = 0.0
    for c, num in zip(computed, nums):
        cn, cd = float(c).as_integer_ratio()
        worst = max(worst, abs(cn * den - cd * num) * fd / (cd * max(num * fd, fn * den)))
    return worst


def rows_per_point(spec, xs) -> np.ndarray:
    """One ``spec.values(x)`` row per point: the table a per-point loop builds."""
    return np.array([spec.values(x) for x in np.asarray(xs, dtype=float)])


# ------------------------------------------- one-point calls, bit for bit
# The one-point code paths as they stood before they were fused: the fast
# versions must return the same bytes, or raise the same error, on these
# edge cases.  Unlike the oracles above they reuse the library's unchanged
# pieces (``weights``, ``_terms``, the closed-form ``values``).

#: Indices at both margins of the forbidden band, far out, and the linear map.
EDGE_ALPHAS = (-1e-9, 1.0 + 1e-9, -0.01, 1.01, 1e300, -1e300, INFINITY)

#: Intervals; two have an end at -0.0.
EDGE_INTERVALS = ((0.0, 1.0), (-2.5, 4.0), (-0.0, 3.0), (-1.5, -0.0))


def edge_points(a: float, b: float) -> list[float]:
    """a and b, points clamped onto them, interior points, and one point out of range."""
    w = b - a
    return [a, b, a - 0.5e-12 * w, b + 0.5e-12 * w, a + 1e-9 * w, a + 0.3 * w,
            0.5 * (a + b), b - 1e-9 * w, b + 1e-6 * w]


def _bits(value):
    """A comparable form of a result: types, shapes and the bytes of every float."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, *map(_bits, value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                *(_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return (type(value).__name__, np.float64(value).tobytes())


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and text of the error it raises."""
    try:
        return _bits(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def reference_w_derivatives(h, x) -> tuple:
    """w'(x) and w''(x) as two separate calls once computed them, each clamping x."""
    d = h._terms(x)[2]
    w1 = h.p * h.q * h.width / d / d
    d = h._terms(x)[2]
    return w1, 2.0 * h.gap * (h.p * h.q * h.width / d / d) / d


def reference_differenced(spec, x, order: int) -> np.ndarray:
    """The w-difference table, padded by ``np.concatenate`` one level at a time."""
    n = spec.degree
    if order > n:
        return np.zeros(n + 1)
    d = BasisSpec(n - order, spec.homography).values(x)
    for _ in range(order):
        lower, d = d, np.concatenate(([0.0], d))
        d[:-1] -= lower
    return d


def reference_derivatives(spec, x, order: int) -> np.ndarray:
    """Basis x-derivatives from w' and w'' with a clamp each and two separate tables."""
    n = spec.degree
    w1, w2 = reference_w_derivatives(spec.homography, x)
    g1 = reference_differenced(spec, x, 1)
    if order == 1:
        return g1 * (n * w1)
    return reference_differenced(spec, x, 2) * (n * (n - 1) * w1 * w1) + g1 * (n * w2)


# The deCasteljau recursion as it stood before the batched kernel: a list of
# levels, children gathered point by point, and a depth-first recursion of
# single splits.  Only ``weights`` is the library's.


def reference_tableau(curve, x) -> list:
    """The interpolation levels at x, one array each; level 0 is the polygon."""
    w, u = curve.homography.weights(x)
    levels = [curve.polygon.points]
    for _ in range(curve.spec.degree):
        cur = levels[-1]
        levels.append(w * cur[1:] + u * cur[:-1])
    return levels


def reference_children(curve, c) -> tuple:
    """The child polygons' points at c: the first point of each level and the anti-diagonal."""
    levels = reference_tableau(curve, c)
    n = len(levels) - 1
    return (np.array([lvl[0] for lvl in levels]),
            np.array([levels[n - i][i] for i in range(n + 1)]))


def reference_subdivide_recursive(curve, depth) -> list:
    """Polygons of depth rounds of midpoint splits, depth first, in curve order."""
    if depth == 0:
        return [curve.polygon]
    c = 0.5 * (curve.a + curve.b)
    if not curve.a < c < curve.b:
        raise DomainError(f"no interior midpoint in ({curve.a}, {curve.b})")
    pieces = []
    for pts in reference_children(curve, c):
        child = BezierCurve(ControlPolygon(pts), curve.spec)
        pieces += reference_subdivide_recursive(child, depth - 1)
    return pieces


def reference_subdivision_stack(curve, depth) -> np.ndarray:
    """The pieces of ``reference_subdivide_recursive`` stacked into one array."""
    return np.stack([p.points for p in reference_subdivide_recursive(curve, depth)])


def reference_subdivision_levels(curve, depth) -> list:
    """``reference_subdivision_stack`` at every depth from 0 to ``depth``, from
    one depth-first recursion: the pieces of depth k are the split tree's nodes
    on level k, which come out in curve order, and each is computed as a
    recursion to depth k computes it."""
    levels = [[] for _ in range(depth + 1)]
    c = 0.5 * (curve.a + curve.b)
    if depth and not curve.a < c < curve.b:
        raise DomainError(f"no interior midpoint in ({curve.a}, {curve.b})")

    def split(piece, level):
        levels[level].append(piece.polygon.points)
        if level < depth:
            for pts in reference_children(piece, c):
                split(BezierCurve(ControlPolygon(pts), curve.spec), level + 1)

    split(curve, 0)
    return [np.stack(level) for level in levels]
