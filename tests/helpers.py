"""Shared strategies and independent numerical oracles for the test suite.

The oracles deliberately avoid the library's own code paths: the raw
reparametrization formula is restated here, derivatives come from finite
differences, maxima from golden-section search, curvature from a
three-point circle fit.
"""

import math

import numpy as np
from hypothesis import strategies as st

from alphabezier import INFINITY

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


# ---------------------------------------------------- reference kernels
# The per-point loops that the array kernels replaced, kept as oracles: the
# library must agree with them bit for bit.


def reference_powers(base: float, kmax: int) -> np.ndarray:
    """[1, base, base**2, ...] by repeated multiplication."""
    out = np.empty(kmax + 1)
    out[0] = 1.0
    for k in range(1, kmax + 1):
        out[k] = out[k - 1] * base
    return out


def reference_values(spec, x: float) -> np.ndarray:
    """The closed form at one point, from the scalar map and the power loop."""
    from alphabezier.basis import binomial_row

    w = spec.homography.value(x)
    n = spec.degree
    return binomial_row(n) * reference_powers(w, n) * reference_powers(1.0 - w, n)[::-1]


def reference_table(spec, xs) -> np.ndarray:
    """One reference_values row per point."""
    return np.array([reference_values(spec, x) for x in np.asarray(xs, dtype=float)])
