"""Formal acceptance gate.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or ``-rA``) and asserts at the stated tolerance.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np

from alphabezier import (
    INFINITY,
    BasisSpec,
    HomographyMap,
    fit_least_squares,
    index_invariance,
    make_curve,
    preset_polygon,
    reindexed,
)
from alphabezier.cli import main
from helpers import argmax_oracle, central_diff1, central_diff2, exact_inverse

PRESET_NAMES = "abcdefghi"
FIGURE_ALPHAS = (-1.0, 2.0, 5.0, INFINITY)


def report(num: int, name: str, detail: str, ok: bool) -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def random_interval(rng) -> tuple[float, float]:
    a = rng.uniform(-10.0, 10.0)
    return a, a + rng.uniform(0.5, 20.0)


def test_c01_partition_of_unity():
    rng = np.random.default_rng(101)
    alphas = (-5.0, -1.0, 2.0, 5.0, 1e6, INFINITY)
    worst = 0.0
    for _ in range(1000):
        a, b = random_interval(rng)
        spec = BasisSpec(int(rng.integers(1, 11)),
                         HomographyMap(a, b, float(rng.choice(alphas))))
        x = rng.uniform(a, b)
        worst = max(worst, abs(spec.values(x).sum() - 1.0))
    report(1, "partition of unity", f"worst {worst:.3e} <= 1e-12", worst <= 1e-12)


def test_c02_symmetry():
    rng = np.random.default_rng(102)
    alphas = (-5.0, -1.0, 2.0, 5.0, INFINITY)
    worst = 0.0
    for _ in range(500):
        a, b = random_interval(rng)
        alpha = float(rng.choice(alphas))
        n = int(rng.integers(1, 9))
        x = rng.uniform(a, b)
        y = min(max(a + b - x, a), b)
        direct = BasisSpec(n, HomographyMap(a, b, alpha)).values(y)
        mirrored = BasisSpec(n, HomographyMap(a, b, 1.0 - alpha)).values(x)[::-1]
        worst = max(worst, float(np.abs(direct - mirrored).max()))
    report(2, "symmetry under index mirroring", f"worst {worst:.3e} <= 1e-12",
           worst <= 1e-12)


def test_c03_decasteljau_equals_direct():
    worst = 0.0
    for name in PRESET_NAMES:
        poly = preset_polygon(name)
        diam = poly.diameter()
        for alpha in FIGURE_ALPHAS:
            curve = make_curve(poly, alpha)
            for x in np.linspace(0.0, 1.0, 100):
                apex, _ = curve.decasteljau(x)
                dev = float(np.abs(apex - curve.point(x)).max()) / diam
                worst = max(worst, dev)
    report(3, "deCasteljau equals direct evaluation",
           f"worst {worst:.3e} <= 1e-12 of diameter", worst <= 1e-12)


def test_c04_degree_elevation():
    worst = 0.0
    ends_exact = True
    for name in PRESET_NAMES:
        poly = preset_polygon(name)
        diam = poly.diameter()
        for alpha in FIGURE_ALPHAS:
            curve = make_curve(poly, alpha)
            lifted = curve.elevated()
            ends_exact &= lifted.polygon[0].tolist() == curve.polygon[0].tolist()
            ends_exact &= lifted.polygon[-1].tolist() == curve.polygon[-1].tolist()
            ends_exact &= lifted.point(0.0).tolist() == curve.polygon[0].tolist()
            ends_exact &= lifted.point(1.0).tolist() == curve.polygon[-1].tolist()
            for x in np.linspace(0.0, 1.0, 100):
                dev = float(np.abs(lifted.point(x) - curve.point(x)).max()) / diam
                worst = max(worst, dev)
    report(4, "degree elevation preserves the curve",
           f"worst {worst:.3e} <= 1e-12 of diameter, endpoints exact={ends_exact}",
           worst <= 1e-12 and ends_exact)


def test_c05_subdivision():
    worst_expand = 0.0
    worst_follow = 0.0
    for name in PRESET_NAMES:
        poly = preset_polygon(name)
        for alpha in FIGURE_ALPHAS:
            curve = make_curve(poly, alpha)
            n = curve.spec.degree
            for c in (0.3, 0.5, 0.77):
                tab = curve.tableau(c)
                for j in range(n + 1):
                    vals = BasisSpec(j, curve.homography).values(c)
                    for k in range(n + 1 - j):
                        expansion = sum(poly.points[i + k] * vals[i] for i in range(j + 1))
                        worst_expand = max(worst_expand,
                                           float(np.abs(tab.levels[j][k] - expansion).max()))
            parts = curve.subdivide(0.5)
            u = curve.homography.split_left(0.5)
            v = curve.homography.split_right(0.5)
            for t in np.linspace(0.0, 1.0, 50):
                worst_follow = max(
                    worst_follow,
                    float(np.abs(parts.left.point(t) - curve.point(u(t))).max()),
                    float(np.abs(parts.right.point(t) - curve.point(v(t))).max()),
                )
    w = HomographyMap(0.0, 1.0, 2.0).value(0.5)
    weights_ok = w == 2.0 / 3.0 and abs((1.0 - w) - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
    ok = worst_expand <= 1e-12 and worst_follow <= 1e-10 and weights_ok
    report(5, "subdivision",
           f"tableau expansion {worst_expand:.3e} <= 1e-12, "
           f"children follow parent {worst_follow:.3e} <= 1e-10, "
           f"midpoint weights (2/3, 1/3) ok={weights_ok}", ok)


def test_c06_maxima():
    worst_loc = 0.0
    worst_val = 0.0
    worst_exact = 0.0
    heights_equal = True
    reference_heights = None
    for alpha in (-1.0, 2.0, 5.0):
        for (a, b) in ((0.0, 1.0), (-2.0, 3.0)):
            for n in (2, 3, 5):
                spec = BasisSpec(n, HomographyMap(a, b, alpha))
                points = spec.maxima()
                key = (a, b, n)
                if reference_heights is None:
                    reference_heights = {}
                heights = [mp.value for mp in points]
                heights_equal &= reference_heights.setdefault(key, heights) == heights
                for mp in points:
                    exact = exact_inverse(spec.homography, Fraction(mp.index, n))
                    worst_exact = max(worst_exact, float(abs(Fraction(mp.location) - exact))
                                      / max(abs(a), abs(b)))
                    if mp.index in (0, n):
                        assert mp.location == (a, b)[mp.index // n]
                        continue
                    located = argmax_oracle(lambda x: spec.values(x)[mp.index], a, b)
                    worst_loc = max(worst_loc, abs(located - mp.location) / (b - a))
                    worst_val = max(worst_val, abs(spec.values(located)[mp.index] - mp.value))
    ok = worst_exact <= 1e-15 and worst_loc <= 1e-8 and worst_val <= 1e-10 and heights_equal
    report(6, "basis maxima",
           f"location vs exact {worst_exact:.3e} <= 1e-15, vs search {worst_loc:.3e} <= 1e-8, "
           f"height {worst_val:.3e} <= 1e-10, heights index-free={heights_equal}", ok)


def test_c07_derivatives():
    rng = np.random.default_rng(107)
    worst1 = worst2 = 0.0
    points_checked = 0
    while points_checked < 100:
        alpha = float(rng.choice([-5.0, -1.0, 2.0, 5.0, np.inf]))
        a, b = random_interval(rng)
        n = int(rng.integers(2, 7))
        spec = BasisSpec(n, HomographyMap(a, b, alpha))
        h1, h2 = 1e-6 * (b - a), 1e-4 * (b - a)
        for x in rng.uniform(a + 2 * h2, b - 2 * h2, 4):
            d1 = spec.derivatives(x, 1)
            fd1 = central_diff1(spec.values, x, h1)
            worst1 = max(worst1, float(np.abs(fd1 - d1).max() / np.abs(d1).max()))
            d2 = spec.derivatives(x, 2)
            fd2 = central_diff2(spec.values, x, h2)
            worst2 = max(worst2, float(np.abs(fd2 - d2).max() / np.abs(d2).max()))
            points_checked += 1

    def endpoint_lists(n, alpha, a, b):
        sa = n * alpha / ((alpha - 1.0) * (b - a))
        sb = n * (alpha - 1.0) / (alpha * (b - a))
        at_a = np.zeros(n + 1)
        at_a[0], at_a[1] = -sa, sa
        at_b = np.zeros(n + 1)
        at_b[n - 1], at_b[n] = -sb, sb
        return at_a, at_b

    ends_ok = True
    for (a, b) in ((0.0, 1.0), (1.0, 3.0)):
        for alpha in (-1.0, 2.0, 5.0):
            for n in range(1, 7):
                spec = BasisSpec(n, HomographyMap(a, b, alpha))
                da, db = spec.derivatives(a, 1), spec.derivatives(b, 1)
                want_a, want_b = endpoint_lists(n, alpha, a, b)
                # structural zeros are exact; the four leg values are the
                # closed form, bit-equal when every factor is dyadic
                ends_ok &= np.array_equal(da[2:], want_a[2:])
                ends_ok &= np.array_equal(db[: max(n - 1, 0)], want_b[: max(n - 1, 0)])
                if alpha in (-1.0, 2.0):
                    ends_ok &= np.array_equal(da, want_a) and np.array_equal(db, want_b)
                else:
                    scale = np.abs(want_a).max()
                    ends_ok &= float(np.abs(da - want_a).max()) <= 2 * math.ulp(scale)
                    scale = np.abs(want_b).max()
                    ends_ok &= float(np.abs(db - want_b).max()) <= 2 * math.ulp(scale)
    ok = worst1 <= 1e-6 and worst2 <= 1e-4 and ends_ok
    report(7, "basis derivatives",
           f"order-1 fd {worst1:.3e} <= 1e-6, order-2 fd {worst2:.3e} <= 1e-4, "
           f"endpoint closed forms ok={ends_ok}", ok)


def test_c08_index_invariance():
    curve = make_curve(preset_polygon("c"), -1.0, 0.0, 1.0)
    other = reindexed(curve, 5.0, (2.0, 7.0))
    report_corr = index_invariance(curve, other, samples=200)
    point_dev = report_corr.max_deviation / curve.polygon.diameter()
    f, g = curve.homography, other.homography
    worst_curv = 0.0
    for x in np.linspace(0.02, 0.98, 50):
        y = g.inverse(f.value(x))
        ka, kb = curve.curvature(x), other.curvature(y)
        worst_curv = max(worst_curv, abs(ka - kb) / abs(ka))
    ok = point_dev <= 1e-10 and worst_curv <= 1e-8
    report(8, "index invariance of the traced curve",
           f"point correspondence {point_dev:.3e} <= 1e-10 of diameter, "
           f"curvature {worst_curv:.3e} <= 1e-8 relative", ok)


def test_c09_classical_limit():
    worst = 0.0
    for n in range(1, 7):
        big = BasisSpec(n, HomographyMap(0.0, 1.0, 1e8))
        classical = BasisSpec(n, HomographyMap(0.0, 1.0, INFINITY))
        for x in np.linspace(0.0, 1.0, 201):
            worst = max(worst, float(np.abs(big.values(x) - classical.values(x)).max()))
    report(9, "classical basis as the large-index limit",
           f"worst {worst:.3e} <= 1e-6", worst <= 1e-6)


def _figure_jobs(outdir):
    jobs = []
    for degree in range(1, 6):
        jobs.append((f"basis{degree}.svg",
                     ["--command", "basis", "--degree", str(degree)]))
    for alpha in ("-1", "2", "5", "inf"):
        jobs.append((f"subdivision_alpha_{alpha}.svg",
                     ["--command", "subdivide", "--polygon", "g",
                      "--alpha", alpha, "--depth", "4"]))
    return [(outdir / name, args) for name, args in jobs]


def test_c10_figure_reproduction(tmp_path):
    digests = []
    for run in ("first", "second"):
        rundir = tmp_path / run
        run_digests = []
        for out, args in _figure_jobs(rundir):
            code = main([*args, "--out", str(out)])
            assert code == 0
            data = out.read_bytes()
            assert data.startswith(b"<?xml")
            run_digests.append(hashlib.sha256(data).hexdigest())
        digests.append(run_digests)
    stable = digests[0] == digests[1]
    report(10, "figure families regenerate deterministically",
           f"9 figures, snapshot hashes stable across runs={stable}", stable)


def test_c11_rational_target_stays_out_of_reach():
    f = lambda t: t / (1.0 + t * t)
    floors_ok = True
    trends = []
    for alpha in (2.0, INFINITY):
        errors = []
        for n in range(1, 13):
            spec = BasisSpec(n, HomographyMap(0.0, 1.0, alpha))
            errors.append(fit_least_squares(f, spec, 256).max_error)
        floors_ok &= all(e > 1e-12 for e in errors)
        trends.append(errors[-1] < errors[0])
    ok = floors_ok and all(trends)
    report(11, "no exact fit for the rational circle component",
           f"errors shrink but stay above 1e-12 for degrees 1..12: {floors_ok}", ok)
