"""Relative accuracy against exact rational oracles, over random indices.

The indices cover both margins of the forbidden band, indices 0.01 from
it, random ones just outside it, magnitudes up to 1e300 and both signs of
``inf``; the points include both ends and the floats one ulp inside them.
Every oracle evaluates the paper's homography in ``Fraction`` arithmetic,
where 1 - w is exact.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from alphabezier import INFINITY, BasisSpec, HomographyMap, make_curve
from alphabezier.basis import MAX_DEGREE
from helpers import (
    exact_derivatives,
    exact_inverse,
    exact_values,
    exact_weights,
    worst_relative_error,
)

BAND_ALPHAS = (-1e-9, 1.0 + 1e-9, -0.01, 1.01, INFINITY, -INFINITY)


def draw_alpha(rng) -> float:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return float(BAND_ALPHAS[int(rng.integers(0, len(BAND_ALPHAS)))])
    if kind == 1:  # just outside the band
        gap = 10.0 ** rng.uniform(-9.0, 0.0)
        return -gap if rng.integers(0, 2) else 1.0 + gap
    magnitude = 10.0 ** rng.uniform(0.01, 300.0 if kind == 2 else 2.0)
    return -magnitude if rng.integers(0, 2) else magnitude


def draw_map(rng) -> HomographyMap:
    a = float(rng.uniform(-5.0, 5.0) * 10.0 ** rng.integers(0, 4))
    return HomographyMap(a, a + float(10.0 ** rng.uniform(-2.0, 2.0)), draw_alpha(rng))


def draw_points(rng, h: HomographyMap) -> np.ndarray:
    a, b = h.a, h.b
    near = [a, b, math.nextafter(a, b), math.nextafter(b, a),
            b - 1e-8 * h.width, a + 1e-12 * h.width]
    return np.array(near + list(rng.uniform(a, b, 4)))


def test_values_are_relatively_accurate_at_every_degree():
    rng = np.random.default_rng(61)
    for n in range(MAX_DEGREE + 1):
        for _ in range(3):
            spec = BasisSpec(n, draw_map(rng))
            xs = draw_points(rng, spec.homography)
            for x, row in zip(xs, spec.values(xs)):
                err = worst_relative_error(row, *exact_values(spec, x))
                assert err <= 1e-13, (n, spec.homography, x, err)


def test_curve_samples_are_accurate_relative_to_their_terms():
    rng = np.random.default_rng(62)
    for _ in range(120):
        h = draw_map(rng)
        n = int(rng.integers(1, 21))
        pts = rng.normal(size=(n + 1, int(rng.integers(1, 4)))) * 10.0 ** rng.uniform(-3, 3)
        curve = make_curve(pts, h.alpha, h.a, h.b)
        xs = draw_points(rng, h)
        for x, sample in zip(xs, curve.samples(xs)):
            nums, den = exact_values(curve.spec, x)
            for j in range(pts.shape[1]):
                column = [Fraction(p) for p in pts[:, j]]
                exact = sum(num * p for num, p in zip(nums, column))
                scale = sum(num * abs(p) for num, p in zip(nums, column))
                assert abs(Fraction(sample[j]) * den - exact) <= Fraction(1e-13) * scale, (h, x)


def test_derivatives_are_accurate_relative_to_their_largest_entry():
    rng = np.random.default_rng(63)
    for n in range(13):
        for _ in range(4):
            spec = BasisSpec(n, draw_map(rng))
            for x in draw_points(rng, spec.homography)[::2]:
                for order in (1, 2):
                    exact = exact_derivatives(spec, x, order)
                    scale = max(abs(v) for v in exact)
                    err = max(abs(Fraction(float(v)) - e)
                              for v, e in zip(spec.derivatives(x, order), exact))
                    assert err <= Fraction(1e-12) * scale, (n, spec.homography, x, order)


def test_split_reparams_are_accurate_on_both_sides():
    # x is an average of a and b, so its error is measured against their size
    rng = np.random.default_rng(64)
    for _ in range(150):
        h = draw_map(rng)
        c = h.a + h.width * float(rng.uniform(0.05, 0.95))
        wc, uc = exact_weights(h, c)
        scale = max(abs(h.a), abs(h.b))
        for t in draw_points(rng, h):
            wt, ut = exact_weights(h, t)
            for seg, w in ((h.split_left(c), wc * wt), (h.split_right(c), 1 - uc * ut)):
                err = abs(Fraction(seg(t)) - exact_inverse(h, w))
                assert err <= Fraction(1e-13) * Fraction(scale), (h, c, t, seg.side)


def test_huge_indices_give_finite_weights():
    for alpha in (1e308, -1e308, 1.7e308, -1e300):
        h = HomographyMap(0.0, 10.0, alpha)
        assert math.isfinite(h.value(5.0))
        assert h.value(5.0) == pytest.approx(0.5, abs=1e-15)
        assert math.isfinite(h.deriv1(5.0)) and math.isfinite(h.deriv2(5.0))
