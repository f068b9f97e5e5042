import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphabezier import INFINITY, ArgumentError, DomainError, HomographyMap, Side
from alphabezier.homography import _clamp
from helpers import (
    EDGE_ALPHAS,
    EDGE_INTERVALS,
    any_alpha,
    bisect_root,
    central_diff1,
    central_diff2,
    edge_points,
    in_interval,
    intervals,
    outcome,
    raw_w,
    reference_w_derivatives,
    unit,
)


# ------------------------------------------------------------ construction


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, -1.0)])
def test_interval_must_increase(a, b):
    with pytest.raises(ArgumentError):
        HomographyMap(a, b, 2.0)


@pytest.mark.parametrize("alpha", [0.0, -0.0, 0.5, 1.0, 1.0 + 5e-10, -5e-10, float("nan")])
def test_forbidden_indices_rejected(alpha):
    with pytest.raises(ArgumentError):
        HomographyMap(0.0, 1.0, alpha)


@pytest.mark.parametrize("alpha", [-1.0, 2.0, -1e-9, 1.0 + 1e-9, 1e8, INFINITY, -INFINITY])
def test_valid_indices_accepted(alpha):
    h = HomographyMap(0.0, 1.0, alpha)
    assert h.alpha == alpha
    assert max(h.p, h.q) == 1.0 and min(h.p, h.q) > 0.0
    assert (h.p == h.q) == (abs(alpha) > 2**53)  # inf, or alpha - 1 rounding to alpha


def test_non_finite_endpoints_rejected():
    with pytest.raises(ArgumentError):
        HomographyMap(0.0, math.inf, 2.0)


@pytest.mark.parametrize("a,b", [(0.0, 5e-324), (1e-310, 1.1e-310), (-1e308, 1e308)])
def test_width_must_be_a_finite_normal_float(a, b):
    # where p (x - a) and q (b - x) could both round to 0, or overflow
    with pytest.raises(ArgumentError):
        HomographyMap(a, b, -1.0)


# ------------------------------------------------------------------ value


def test_value_example():
    h = HomographyMap(0.0, 1.0, 2.0)
    assert h.value(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_endpoint_values_are_bit_exact():
    h = HomographyMap(-3.0, 7.0, -4.0)
    assert h.value(-3.0) == 0.0
    assert h.value(7.0) == 1.0


def test_classical_value_is_linear():
    h = HomographyMap(0.0, 1.0, INFINITY)
    assert h.value(0.25) == 0.25
    assert h.deriv1(0.3) == 1.0
    assert h.deriv2(0.3) == 0.0


def test_domain_clamp_and_error():
    h = HomographyMap(0.0, 1.0, 2.0)
    assert h.value(1.0 + 1e-13) == 1.0
    assert h.value(-1e-13) == 0.0
    with pytest.raises(DomainError):
        h.value(1.0 + 1e-9)
    with pytest.raises(DomainError):
        h.value(-1e-9)


def test_array_clamp_keeps_the_bits_of_np_clip():
    # the array path clamps with np.minimum(hi, np.maximum(lo, x)): in that
    # argument order a zero meeting a zero end of the other sign, and every
    # other value, comes out as np.clip gives it
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.25, 1.0, -1.0, 1e300])
    ends = (0.0, -0.0, 1e-300, -1e-300, 0.5, 1.0, -1.0)
    for lo, hi in ((lo, hi) for lo in ends for hi in ends if lo <= hi):
        for x in (values, values[::-1], values[::3], np.tile(values, 7), values.reshape(2, 5),
                  np.asarray(-0.0), np.asarray(0.0), values[:0]):
            assert outcome(_clamp, x, lo, hi, math.inf, "x") == outcome(np.clip, x, lo, hi)
    with pytest.raises(DomainError, match=r"^w=nan outside \[-0.0, 0.0\]$"):
        _clamp(np.array([-0.0, np.nan, 2.0]), -0.0, 0.0, math.inf, "w")
    with pytest.raises(DomainError, match=r"^w=2.0 outside \[0.0, 1.0\]$"):
        _clamp(np.array([0.5, 2.0, np.nan]), 0.0, 1.0, 1e-12, "w")
    with pytest.raises(DomainError, match=r"^w=1.000000001 outside \[0.0, 1.0\]$"):
        _clamp(np.array([0.5, 1.0 + 1e-13, 1.000000001]), 0.0, 1.0, 1e-12, "w")
    with pytest.raises(DomainError, match=r"^w=-1e-09 outside \[-0.0, 1.0\]$"):
        _clamp(np.array([[0.0, 1.0], [-1e-9, 0.5]]), -0.0, 1.0, 1e-12, "w")


@given(any_alpha, intervals, unit, unit)
def test_strictly_increasing(alpha, ab, t1, t2):
    a, b = ab
    x1, x2 = sorted((in_interval(a, b, t1), in_interval(a, b, t2)))
    h = HomographyMap(a, b, alpha)
    if x1 < x2:
        assert h.value(x1) < h.value(x2)


@given(any_alpha, intervals, unit)
def test_matches_raw_formula(alpha, ab, t):
    a, b = ab
    x = in_interval(a, b, t)
    h = HomographyMap(a, b, alpha)
    assert h.value(x) == pytest.approx(raw_w(a, b, alpha, x), abs=1e-12)


def test_denominator_bound_holds_on_samples():
    # alpha * D(x) >= min(alpha**2, alpha * (alpha - 1)) * (b - a) > 0
    for alpha in (-7.0, -1.0, 1.5, 2.0, 40.0):
        for (a, b) in ((0.0, 1.0), (-2.5, 3.0)):
            bound = min(alpha**2, alpha * (alpha - 1.0)) * (b - a)
            assert bound > 0.0
            for x in np.linspace(a, b, 101):
                d = x + (alpha - 1.0) * b - alpha * a
                assert alpha * d >= bound * (1.0 - 1e-12)


# ---------------------------------------------------------------- inverse


def test_inverse_example():
    h = HomographyMap(0.0, 1.0, 2.0)
    assert h.inverse(2.0 / 3.0) == pytest.approx(0.5, abs=1e-12)
    assert h.inverse(1.0) == 1.0
    assert h.inverse(0.0) == 0.0


def test_inverse_against_bisection_oracle():
    h = HomographyMap(0.0, 1.0, -1.0)
    root = bisect_root(lambda x: h.value(x) - 0.5, 0.0, 1.0)
    assert h.inverse(0.5) == pytest.approx(root, abs=1e-12)


def test_inverse_domain_error():
    h = HomographyMap(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        h.inverse(1.1)
    with pytest.raises(DomainError):
        h.inverse(-0.1)


@given(any_alpha, intervals, unit)
def test_round_trip(alpha, ab, t):
    a, b = ab
    x = in_interval(a, b, t)
    h = HomographyMap(a, b, alpha)
    assert abs(h.inverse(h.value(x)) - x) <= 1e-12 * (b - a)


def test_round_trip_thousand_points():
    rng = np.random.default_rng(5)
    for alpha in (-5.0, -1.0, 2.0, 5.0, INFINITY):
        h = HomographyMap(-1.0, 3.0, alpha)
        for x in rng.uniform(-1.0, 3.0, 200):
            assert abs(h.inverse(h.value(x)) - x) <= 1e-12 * h.width


# ------------------------------------------------------------ derivatives


def test_deriv_examples():
    h = HomographyMap(0.0, 1.0, 2.0)
    assert h.deriv1(0.0) == 2.0
    assert h.deriv2(0.0) == -4.0


def test_derivs_match_finite_differences():
    # the oracle differentiates the independently restated formula, so the
    # endpoints can be probed without domain clamping
    step1, step2 = 1e-6, 1e-4
    for alpha in (-5.0, -1.0, 2.0, 5.0, INFINITY):
        for (a, b) in ((0.0, 1.0), (-2.0, 3.0)):
            h = HomographyMap(a, b, alpha)
            w = lambda x: raw_w(a, b, alpha, x)
            for x in np.linspace(a, b, 100):
                h1 = step1 * (b - a)
                fd1 = central_diff1(w, x, h1)
                assert abs(fd1 - h.deriv1(x)) <= 1e-6 * abs(h.deriv1(x))
                h2 = step2 * (b - a)
                fd2 = central_diff2(w, x, h2)
                if alpha is INFINITY:
                    assert abs(h.deriv2(x)) == 0.0
                    assert abs(fd2) <= 1e-4 / (b - a)
                else:
                    assert abs(fd2 - h.deriv2(x)) <= 1e-4 * abs(h.deriv2(x))


def test_jet_matches_separate_calls_bit_for_bit():
    # _jet is the one home of the w' and w'' formulas: it, deriv1 and deriv2
    # give the bits the separate formulas gave, on floats and on arrays
    for alpha in EDGE_ALPHAS:
        for a, b in EDGE_INTERVALS:
            h = HomographyMap(a, b, alpha)
            points = edge_points(a, b)
            for x in points + [np.array(points[:-1])]:
                expected = outcome(lambda: (*h.weights(x), *reference_w_derivatives(h, x)))
                assert outcome(h._jet, x) == expected, (alpha, a, b, x)
                assert outcome(h.deriv1, x) == outcome(lambda: reference_w_derivatives(h, x)[0])
                assert outcome(h.deriv2, x) == outcome(lambda: reference_w_derivatives(h, x)[1])


def test_deriv2_pinpoint_example():
    h = HomographyMap(0.0, 1.0, 5.0)
    fd = central_diff2(lambda x: raw_w(0.0, 1.0, 5.0, x), 0.5, 1e-4)
    assert abs(fd - h.deriv2(0.5)) <= 1e-5 * abs(h.deriv2(0.5))


@given(any_alpha, intervals, unit)
def test_deriv1_positive(alpha, ab, t):
    a, b = ab
    h = HomographyMap(a, b, alpha)
    assert h.deriv1(in_interval(a, b, t)) > 0.0


def test_asymptotic_limit_is_monotone():
    a, b = -1.0, 2.0
    xs = np.linspace(a, b, 101)
    for sign in (1.0, -1.0):
        devs = []
        for k in range(3, 9):
            h = HomographyMap(a, b, sign * 10.0**k)
            devs.append(max(abs(h.value(x) - (x - a) / (b - a)) for x in xs))
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 1e-8


# ----------------------------------------------------------- split reparams


def test_split_endpoints_are_exact():
    h = HomographyMap(0.0, 1.0, 2.0)
    u = h.split_left(0.5)
    v = h.split_right(0.5)
    assert u(0.0) == 0.0 and u(1.0) == 0.5
    assert v(0.0) == 0.5 and v(1.0) == 1.0
    assert u.side is Side.LEFT and v.side is Side.RIGHT


def test_split_interior_example():
    # left map pulls the parameter to where the composed value is f(c) * f(t)
    h = HomographyMap(0.0, 1.0, 2.0)
    u = h.split_left(0.5)
    assert h.value(u(0.5)) == pytest.approx((2.0 / 3.0) ** 2, abs=1e-12)
    assert u(0.5) == pytest.approx(h.inverse(4.0 / 9.0), abs=1e-12)


def test_split_point_must_be_interior():
    h = HomographyMap(0.0, 1.0, 2.0)
    for c in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(DomainError):
            h.split_left(c)
    with pytest.raises(DomainError):
        h.split_right(0.5).value(1.5)


@given(any_alpha, intervals, st.floats(min_value=0.05, max_value=0.95))
def test_split_composition_identities(alpha, ab, tc):
    a, b = ab
    h = HomographyMap(a, b, alpha)
    c = in_interval(a, b, tc)
    u = h.split_left(c)
    v = h.split_right(c)
    wc = h.value(c)
    for t in np.linspace(a, b, 25):
        assert abs(h.value(u(t)) - wc * h.value(t)) <= 1e-12
        assert abs(h.value(v(t)) - (1.0 - (1.0 - wc) * (1.0 - h.value(t)))) <= 1e-12


def test_split_images_and_monotonicity():
    h = HomographyMap(-1.0, 2.0, -3.0)
    u = h.split_left(0.4)
    v = h.split_right(0.4)
    grid = np.linspace(-1.0, 2.0, 100)
    uvals = [u(t) for t in grid]
    vvals = [v(t) for t in grid]
    assert all(x1 < x2 for x1, x2 in zip(uvals, uvals[1:]))
    assert all(x1 < x2 for x1, x2 in zip(vvals, vvals[1:]))
    assert all(-1.0 <= x <= 0.4 for x in uvals)
    assert all(0.4 <= x <= 2.0 for x in vvals)
    wc = h.value(0.4)
    for t, ut, vt in zip(grid, uvals, vvals):
        assert abs(h.value(ut) - wc * h.value(t)) <= 1e-12
        assert abs(h.value(vt) - (1.0 - (1.0 - wc) * (1.0 - h.value(t)))) <= 1e-12
