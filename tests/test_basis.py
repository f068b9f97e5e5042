import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphabezier import (
    INFINITY,
    ArgumentError,
    BasisSpec,
    HomographyMap,
    MaxPoint,
    binomial_row,
    collocation_matrix,
    elevation_residual,
    is_nonsingular,
    peak_value,
)
from alphabezier.basis import MAX_DEGREE
from helpers import (
    EDGE_ALPHAS,
    EDGE_INTERVALS,
    any_alpha,
    argmax_oracle,
    central_diff1,
    central_diff2,
    degrees,
    edge_points,
    exact_derivatives,
    exact_values,
    in_interval,
    intervals,
    outcome,
    reference_derivatives,
    rows_per_point,
    second_derivative_branches,
    unit,
    worst_relative_error,
)


ORACLE_ALPHAS = (-1.0, 2.0, 5.0, INFINITY, 1.01, -0.01)


def spec_for(n, alpha, a=0.0, b=1.0):
    return BasisSpec(n, HomographyMap(a, b, alpha))


# ----------------------------------------------------------- construction


def test_degree_validation():
    h = HomographyMap(0.0, 1.0, 2.0)
    with pytest.raises(ArgumentError):
        BasisSpec(-1, h)
    with pytest.raises(ArgumentError):
        BasisSpec(61, h)
    with pytest.raises(ArgumentError):
        BasisSpec(2.0, h)


def test_degree_zero_is_the_constant_one():
    spec = spec_for(0, 2.0)
    assert spec.values(0.3).tolist() == [1.0]
    assert spec.values_recursive(0.7).tolist() == [1.0]


def test_binomials_are_exact():
    # compared as integers: from n = 57 the largest binomials exceed 2**53
    for n in range(57):
        assert [int(v) for v in binomial_row(n)] == [math.comb(n, i) for i in range(n + 1)]


# ----------------------------------------------------------------- values


def test_linear_example():
    vals = spec_for(1, 2.0).values(0.5)
    assert vals == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-15)


def test_endpoint_values_exact():
    for alpha in (-1.0, 2.0, 5.0, INFINITY):
        spec = spec_for(3, alpha, -1.0, 4.0)
        assert spec.values(-1.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert spec.values(4.0).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_classical_midpoint():
    assert spec_for(2, INFINITY).values(0.5).tolist() == [0.25, 0.5, 0.25]


@given(any_alpha, intervals, degrees, unit)
def test_partition_of_unity(alpha, ab, n, t):
    a, b = ab
    spec = spec_for(n, alpha, a, b)
    assert abs(spec.values(in_interval(a, b, t)).sum() - 1.0) <= 1e-12


@given(any_alpha, intervals, degrees, unit)
def test_positivity(alpha, ab, n, t):
    a, b = ab
    spec = spec_for(n, alpha, a, b)
    assert (spec.values(in_interval(a, b, t)) >= 0.0).all()


def test_positivity_and_interior_strictness_bulk():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        alpha = float(rng.choice([-5.0, -1.0, 2.0, 5.0, np.inf]))
        a = rng.uniform(-10.0, 10.0)
        b = a + rng.uniform(0.5, 20.0)
        n = int(rng.integers(1, 9))
        spec = spec_for(n, alpha, a, b)
        x = rng.uniform(a, b)
        vals = spec.values(x)
        assert (vals >= 0.0).all()
        if a < x < b:
            assert (vals > 0.0).all()


@given(any_alpha, intervals, degrees, unit)
def test_recursive_matches_closed_form(alpha, ab, n, t):
    a, b = ab
    spec = spec_for(n, alpha, a, b)
    x = in_interval(a, b, t)
    assert np.abs(spec.values(x) - spec.values_recursive(x)).max() <= 1e-13


@pytest.mark.parametrize("alpha", [-1.0, 2.0, 5.0])
@given(data=st.data())
def test_symmetry_against_mirror_index(alpha, data):
    n = data.draw(degrees)
    a, b = data.draw(intervals)
    x = in_interval(a, b, data.draw(unit))
    direct = spec_for(n, alpha, a, b).values(min(max(a + b - x, a), b))
    mirrored = spec_for(n, 1.0 - alpha, a, b).values(x)[::-1]
    assert np.abs(direct - mirrored).max() <= 1e-12


def test_classical_limit_of_large_index():
    for n in (1, 3, 6):
        big = spec_for(n, 1e8)
        inf = spec_for(n, INFINITY)
        for x in np.linspace(0.0, 1.0, 101):
            assert np.abs(big.values(x) - inf.values(x)).max() <= 1e-6


@pytest.mark.parametrize("n", [1, 6, 20, 60])
def test_classical_limit_is_reached_at_rate_one_over_alpha(n):
    # |alpha| * max |B_i(alpha) - B_i(inf)| over 201 points of [0, 1] stays flat
    # from |alpha| = 1e2 to 1e8; its largest value, 0.3654, is at alpha = 1e2, n = 60
    xs = np.linspace(0.0, 1.0, 201)
    classical = spec_for(n, INFINITY).values(xs)
    for alpha in (1e2, -1e2, 1e4, -1e4, 1e8, -1e8):
        gap = float(np.abs(spec_for(n, alpha).values(xs) - classical).max())
        assert abs(alpha) * gap <= 0.37, (alpha, gap)


def test_rationality_degree_bound():
    # B_i times D(x)**n is a polynomial of degree <= n: a fit through n+1
    # nodes must reproduce a held-out sample
    for alpha in (-1.0, 2.0, 5.0):
        for n in (2, 3, 5):
            spec = spec_for(n, alpha)
            d = lambda x: x + (alpha - 1.0) * 1.0 - alpha * 0.0
            nodes = 0.5 + 0.49 * np.cos(np.pi * np.arange(n + 1) / n)
            held_out = 0.337
            for i in range(n + 1):
                g = lambda x: spec.values(x)[i] * d(x) ** n
                coeffs = np.polynomial.polynomial.polyfit(nodes, [g(x) for x in nodes], n)
                fitted = np.polynomial.polynomial.polyval(held_out, coeffs)
                scale = max(abs(g(x)) for x in nodes) + abs(g(held_out))
                assert abs(fitted - g(held_out)) <= 1e-9 * scale


# ------------------------------------------------------------ derivatives


def test_derivative_endpoint_example():
    d = spec_for(3, 2.0).derivatives(0.0, 1)
    assert d.tolist() == [-6.0, 6.0, 0.0, 0.0]


def test_derivative_order_validation():
    with pytest.raises(ArgumentError):
        spec_for(3, 2.0).derivatives(0.5, 3)


@given(any_alpha, intervals, degrees, unit)
def test_derivative_sum_is_zero(alpha, ab, n, t):
    a, b = ab
    spec = spec_for(n, alpha, a, b)
    x = in_interval(a, b, t)
    assert abs(spec.derivatives(x, 1).sum()) <= 1e-10


def test_derivatives_match_finite_differences_example():
    spec = spec_for(4, 5.0)
    x = 0.37
    d1 = spec.derivatives(x, 1)
    fd1 = central_diff1(spec.values, x, 1e-6)
    assert np.abs(fd1 - d1).max() <= 1e-6 * np.abs(d1).max()
    d2 = spec.derivatives(x, 2)
    fd2 = central_diff2(spec.values, x, 1e-4)
    assert np.abs(fd2 - d2).max() <= 1e-4 * np.abs(d2).max()


def test_derivatives_match_finite_differences_sweep():
    rng = np.random.default_rng(19)
    for _ in range(30):
        alpha = float(rng.choice([-5.0, -1.0, 2.0, 5.0, np.inf]))
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.uniform(0.5, 6.0)
        n = int(rng.integers(2, 7))
        spec = spec_for(n, alpha, a, b)
        h1, h2 = 1e-6 * (b - a), 1e-4 * (b - a)
        for x in rng.uniform(a + 2 * h2, b - 2 * h2, 3):
            d1 = spec.derivatives(x, 1)
            fd1 = central_diff1(spec.values, x, h1)
            assert np.abs(fd1 - d1).max() <= 1e-6 * np.abs(d1).max()
            d2 = spec.derivatives(x, 2)
            fd2 = central_diff2(spec.values, x, h2)
            assert np.abs(fd2 - d2).max() <= 1e-4 * np.abs(d2).max()


def test_second_derivative_agrees_with_published_branches():
    # the five-case closed form is redundant with the chain rule wherever
    # its index ranges parse; cross-check there
    for alpha in (-2.0, 3.0):
        for n in (3, 4, 6):
            spec = spec_for(n, alpha)
            h = spec.homography
            for x in (0.21, 0.5, 0.83):
                w, w1, w2 = h.value(x), h.deriv1(x), h.deriv2(x)
                d2 = spec.derivatives(x, 2)
                for i in range(n + 1):
                    branch = second_derivative_branches(n, i, w, w1, w2)
                    if branch is None:
                        continue
                    assert d2[i] == pytest.approx(branch, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(13))
def test_derivatives_match_exact_rational_oracle(n):
    # indices and intervals drawn like the benchmark's pointwise workload
    rng = np.random.default_rng([29, n])
    for kind in range(5):
        for _ in range(4):
            a = float(rng.uniform(-5.0, 5.0))
            b = a + float(rng.uniform(0.5, 10.0))
            alpha = (float(rng.uniform(-6.0, -1.0)), float(rng.uniform(2.0, 7.0)),
                     INFINITY, -0.01, 1.01)[kind]
            spec = spec_for(n, alpha, a, b)
            for x in [a, b, *rng.uniform(a, b, 4)]:
                for order in (1, 2):
                    exact = exact_derivatives(spec, x, order)
                    scale = float(max(abs(v) for v in exact))
                    err = max(abs(Fraction(float(v)) - e)
                              for v, e in zip(spec.derivatives(x, order), exact))
                    assert float(err) <= 1e-12 * scale, (alpha, a, b, x, order)


# ----------------------------------------------------------------- maxima


def test_maxima_example():
    points = spec_for(2, 2.0).maxima()
    assert points[1].location == 1.0 / 3.0
    assert points[1].value == 0.5
    assert points[0].location == 0.0 and points[0].value == 1.0
    assert points[2].location == 1.0 and points[2].value == 1.0


def test_peak_value_conventions():
    assert peak_value(3, 0) == 1.0
    assert peak_value(3, 3) == 1.0
    assert peak_value(4, 2) == 6 * 4 * 4 / 256
    with pytest.raises(ArgumentError):
        peak_value(3, 4)


def test_maxima_land_where_w_is_i_over_n():
    for alpha in (-1.0, 2.0, 5.0, INFINITY):
        spec = spec_for(5, alpha, -2.0, 3.0)
        for mp in spec.maxima():
            assert abs(spec.homography.value(mp.location) - mp.index / 5.0) <= 1e-12


def test_peak_heights_are_index_free_and_symmetric():
    values = {alpha: [mp.value for mp in spec_for(4, alpha).maxima()]
              for alpha in (-1.0, 2.0, 7.0)}
    assert values[-1.0] == values[2.0] == values[7.0]
    heights = values[2.0]
    assert heights == heights[::-1]


def test_maxima_against_search_oracle():
    for alpha in (-1.0, 5.0):
        spec = spec_for(4, alpha)
        for mp in spec.maxima():
            if mp.index in (0, 4):
                continue
            located = argmax_oracle(lambda x: spec.values(x)[mp.index], 0.0, 1.0)
            assert abs(located - mp.location) <= 1e-8
            assert abs(spec.values(located)[mp.index] - mp.value) <= 1e-10


# ------------------------------------------------------- degree elevation


def test_elevation_identities_examples():
    assert elevation_residual(spec_for(1, 2.0), 0.5) <= 1e-15
    assert elevation_residual(spec_for(4, -2.0), 0.0) == 0.0


def test_elevation_identities_random_sweep():
    rng = np.random.default_rng(23)
    spec = spec_for(6, -3.0)
    for x in rng.uniform(0.0, 1.0, 100):
        assert elevation_residual(spec, x) <= 1e-12


# ------------------------------------------------------------ collocation


def test_collocation_identity_at_endpoints():
    spec = spec_for(1, 2.0)
    m = collocation_matrix(spec, [0.0, 1.0])
    assert m.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_collocation_rows_sum_to_one():
    spec = spec_for(3, -2.0)
    nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(4) / 3)
    m = collocation_matrix(spec, nodes)
    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12


def test_collocation_nonsingular_at_distinct_nodes():
    for alpha in (-1.0, 2.0, 5.0, INFINITY):
        spec = spec_for(3, alpha)
        nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(4) / 3)
        m = collocation_matrix(spec, nodes)
        assert is_nonsingular(m)
        sign, logdet = np.linalg.slogdet(m)
        assert sign != 0 and np.isfinite(logdet)


def test_collocation_node_validation():
    spec = spec_for(2, 2.0)
    with pytest.raises(ArgumentError):
        collocation_matrix(spec, [0.0, 0.0, 1.0])
    with pytest.raises(ArgumentError):
        collocation_matrix(spec, [0.5, 0.2, 1.0])
    with pytest.raises(ArgumentError):
        collocation_matrix(spec, [0.0, 0.5, 1.5])
    with pytest.raises(ArgumentError):
        collocation_matrix(spec, [])


# ------------------------------------- array kernel vs per-point rows, exactly


def _oracle_points(a, b, seed):
    """A grid, random points, and points clamped onto the ends."""
    rng = np.random.default_rng(seed)
    tol = 0.5e-12 * (b - a)
    return np.unique(np.concatenate([[a - tol, a, b, b + tol], np.linspace(a, b, 41),
                                     rng.uniform(a, b, 16)]))


def reference_elevation_residual(spec, x):
    """The residual of each identity one basis index at a time."""
    n = spec.degree
    w, u = spec.homography.weights(x)
    lo = spec.values(x)
    hi = spec.raised().values(x)
    worst = 0.0
    for i in range(n + 1):
        worst = max(worst, abs(u * lo[i] - (n + 1.0 - i) / (n + 1.0) * hi[i]))
        worst = max(worst, abs(w * lo[i] - (i + 1.0) / (n + 1.0) * hi[i + 1]))
    return worst


@pytest.mark.parametrize("n", range(MAX_DEGREE))
def test_elevation_residual_matches_the_two_spec_reference(n):
    # one weight pair feeds both degrees: the same bits as the values of the
    # spec and of its raised() spec, up to the ends and the index margins
    for alpha in (*ORACLE_ALPHAS, -1e-9, 1.0 + 1e-9):
        for a, b in ((0.0, 1.0), (-2.5, 4.0)):
            spec = spec_for(n, alpha, a, b)
            for x in (a, b, a + 0.3 * (b - a)):
                assert elevation_residual(spec, x) == reference_elevation_residual(spec, x)


def test_elevation_residual_at_the_degree_limit():
    # the raised degree lies beyond BasisSpec's cap, so no raised spec is built
    for alpha in (*ORACLE_ALPHAS, -1e-9, 1.0 + 1e-9):
        spec = spec_for(MAX_DEGREE, alpha)
        assert elevation_residual(spec, 0.0) == elevation_residual(spec, 1.0) == 0.0
        assert elevation_residual(spec, 0.3) <= 1e-12


@pytest.mark.parametrize("n", range(21))
def test_value_tables_match_per_point_loop(n):
    for alpha in ORACLE_ALPHAS:
        for a, b in ((0.0, 1.0), (-2.5, 4.0)):
            spec = spec_for(n, alpha, a, b)
            xs = _oracle_points(a, b, [n, 7])
            table = spec.values(xs)
            assert table.shape == (len(xs), n + 1)
            assert np.array_equal(table, rows_per_point(spec, xs))
            assert np.array_equal(spec.values(xs.tolist()), table)
            assert np.array_equal(collocation_matrix(spec, xs), table)
            for k in range(len(xs)):
                assert np.array_equal(spec.values(float(xs[k])), table[k])
            for x in xs[::5]:
                assert elevation_residual(spec, x) == reference_elevation_residual(spec, x)
            for x, row in zip(xs[::3], table[::3]):
                exact = exact_values(spec, min(max(x, a), b))
                assert worst_relative_error(row, *exact) <= 1e-14, (alpha, a, b, x)


def test_value_tables_take_any_point_order():
    spec = spec_for(7, -0.01, -1.0, 3.0)
    xs = np.array([2.5, -1.0, 0.25, 2.5, 3.0, 0.25, 1.0])
    assert np.array_equal(spec.values(xs), rows_per_point(spec, xs))
    assert spec.values(np.empty(0)).shape == (0, 8)


# ------------------------------------ one-point calls vs the loops they replaced


def reference_values_recursive(spec, x):
    """The two-term recursion as numpy slice updates of one array."""
    w, u = spec.homography.weights(x)
    vals = np.zeros(spec.degree + 1)
    vals[0] = 1.0
    for r in range(1, spec.degree + 1):
        vals[1 : r + 1] = w * vals[0:r] + u * vals[1 : r + 1]
        vals[0] = u * vals[0]
    return vals


def reference_maxima(spec):
    """One scalar ``inverse`` call per peak."""
    n, h = spec.degree, spec.homography
    return [MaxPoint(i, h.inverse(i / max(n, 1)), peak_value(n, i)) for i in range(n + 1)]


@pytest.mark.parametrize("n", range(61))
def test_one_point_calls_match_the_loops_they_replaced(n):
    for alpha in EDGE_ALPHAS:
        for a, b in EDGE_INTERVALS:
            spec = spec_for(n, alpha, a, b)
            assert outcome(spec.maxima) == outcome(reference_maxima, spec)
            for x in edge_points(a, b):
                assert (outcome(spec.values_recursive, x)
                        == outcome(reference_values_recursive, spec, x)), (alpha, a, b, x)
                for order in (1, 2):
                    assert (outcome(spec.derivatives, x, order)
                            == outcome(reference_derivatives, spec, x, order)), (alpha, a, b, x)


def test_one_point_references_reach_every_branch():
    # the edge cases reach the DomainError guard and both signs of zero, so
    # the comparison above is not vacuous
    spec = spec_for(1, 2.0, -0.0, 3.0)
    assert outcome(spec.values_recursive, 3.0 + 3e-6)[0] == "DomainError"
    assert math.copysign(1.0, spec.maxima()[0].location) == 1.0
    assert math.copysign(1.0, spec_for(2, 2.0, -1.5, -0.0).maxima()[-1].location) == -1.0
