import math

import numpy as np
import pytest

from alphabezier import (
    INFINITY,
    ArgumentError,
    BasisSpec,
    HomographyMap,
    SolveError,
    fit_collocation,
    fit_least_squares,
)
from helpers import reference_table

ORACLE_ALPHAS = (-1.0, 2.0, 5.0, INFINITY, 1.01, -0.01)


def spec_for(n, alpha, a=0.0, b=1.0):
    return BasisSpec(n, HomographyMap(a, b, alpha))


def test_constants_are_reproduced_exactly():
    for fitter in (fit_collocation, lambda f, s: fit_least_squares(f, s, 64)):
        result = fitter(lambda x: 1.0, spec_for(5, 2.0))
        assert np.abs(result.coefficients - 1.0).max() <= 1e-12
        assert result.max_error <= 1e-12


def test_reparametrization_has_linear_coefficients():
    # w itself lies in the span with coefficients i/n
    for alpha in (-1.0, 2.0, 5.0, INFINITY):
        spec = spec_for(6, alpha, -1.0, 2.0)
        result = fit_collocation(spec.homography.value, spec)
        expected = np.arange(7) / 6.0
        assert np.abs(result.coefficients - expected).max() <= 1e-12


def test_span_members_are_recovered():
    rng = np.random.default_rng(29)
    for alpha in (-2.0, 3.0):
        for n in (3, 7, 10):
            spec = spec_for(n, alpha)
            coeffs = rng.uniform(-2.0, 2.0, n + 1)
            f = lambda x: float(spec.values(x) @ coeffs)
            fitted = fit_collocation(f, spec)
            assert np.abs(fitted.coefficients - coeffs).max() <= 1e-9
            assert fitted.max_error <= 1e-9
            lsq = fit_least_squares(f, spec, 4 * n)
            assert np.abs(lsq.coefficients - coeffs).max() <= 1e-9


def test_degree_and_sample_guards():
    with pytest.raises(ArgumentError):
        fit_collocation(math.sin, spec_for(31, 2.0))
    with pytest.raises(ArgumentError):
        fit_least_squares(math.sin, spec_for(31, 2.0), 64)
    with pytest.raises(ArgumentError):
        fit_least_squares(math.sin, spec_for(5, 2.0), 5)


def test_collocation_breach_raises_solve_error(monkeypatch):
    breaking = lambda m, y: np.zeros_like(y)
    monkeypatch.setattr(np.linalg, "solve", breaking)
    with pytest.raises(SolveError):
        fit_collocation(lambda x: 1.0, spec_for(4, 2.0))


def test_rank_deficiency_raises_solve_error(monkeypatch):
    crippled = lambda m, y, rcond=None: (np.zeros(m.shape[1]), [], 1, np.ones(m.shape[1]))
    monkeypatch.setattr(np.linalg, "lstsq", crippled)
    with pytest.raises(SolveError):
        fit_least_squares(lambda x: 1.0, spec_for(4, 2.0), 16)


def test_sine_error_shrinks_with_degree():
    f = lambda x: math.sin(math.pi * x)
    err4 = fit_least_squares(f, spec_for(4, 2.0), 128).max_error
    err8 = fit_least_squares(f, spec_for(8, 2.0), 128).max_error
    assert err8 < err4


def test_l2_error_is_monotone_in_degree():
    # identical sample grid, nested spans (degree raising)
    f = lambda x: x / (1.0 + x * x)
    errors = [fit_least_squares(f, spec_for(n, 2.0), 256).l2_error for n in range(1, 9)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_least_squares_beats_collocation_in_l2():
    f = lambda x: math.cos(2.0 * x)
    for n in (4, 8):
        spec = spec_for(n, -2.0)
        colloc = fit_collocation(f, spec)
        lsq = fit_least_squares(f, spec, 1024)
        assert lsq.l2_error <= colloc.l2_error + 1e-12


def test_rational_target_error_floor():
    # the target has complex poles, the span only real ones: errors shrink
    # with degree but stay far above machine precision
    f = lambda t: t / (1.0 + t * t)
    errors = [fit_collocation(f, spec_for(n, 2.0)).max_error for n in (3, 6, 9, 12)]
    assert all(e > 1e-12 for e in errors)
    assert errors[-1] < errors[0]


# --------------------------------------------------- per-row fit oracles


def reference_grid_errors(f, spec, coeffs, grid):
    """Fit errors from one ``row @ coeffs`` per grid point."""
    xs = np.linspace(spec.a, spec.b, grid)
    resid = np.array([f(x) - row @ coeffs for x, row in zip(xs, reference_table(spec, xs))])
    return float(np.abs(resid).max()), float(np.sqrt(np.mean(resid**2)))


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_fitters_match_per_row_oracles(alpha):
    targets = (lambda t: t / (1.0 + t * t), lambda t: math.sin(math.pi * t))
    for n in range(21):
        spec = spec_for(n, alpha, -1.0, 2.0)
        grid = 1024 if n == 8 else 97
        for f in targets:
            colloc = fit_collocation(f, spec, error_grid=grid)
            nodes = np.array([mp.location for mp in spec.maxima()])
            coeffs = np.linalg.solve(reference_table(spec, nodes), [f(x) for x in nodes])
            assert np.array_equal(colloc.coefficients, coeffs)
            assert (colloc.max_error, colloc.l2_error) == reference_grid_errors(f, spec, coeffs, grid)

            xs = np.linspace(spec.a, spec.b, 2 * n + 5)
            coeffs, _, rank, _ = np.linalg.lstsq(reference_table(spec, xs), [f(x) for x in xs],
                                                 rcond=None)
            if rank < n + 1:  # near alpha = 1 high degrees lose rank, in both
                with pytest.raises(SolveError):
                    fit_least_squares(f, spec, len(xs), error_grid=grid)
                continue
            lsq = fit_least_squares(f, spec, len(xs), error_grid=grid)
            assert np.array_equal(lsq.coefficients, coeffs)
            assert (lsq.max_error, lsq.l2_error) == reference_grid_errors(f, spec, coeffs, grid)
