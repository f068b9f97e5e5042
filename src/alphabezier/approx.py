"""Fitting scalar functions on [a, b] in the rational Bernstein basis.

Linear independence makes each basis family an approximation space; two
small fitters put that to work: interpolation at the basis peak locations
(an index-aware node set at which the collocation matrix is nonsingular, its
2-norm condition number growing with the degree: 4.8e7 at 20, 8.7e11 at 30)
and discrete least squares on a uniform grid.
Neither is a convergence-rate study; they exist to measure errors.
The target f is called once per point, with a Python float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisSpec, collocation_matrix, rowwise_dot
from .errors import SolveError, _check_count

#: Fits above this degree are rejected; conditioning is untested beyond it.
MAX_FIT_DEGREE = 30

#: Collocation must reproduce the data at its own nodes to this relative level.
NODE_RESIDUAL_RTOL = 1e-9

#: Fixed grid on which fit errors are reported.
ERROR_GRID = 1024


@dataclass(frozen=True)
class FitResult:
    """Basis coefficients plus errors measured on a dense uniform grid."""

    coefficients: np.ndarray
    max_error: float
    l2_error: float


def _check_fit(spec: BasisSpec, error_grid) -> int:
    """The fit-degree cap and the error grid size, checked before any solve."""
    _check_count("degree", spec.degree, 0, MAX_FIT_DEGREE)
    return _check_count("error_grid", error_grid, 1)


def _grid_errors(f: Callable[[float], float], spec: BasisSpec,
                 coeffs: np.ndarray, grid: int) -> tuple[float, float]:
    xs = np.linspace(spec.a, spec.b, grid)
    fitted = rowwise_dot(collocation_matrix(spec, xs), coeffs)
    resid = np.array([f(x) for x in xs.tolist()]) - fitted
    return float(np.abs(resid).max()), float(np.sqrt(np.mean(resid**2)))


def fit_collocation(f: Callable[[float], float], spec: BasisSpec,
                    error_grid: int = ERROR_GRID) -> FitResult:
    """Interpolate f at the basis peak locations.

    Reproduces constants exactly (the basis sums to 1) and any function
    already in the basis span up to conditioning.  Raises SolveError when
    the solved coefficients fail to reproduce f at the nodes to within
    NODE_RESIDUAL_RTOL relative, which would signal a singular system.
    """
    error_grid = _check_fit(spec, error_grid)
    nodes = np.array([mp.location for mp in spec.maxima()])
    matrix = collocation_matrix(spec, nodes)
    y = np.array([f(x) for x in nodes.tolist()])
    try:
        coeffs = np.linalg.solve(matrix, y)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"collocation system is singular: {exc}") from exc
    resid = float(np.abs(matrix @ coeffs - y).max())
    if resid > NODE_RESIDUAL_RTOL * float(np.abs(y).max()):
        raise SolveError(f"node residual {resid:.3e} breaches tolerance")
    return FitResult(coeffs, *_grid_errors(f, spec, coeffs, error_grid))


def fit_least_squares(f: Callable[[float], float], spec: BasisSpec,
                      samples: int, error_grid: int = ERROR_GRID) -> FitResult:
    """Discrete least squares on a uniform grid of the given size.

    Solved by SVD-backed orthogonal factorization.  Raises SolveError on
    rank deficiency, ArgumentError when samples < degree + 1.
    """
    error_grid = _check_fit(spec, error_grid)
    xs = np.linspace(spec.a, spec.b, _check_count("samples", samples, spec.degree + 1))
    matrix = collocation_matrix(spec, xs)
    y = np.array([f(x) for x in xs.tolist()])
    coeffs, _, rank, _ = np.linalg.lstsq(matrix, y, rcond=None)
    if rank < spec.degree + 1:
        raise SolveError(f"design matrix rank {rank} below {spec.degree + 1}")
    return FitResult(coeffs, *_grid_errors(f, spec, coeffs, error_grid))
