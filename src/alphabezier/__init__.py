"""Rational Bernstein bases indexed by an interval homography.

The reparametrization w(x) = alpha (x - a) / (x + (alpha - 1) b - alpha a)
replaces the linear map of the classical Bernstein basis; the index alpha
(negative, above 1, or INFINITY for the classical limit) selects one basis
family per degree.  With p = |alpha|, q = |alpha - 1|, s = p (x - a) and
r = q (b - x), it is evaluated as w = s / (s + r) and 1 - w = r / (s + r):
neither is formed by subtraction, and INFINITY is the case p = q.  The
package evaluates these bases and their derivatives, runs the matching
Bezier algorithms (deCasteljau, degree elevation, subdivision), fits
scalar functions, and plots everything from a small CLI.
"""

from .approx import FitResult, fit_collocation, fit_least_squares
from .basis import (
    BasisSpec,
    MaxPoint,
    binomial_row,
    collocation_matrix,
    elevation_residual,
    is_nonsingular,
    peak_value,
)
from .curve import (
    BezierCurve,
    ControlPolygon,
    CorrespondenceReport,
    DeCasteljauTableau,
    EndpointTangents,
    SubdivisionResult,
    index_invariance,
    make_curve,
    reindexed,
)
from .errors import (
    ArgumentError,
    DomainError,
    SingularPointError,
    SolveError,
    ValidationError,
)
from .hausdorff import densify_polyline, hausdorff_distance
from .homography import INFINITY, HomographyMap, SegmentReparam, Side
from .presets import PRESET_POLYGONS, preset_polygon

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "ArgumentError",
    "BasisSpec",
    "BezierCurve",
    "ControlPolygon",
    "CorrespondenceReport",
    "DeCasteljauTableau",
    "DomainError",
    "EndpointTangents",
    "FitResult",
    "HomographyMap",
    "MaxPoint",
    "PRESET_POLYGONS",
    "SegmentReparam",
    "Side",
    "SingularPointError",
    "SolveError",
    "SubdivisionResult",
    "ValidationError",
    "binomial_row",
    "collocation_matrix",
    "densify_polyline",
    "elevation_residual",
    "fit_collocation",
    "fit_least_squares",
    "hausdorff_distance",
    "index_invariance",
    "is_nonsingular",
    "make_curve",
    "peak_value",
    "preset_polygon",
    "reindexed",
]
