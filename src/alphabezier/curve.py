"""Bezier curves over the homography-indexed rational Bernstein basis.

A curve is a control polygon paired with a basis spec.  Evaluation,
deCasteljau tableaux, degree elevation, subdivision, endpoint tangents,
curvature and affine maps all follow the classical algorithms with the
basis weight w(x) supplied by the homography.  Subdividing at c yields two
curves of the same degree whose polygons are the first column and the
anti-diagonal of one tableau; both children are parametrized over the full
original interval through the split reparametrizations.  One batched
recursion, ``DeCasteljauTableau.at``, builds the tableau, the point, the
split and the subdivision stack; its arrays put the point index first, the
coordinates last, and independent polygons on the axes in between.  The
subdivision stack writes each level's children in place, so a level costs
one tableau and no stacking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, rowwise_dot
from .errors import ArgumentError, SingularPointError, _check_count
from .hausdorff import _binary_exponent
from .hausdorff import densify_polyline, hausdorff_distance  # re-exported for benchmark/tracing.py
from .homography import HomographyMap

#: Recursive subdivision is capped here; the polygon count doubles per level.
MAX_SUBDIVISION_DEPTH = 20


@dataclass(frozen=True)
class ControlPolygon:
    """Ordered control points in R^d, d in {1, 2, 3}, as an (n+1, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ArgumentError("control points must form a 2-D array")
        if pts.shape[0] < 2:
            raise ArgumentError("a control polygon needs at least 2 points")
        if pts.shape[1] not in (1, 2, 3):
            raise ArgumentError(f"unsupported point dimension {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ArgumentError("control points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def _views(cls, stack: np.ndarray) -> list:
        """One polygon per row of a read-only (m, n+1, d) stack that already passed these checks.

        No copy is made and ``__post_init__`` does not run.
        """
        new, polygons = object.__new__, []
        for row in stack:
            polygon = new(cls)
            polygon.__dict__["points"] = row  # frozen: set as object.__setattr__ would
            polygons.append(polygon)
        return polygons

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, i):
        return self.points[i]

    @property
    def degree(self) -> int:
        return len(self) - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter(self) -> float:
        """Largest pairwise distance between control points, taken as for
        ``hausdorff_distance`` on points scaled by 2**-e into [1, 2) in magnitude."""
        e = _binary_exponent(np.abs(self.points).max())
        pts = self.points * 2.0**-e
        diff = pts[:, None, :] - pts[None, :, :]
        return math.sqrt((diff**2).sum(-1).max()) * 2.0**e


@dataclass(frozen=True)
class DeCasteljauTableau:
    """Triangular array of repeated w-weighted interpolations at one parameter.

    Level j is an (n+1-j, ..., d) array: n+1-j points on the first axis, the
    coordinates on the last, and independent polygons on the axes between.
    """

    levels: tuple

    @classmethod
    def at(cls, points: np.ndarray, w, u) -> "DeCasteljauTableau":
        """All levels of ``points`` at the weights (w, u); level 0 is ``points`` itself."""
        levels = [points]
        for _ in range(len(points) - 1):
            levels.append(w * levels[-1][1:] + u * levels[-1][:-1])
        return cls(tuple(levels))

    @property
    def apex(self) -> np.ndarray:
        """The single point on the last level: the curve point itself."""
        return self.levels[-1][0]

    def left_points(self) -> np.ndarray:
        """First point of every level; the left child polygon of a subdivision."""
        return np.stack([lvl[0] for lvl in self.levels], axis=-2)

    def right_points(self) -> np.ndarray:
        """Anti-diagonal of the tableau; the right child polygon of a subdivision."""
        return np.stack([lvl[-1] for lvl in reversed(self.levels)], axis=-2)


@dataclass(frozen=True)
class EndpointTangents:
    """Curve derivatives at the interval ends, plus degenerate-leg flags.

    The vectors are positive multiples of the first and last polygon legs;
    when a leg has zero length the vector is zero and the flag is set,
    since the direction is undefined there.
    """

    start: np.ndarray
    end: np.ndarray
    start_degenerate: bool
    end_degenerate: bool


@dataclass(frozen=True)
class SubdivisionResult:
    """Two same-degree curves covering the two sides of a split."""

    left: "BezierCurve"
    right: "BezierCurve"
    split: float


@dataclass(frozen=True)
class BezierCurve:
    """A control polygon evaluated through one basis spec."""

    polygon: ControlPolygon
    spec: BasisSpec

    def __post_init__(self):
        polygon = self.polygon
        if not isinstance(polygon, ControlPolygon):
            polygon = ControlPolygon(polygon)
            object.__setattr__(self, "polygon", polygon)
        if len(polygon) != self.spec.degree + 1:
            raise ArgumentError(
                f"polygon has {len(polygon)} points but degree {self.spec.degree} needs "
                f"{self.spec.degree + 1}"
            )

    @property
    def homography(self) -> HomographyMap:
        return self.spec.homography

    @property
    def a(self) -> float:
        return self.spec.a

    @property
    def b(self) -> float:
        return self.spec.b

    def point(self, x: float) -> np.ndarray:
        """Curve point at x by summing the basis against the polygon."""
        return self.spec.values(x) @ self.polygon.points

    def samples(self, xs) -> np.ndarray:
        """Curve points at each parameter in xs; row j equals point(xs[j]) bit for bit."""
        return rowwise_dot(self.spec.values(xs), self.polygon.points)

    def derivative(self, x: float, order: int = 1) -> np.ndarray:
        """First or second derivative vector at x."""
        return self.spec.derivatives(x, order) @ self.polygon.points

    def tableau(self, x: float) -> DeCasteljauTableau:
        """All interpolation levels at x; level 0 is the control polygon."""
        return DeCasteljauTableau.at(self.polygon.points, *self.homography.weights(x))

    def decasteljau(self, x: float) -> tuple[np.ndarray, DeCasteljauTableau]:
        """Curve point at x via repeated interpolation, plus the full tableau."""
        tab = self.tableau(x)
        return tab.apex, tab

    def elevated(self) -> "BezierCurve":
        """The same curve written one degree higher.

        The new interior points average consecutive originals with weights
        i/(n+1) and 1 - i/(n+1); the end points are kept bit-exactly.
        """
        pts = self.polygon.points
        t = (np.arange(1, len(pts)) / len(pts))[:, None]
        out = np.vstack([pts[:1], t * pts[:-1] + (1.0 - t) * pts[1:], pts[-1:]])
        return BezierCurve(ControlPolygon(out), self.spec.raised())

    def subdivide(self, c: float) -> SubdivisionResult:
        """Split at an interior parameter c into two same-degree curves.

        Both children live on the original interval: the left child traces
        the arc up to the split point, the right child the rest, and they
        share the curve point at c as a common polygon vertex.
        """
        c = self.homography._split_point(c)
        tab = self.tableau(c)
        left = BezierCurve(ControlPolygon(tab.left_points()), self.spec)
        right = BezierCurve(ControlPolygon(tab.right_points()), self.spec)
        return SubdivisionResult(left, right, c)

    def subdivision_stack(self, depth: int) -> np.ndarray:
        """The polygons of ``subdivide_recursive`` as one read-only (2**depth, n+1, d) array.

        The work goes level by level: all M polygons of a level sit point
        first in one (n+1, M, d) array, and one batched tableau splits them
        all, with the arithmetic of ``subdivide`` applied elementwise.  The
        children's points are written straight into an (n+1, M, 2, d) array,
        which read as (n+1, 2M, d) is the next level in curve order, and
        each tableau is dropped before the next is built; one transposed copy
        at the end gives the stack.  It is checked for finiteness once,
        since a split can overflow.
        """
        depth = _check_count("depth", depth, 0, MAX_SUBDIVISION_DEPTH)
        pts = self.polygon.points
        if depth == 0:
            return pts[None]
        w, u = self.homography.weights(self.homography._split_point(0.5 * (self.a + self.b)))
        n, d = len(pts) - 1, pts.shape[1]
        polys = pts[:, None]
        for _ in range(depth):
            levels = DeCasteljauTableau.at(polys, w, u).levels
            polys = np.empty((n + 1, polys.shape[1], 2, d))
            for i, level in enumerate(levels):
                polys[i, :, 0] = level[0]  # the left child: first point of each level
                polys[n - i, :, 1] = level[-1]  # the right child: the anti-diagonal
            polys = polys.reshape(n + 1, -1, d)
            del levels, level  # drop this tableau before the next one is built
        if not np.isfinite(polys).all():
            raise ArgumentError("control points must be finite")
        stack = polys.transpose(1, 0, 2).copy()
        stack.flags.writeable = False
        return stack

    def subdivide_recursive(self, depth: int) -> list[ControlPolygon]:
        """Polygons of the 2**depth curves from repeated midpoint splits, in curve order.

        Every child keeps the parent's spec, so each split uses the same
        weight w at the midpoint.  All pieces are computed as one checked,
        read-only stack (see ``subdivision_stack``); each returned polygon
        is a view of one row of it, not a copy.
        """
        stack = self.subdivision_stack(depth)
        return ControlPolygon._views(stack) if depth else [self.polygon]

    def endpoint_tangents(self) -> EndpointTangents:
        """Derivative vectors at a and b; positive multiples of the end legs."""
        pts = self.polygon.points
        n = self.spec.degree
        h = self.homography
        first = pts[1] - pts[0]
        last = pts[n] - pts[n - 1]
        return EndpointTangents(
            start=n * h.deriv1(h.a) * first,
            end=n * h.deriv1(h.b) * last,
            start_degenerate=not np.any(first),
            end_degenerate=not np.any(last),
        )

    def curvature(self, x: float) -> float:
        """Curvature |B' x B''| / |B'|**3 at a regular point; 2-D or 3-D curves only.

        Both derivative rows come from one pass.  A planar cross product is
        formed in floats as ``np.cross`` forms it for vectors padded with
        z = 0: its x and y components are 0, or NaN when an input is not finite.
        """
        if self.polygon.dim not in (2, 3):
            raise ArgumentError("curvature needs 2-D or 3-D control points")
        v1, v2 = (row @ self.polygon.points for row in self.spec._derivative_rows(x, 2))
        speed = math.sqrt(v1.dot(v1))  # the bits of np.linalg.norm
        if speed <= 1e-12:
            raise SingularPointError(f"first derivative vanishes at x={x!r}")
        if self.polygon.dim == 2:
            (ax, ay), (bx, by) = v1.tolist(), v2.tolist()
            cx, cy, cz = ay * 0.0 - 0.0 * by, 0.0 * bx - ax * 0.0, ax * by - ay * bx
            cross = math.sqrt(cx * cx + cy * cy + cz * cz)
        else:
            c = np.cross(v1, v2)
            cross = math.sqrt(c.dot(c))
        return cross / speed**3

    def transformed(self, matrix, offset=None) -> "BezierCurve":
        """The curve under x -> M x + C, applied to the control points.

        Affine invariance makes this identical to transforming every curve
        point directly.
        """
        m = np.asarray(matrix, dtype=float)
        pts = self.polygon.points @ m.T
        if offset is not None:
            pts = pts + np.asarray(offset, dtype=float)
        return BezierCurve(ControlPolygon(pts), self.spec)


def make_curve(points, alpha: float, a: float = 0.0, b: float = 1.0) -> BezierCurve:
    """Convenience constructor: polygon plus index plus interval."""
    polygon = points if isinstance(points, ControlPolygon) else ControlPolygon(points)
    spec = BasisSpec(polygon.degree, HomographyMap(a, b, alpha))
    return BezierCurve(polygon, spec)


def reindexed(curve: BezierCurve, alpha: float, interval=None) -> BezierCurve:
    """Same polygon, different index and (optionally) different interval.

    The resulting curve traces the same point set: each parameter x of the
    original corresponds to y with equal reparametrization value.
    """
    a, b = interval if interval is not None else (curve.a, curve.b)
    spec = BasisSpec(curve.spec.degree, HomographyMap(a, b, alpha))
    return BezierCurve(curve.polygon, spec)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Sampled agreement between two curves sharing one control polygon."""

    max_deviation: float
    parameters: np.ndarray
    mapped_parameters: np.ndarray


def index_invariance(curve: BezierCurve, other: BezierCurve,
                     samples: int = 200) -> CorrespondenceReport:
    """Measure how far two same-polygon curves drift apart under the
    parameter correspondence y = g_inverse(f(x)).

    For curves built from the same polygon the deviation is roundoff only,
    which is the index-independence of the traced point set.  The point
    differences are scaled by 2**-e into [1, 2) in magnitude before they are
    squared, as in ``ControlPolygon.diameter``, so the result scales exactly
    with the polygon at any magnitude.
    """
    if len(curve.polygon) != len(other.polygon):
        raise ArgumentError("curves must share control polygons of equal length")
    f = curve.homography
    g = other.homography
    xs = np.linspace(curve.a, curve.b, _check_count("samples", samples, 1))
    ys = g.inverse_pair(*f.weights(xs))
    diff = curve.samples(xs) - other.samples(ys)
    e = _binary_exponent(np.abs(diff).max())
    diff *= 2.0**-e
    dist = np.sqrt(rowwise_dot(diff, diff[:, :, None])[:, 0])  # rounds like np.linalg.norm
    return CorrespondenceReport(float(dist.max()) * 2.0**e, xs, ys)
