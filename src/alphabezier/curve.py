"""Bezier curves over the homography-indexed rational Bernstein basis.

A curve is a control polygon paired with a basis spec.  Evaluation,
deCasteljau tableaux, degree elevation, subdivision, endpoint tangents,
curvature and affine maps all follow the classical algorithms with the
basis weight w(x) supplied by the homography.  Subdividing at c yields two
curves of the same degree whose polygons are the first column and the
anti-diagonal of one tableau; both children are parametrized over the full
original interval through the split reparametrizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, rowwise_dot
from .errors import ArgumentError, DomainError, SingularPointError
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
        """Largest pairwise distance between control points."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diff**2).sum(-1).max()))


@dataclass(frozen=True)
class DeCasteljauTableau:
    """Triangular array of repeated w-weighted interpolations at one parameter."""

    levels: tuple

    @property
    def apex(self) -> np.ndarray:
        """The single point on the last level: the curve point itself."""
        return self.levels[-1][0]

    def left_points(self) -> np.ndarray:
        """First point of every level; the left child polygon of a subdivision."""
        return np.array([lvl[0] for lvl in self.levels])

    def right_points(self) -> np.ndarray:
        """Anti-diagonal of the tableau; the right child polygon of a subdivision."""
        n = len(self.levels) - 1
        return np.array([self.levels[n - i][i] for i in range(n + 1)])


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
        w, u = self.homography.weights(x)
        levels = [self.polygon.points]
        cur = self.polygon.points
        for _ in range(self.spec.degree):
            cur = w * cur[1:] + u * cur[:-1]
            levels.append(cur)
        return DeCasteljauTableau(tuple(levels))

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

    def _check_split(self, c: float) -> None:
        if not self.a < c < self.b:
            raise DomainError(f"split parameter {c} must lie strictly inside "
                              f"({self.a}, {self.b})")

    def subdivide(self, c: float) -> SubdivisionResult:
        """Split at an interior parameter c into two same-degree curves.

        Both children live on the original interval: the left child traces
        the arc up to the split point, the right child the rest, and they
        share the curve point at c as a common polygon vertex.
        """
        self._check_split(c)
        tab = self.tableau(c)
        left = BezierCurve(ControlPolygon(tab.left_points()), self.spec)
        right = BezierCurve(ControlPolygon(tab.right_points()), self.spec)
        return SubdivisionResult(left, right, float(c))

    def subdivide_recursive(self, depth: int) -> list[ControlPolygon]:
        """Polygons of the 2**depth curves from repeated midpoint splits, in curve order.

        Every child keeps the parent's spec, so each split uses the same
        weight w at the midpoint.  The work goes level by level: all 2**j
        polygons of level j sit in one (2**j, n+1, d) array, and one
        vectorized tableau splits them all, with the arithmetic of
        ``subdivide`` applied elementwise.
        """
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
            raise ArgumentError(f"depth must be a nonnegative integer, got {depth!r}")
        if depth > MAX_SUBDIVISION_DEPTH:
            raise ArgumentError(f"depth {depth} above maximum {MAX_SUBDIVISION_DEPTH}")
        if depth == 0:
            return [self.polygon]
        c = 0.5 * (self.a + self.b)
        self._check_split(c)
        w, u = self.homography.weights(c)
        n, d = self.spec.degree, self.polygon.dim
        polys = self.polygon.points[None]
        for _ in range(depth):
            cur = polys
            left, right = [cur[:, 0]], [cur[:, -1]]
            for _ in range(n):
                cur = w * cur[:, 1:] + u * cur[:, :-1]
                left.append(cur[:, 0])
                right.append(cur[:, -1])
            # left child: first point of each level; right child: the anti-diagonal
            halves = np.stack([np.stack(left, axis=1), np.stack(right[::-1], axis=1)], axis=1)
            polys = halves.reshape(-1, n + 1, d)
        return [ControlPolygon(p) for p in polys]

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
        """Curvature |B' x B''| / |B'|**3 at a regular point; 2-D or 3-D curves only."""
        if self.polygon.dim not in (2, 3):
            raise ArgumentError("curvature needs 2-D or 3-D control points")
        v1 = self.derivative(x, 1)
        v2 = self.derivative(x, 2)
        if self.polygon.dim == 2:
            v1 = np.append(v1, 0.0)
            v2 = np.append(v2, 0.0)
        speed = float(np.linalg.norm(v1))
        if speed <= 1e-12:
            raise SingularPointError(f"first derivative vanishes at x={x!r}")
        return float(np.linalg.norm(np.cross(v1, v2)) / speed**3)

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
    which is the index-independence of the traced point set.
    """
    if len(curve.polygon) != len(other.polygon):
        raise ArgumentError("curves must share control polygons of equal length")
    f = curve.homography
    g = other.homography
    xs = np.linspace(curve.a, curve.b, samples)
    ys = g.inverse_pair(*f.weights(xs))
    diff = curve.samples(xs) - other.samples(ys)
    dist = np.sqrt(rowwise_dot(diff, diff[:, :, None])[:, 0])  # rounds like np.linalg.norm
    return CorrespondenceReport(float(dist.max(initial=0.0)), xs, ys)


def densify_polyline(points, per_edge: int = 8) -> np.ndarray:
    """Points along a polyline, per_edge per segment plus the final vertex."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if per_edge < 1:
        raise ArgumentError("per_edge must be at least 1")
    ts = (np.arange(per_edge) / per_edge)[:, None]
    rows = (1.0 - ts) * pts[:-1, None] + ts * pts[1:, None]
    return np.vstack([rows.reshape(-1, pts.shape[1]), pts[-1:]])


#: Segments searched on each side of a point's arc-length guess for its bound.
_HAUSDORFF_WINDOW = 8
#: Points per exact pass over all segments.
_HAUSDORFF_BLOCK = 64
#: Points per windowed bound pass.
_HAUSDORFF_BOUND_ROWS = 4096
#: Pruning needs every squared distance finite; below this magnitude no
#: product or square in the segment kernel can overflow.
_HAUSDORFF_PRUNE_LIMIT = 1e150


def _segment_d2(p, v0, dv, len2):
    """Squared distance from points p to segments v0 + t*dv, t in [0, 1].

    Coordinates lie on the first axis and the rest broadcast.  Sums run in
    coordinate order and the root is left to the caller, so every pair
    rounds exactly as in a plain all-pairs evaluation.  The buffers are
    reused in place: fresh temporaries the size of a whole block cost more
    than the arithmetic.
    """
    shape = np.broadcast_shapes(p.shape[1:], v0.shape[1:])
    dot, tmp, d2 = np.zeros(shape), np.empty(shape), np.zeros(shape)
    for c in range(len(p)):
        dot += np.multiply(np.subtract(p[c], v0[c], out=tmp), dv[c], out=tmp)
    t = np.clip(np.divide(dot, len2, out=dot), 0.0, 1.0, out=dot)
    for c in range(len(p)):
        proj = np.add(v0[c], np.multiply(t, dv[c], out=tmp), out=tmp)
        d2 += np.square(np.subtract(p[c], proj, out=tmp), out=tmp)
    return d2


def _arc_fractions(path: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex, as a fraction of the total."""
    cum = np.concatenate([[0.0], np.cumsum(np.sqrt(((path[1:] - path[:-1]) ** 2).sum(-1)))])
    return cum / (cum[-1] or 1.0)


def _max_min_d2(points: np.ndarray, vertices: np.ndarray) -> float:
    """Largest over points of the squared distance to the nearest segment of a chain.

    Each point first gets an upper bound: its minimum over a window of
    segments around the one at the same arc-length fraction.  Points are
    then checked exactly against all segments, in blocks, in decreasing
    order of their bound, until the next bound cannot beat the running
    maximum.  Skipped points cannot raise it, because a point's exact
    minimum never exceeds its bound.
    """
    if len(vertices) == 1:
        return ((points - vertices[0]) ** 2).sum(-1).max()
    v0 = vertices[:-1]
    dv = vertices[1:] - v0
    len2 = (dv**2).sum(-1)
    len2 = np.where(len2 == 0.0, 1.0, len2)  # duplicate vertices act as points
    pt, v0, dv = points.T.copy(), v0.T.copy(), dv.T.copy()
    if (np.abs(points) < _HAUSDORFF_PRUNE_LIMIT).all() and \
            (np.abs(vertices) < _HAUSDORFF_PRUNE_LIMIT).all():
        guess = np.searchsorted(_arc_fractions(vertices), _arc_fractions(points), side="right") - 1
        offsets = np.arange(-_HAUSDORFF_WINDOW, _HAUSDORFF_WINDOW + 1)
        bound = np.empty(len(points))
        for start in range(0, len(points), _HAUSDORFF_BOUND_ROWS):
            rows = slice(start, start + _HAUSDORFF_BOUND_ROWS)
            window = np.clip(guess[rows, None] + offsets, 0, len(len2) - 1)
            bound[rows] = _segment_d2(pt[:, rows, None], v0.take(window, axis=1),
                                      dv.take(window, axis=1), len2[window]).min(axis=1)
        order = np.argsort(-bound, kind="stable")
    else:  # NaN, inf or overflow: no usable bound, so check every point
        bound = np.full(len(points), np.inf)
        order = np.arange(len(points))
    best = -np.inf
    for start in range(0, len(points), _HAUSDORFF_BLOCK):
        rows = order[start : start + _HAUSDORFF_BLOCK]
        if bound[rows[0]] <= best:
            break
        d2 = _segment_d2(pt[:, rows, None], v0[:, None], dv[:, None], len2)
        best = np.maximum(best, d2.min(axis=1).max())
    return best


def hausdorff_distance(path_a, path_b) -> float:
    """Largest distance from a vertex of either polyline to the other polyline.

    The exact maximum of the vertex-to-polyline distances, taken both
    ways.  A deviation peaking strictly between the vertices of a path is
    not probed, so sample densely.  A pruned search finds the maximum
    without checking every vertex against every segment, and its result
    equals the brute-force all-pairs evaluation bit for bit.
    """
    a = np.atleast_2d(np.asarray(path_a, dtype=float))
    b = np.atleast_2d(np.asarray(path_b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ArgumentError(f"paths have point dimensions {a.shape[1]} and {b.shape[1]}")
    return float(max(np.sqrt(_max_min_d2(a, b)), np.sqrt(_max_min_d2(b, a))))
