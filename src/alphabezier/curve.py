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
one tableau and no stacking.  The Hausdorff distance searches the vertices
of both paths together, with one running maximum for both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, rowwise_dot
from .errors import ArgumentError, SingularPointError, _check_count
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
        """Largest pairwise distance between control points."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diff**2).sum(-1).max()))


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
    which is the index-independence of the traced point set.
    """
    if len(curve.polygon) != len(other.polygon):
        raise ArgumentError("curves must share control polygons of equal length")
    f = curve.homography
    g = other.homography
    xs = np.linspace(curve.a, curve.b, _check_count("samples", samples, 1))
    ys = g.inverse_pair(*f.weights(xs))
    diff = curve.samples(xs) - other.samples(ys)
    dist = np.sqrt(rowwise_dot(diff, diff[:, :, None])[:, 0])  # rounds like np.linalg.norm
    return CorrespondenceReport(float(dist.max()), xs, ys)


def _path(points, name: str) -> np.ndarray:
    """(n, d) float points; a 1-D input is a column of 1-D points, as for ``ControlPolygon``."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, 1) if pts.ndim < 2 else pts
    if pts.size == 0:
        raise ArgumentError(f"{name} has no points")
    return pts


def densify_polyline(points, per_edge: int = 8) -> np.ndarray:
    """Points along a polyline, per_edge per segment plus the final vertex."""
    per_edge = _check_count("per_edge", per_edge, 1)
    pts = _path(points, "points")
    ts = (np.arange(per_edge) / per_edge)[:, None]
    rows = (1.0 - ts) * pts[:-1, None] + ts * pts[1:, None]
    return np.vstack([rows.reshape(-1, pts.shape[1]), pts[-1:]])


#: Points per exact pass.
_HAUSDORFF_BLOCK = 32
#: Consecutive segments that share one bounding box in the exact pass.
_HAUSDORFF_CHUNK = 32
#: Pruning needs every squared distance finite; below this magnitude no
#: product or square in the segment kernel can overflow.
_HAUSDORFF_PRUNE_LIMIT = 1e150


def _segment_d2(p, v0, dv, len2, work):
    """Squared distance from points p to segments v0 + t*dv, t in [0, 1].

    Coordinates lie on the first axis and the rest broadcast, with equal
    ranks.  Sums run in coordinate order and the root is left to the
    caller, so every pair rounds exactly as in a plain all-pairs
    evaluation.  All buffers are carved from the flat float array
    ``work``, which must hold three per pair, and the result is a view into
    it, valid until the next call: fresh block-sized temporaries cost more
    than the arithmetic, the more so when the allocator hands back pages it
    must fault in again.  Only ufuncs run here; ``t`` is clipped as
    ``np.clip`` clips it, without that wrapper's cost.
    """
    shape = tuple(map(max, p.shape[1:], v0.shape[1:]))
    dot, tmp, d2 = work[: 3 * math.prod(shape)].reshape(3, *shape)
    dot.fill(0.0)
    d2.fill(0.0)
    for c in range(len(p)):
        dot += np.multiply(np.subtract(p[c], v0[c], out=tmp), dv[c], out=tmp)
    t = np.minimum(1.0, np.maximum(0.0, np.divide(dot, len2, out=dot), out=dot), out=dot)
    for c in range(len(p)):
        proj = np.add(v0[c], np.multiply(t, dv[c], out=tmp), out=tmp)
        d2 += np.square(np.subtract(p[c], proj, out=tmp), out=tmp)
    return d2


def _path_tables(a: np.ndarray, b: np.ndarray, pruned: bool) -> tuple:
    """Both paths' tables, built once for the pooled search of ``hausdorff_distance``.

    One packed (2d+1, na + nb) table of rows v0, dv and len2, a zero length
    read as 1 so that a duplicate vertex acts as a point.  Its rows v0 are
    the vertices of a and then of b, also returned as ``pt``; column k
    holds the segment from vertex k to vertex k+1.  The segments of a are
    columns [0, na - 1) and those of b [na, na + nb - 1); the two columns of
    each path's last vertex hold that vertex as a point and are never used.
    ``sides`` holds, for the vertices of a and then those of b, the path,
    the other path, the vertices' columns, and the other path's segment
    columns and chunks.  When ``pruned``, also every vertex's arc-length
    fraction along its own path, and for every ``_HAUSDORFF_CHUNK``
    segments of either path the box corners and the first segment column.
    """
    na, m, d = len(a), len(a) + len(b), a.shape[1]
    table = np.empty((2 * d + 1, m))
    pt, dv, len2 = table[:d], table[d:-1], table[-1]
    pt[:, :na], pt[:, na:] = a.T, b.T
    np.subtract(pt[:, 1:na], pt[:, : na - 1], out=dv[:, : na - 1])
    np.subtract(pt[:, na + 1 :], pt[:, na:-1], out=dv[:, na:-1])
    dv[:, na - 1] = dv[:, -1] = 0.0
    np.square(dv).sum(axis=0, out=len2)
    fraction = lo = hi = starts = None
    if pruned:
        root, fraction = np.sqrt(len2), np.zeros(m)
        np.cumsum(root[: na - 1], out=fraction[1:na])
        np.cumsum(root[na:-1], out=fraction[na + 1 :])
        fraction[:na] /= fraction[na - 1] or 1.0
        fraction[na:] /= fraction[-1] or 1.0
        starts = np.concatenate([np.arange(0, na - 1, _HAUSDORFF_CHUNK),
                                 np.arange(na, m - 1, _HAUSDORFF_CHUNK)])
        # a box spans its chunk's end vertex too; each path's last box also
        # spans the column of its last vertex, which is that end vertex
        ends = pt[:, np.minimum(starts + _HAUSDORFF_CHUNK, np.where(starts < na, na - 1, m - 1))]
        lo = np.minimum(np.minimum.reduceat(pt, starts, axis=1), ends)
        hi = np.maximum(np.maximum.reduceat(pt, starts, axis=1), ends)
    len2[len2 == 0.0] = 1.0
    chunks_a = -(-(na - 1) // _HAUSDORFF_CHUNK)
    sides = ((a, b, slice(0, na), slice(na, m - 1), slice(chunks_a, None)),
             (b, a, slice(na, m), slice(0, na - 1), slice(0, chunks_a)))
    return pt, table, fraction, lo, hi, starts, sides


def _cull_margin(scale: float) -> float:
    """How far a computed segment distance may fall below a computed box distance.

    Let M be the largest coordinate magnitude and u = 2**-53.  Every
    segment of a chunk lies in the chunk's box, so its exact distance to a
    point p is at least p's exact distance g to the box.  The kernel clips
    t into [0, 1], so the exact point v0 + t*(v1 - v0) lies on the
    segment, and forming dv, t*dv, the projection and the difference moves
    each coordinate by at most about 9uM; the squares and the coordinate
    sum then cost a few u relative to a distance of at most 2*sqrt(3)*M.
    Together the computed distance is at most about 50uM below g.  The box
    distance itself is computed with a relative error of a few u.  The
    margin 2**-40 * M is about 160 times that, so a chunk whose computed
    box distance exceeds sqrt(bound) + margin holds no segment whose
    computed squared distance reaches bound.  M is floored at 2**-400, so
    the margin squared stays a normal number far above the underflow
    spacing of the squares of tiny coordinates.
    """
    return 2.0**-40 * max(scale, 2.0**-400)


def _exact_block(tables, cols, bound, margin, work) -> float:
    """Largest over the vertices in columns ``cols`` of ``pt`` of the squared
    distance to the other path.

    Each vertex meets only the segments, taken from the packed table, of
    its other path's chunks within its bound plus the margin; all such
    segments of both paths go through one kernel call.  When more than half
    of the pairs of vertices and chunks of one path are hit, the vertices
    meet all that path's segments instead.
    """
    pt, table, _, lo, hi, starts, sides = tables
    d = len(pt)
    mins = np.full(len(cols), np.inf)
    on_b = cols >= sides[1][2].start
    hits, segs = [], []
    for rows, (*_, segs_of, chunks) in zip((np.flatnonzero(~on_b), np.flatnonzero(on_b)), sides):
        if not len(rows):
            continue
        q = pt.take(cols[rows], axis=1)[:, :, None]
        gap = np.maximum(np.maximum(lo[:, None, chunks] - q, q - hi[:, None, chunks]), 0.0)
        hit, chunk = np.nonzero((gap * gap).sum(0) <= ((np.sqrt(bound[rows]) + margin) ** 2)[:, None])
        if 2 * len(hit) > gap[0].size:  # gathering would cost more than it saves
            d2 = _segment_d2(q, table[:d, None, segs_of], table[d:-1, None, segs_of],
                             table[-1, segs_of], work)
            mins[rows] = d2.min(axis=1)
        else:  # pads a short last chunk with the path's last segment
            hits.append(rows[hit])
            segs.append(np.minimum(starts[chunks][chunk, None] + np.arange(_HAUSDORFF_CHUNK),
                                   segs_of.stop - 1))
    if hits:
        hit = np.concatenate(hits)
        near = table.take(np.concatenate(segs), axis=1)
        d2 = _segment_d2(pt.take(cols[hit], axis=1)[:, :, None], near[:d], near[d:-1],
                         near[-1], work)
        np.minimum.at(mins, hit, d2.min(axis=1))
    return mins.max()


def _all_pairs_max_min_d2(tables, side, work) -> float:
    """Largest over the vertices of one path of the squared distance to the
    other, every pair checked; the search for NaN, inf or huge coordinates."""
    pt, table, *_, sides = tables
    path, other, rows, segs, _ = sides[side]
    if len(other) == 1:
        return ((path - other[0]) ** 2).sum(-1).max()
    d, block = len(pt), _HAUSDORFF_BLOCK
    v0, dv, len2 = table[:d, None, segs], table[d:-1, None, segs], table[-1, segs]
    return np.max([_segment_d2(pt[:, i : min(i + block, rows.stop), None], v0, dv, len2, work)
                   .min(axis=1).max() for i in range(rows.start, rows.stop, block)])


def _pruned_max_min_d2(tables, margin, work) -> float:
    """Largest over the vertices of both paths of the squared distance to
    the other path, with one running maximum for both directions.

    Each vertex is bounded by its distance to the one segment of the other
    path at its arc-length fraction, counted from that path's end when the
    vertex's own path starts nearer that end, so that paths running
    opposite ways keep tight bounds.  A vertex whose other path is a single
    point is measured exactly at once.  The ``_HAUSDORFF_BLOCK`` largest
    bounds of both paths together, found by partial selection, are checked
    exactly first; then, sorted, the vertices whose bound still beats the
    running maximum, which a vertex's exact minimum never exceeds.  The
    exact pass culls chunks by box (see ``_cull_margin``) and keeps every
    pair's arithmetic, so the result equals the all-pairs evaluation bit
    for bit.
    """
    pt, table, fraction, *_, sides = tables
    d, block = len(pt), _HAUSDORFF_BLOCK
    best, near, bounded = -np.inf, [], []
    for path, other, rows, segs, _ in sides:
        if len(other) == 1:
            best = max(best, ((path - other[0]) ** 2).sum(-1).max())
            continue
        own, start = fraction[rows], path[0].tolist()
        if math.dist(start, other[-1].tolist()) < math.dist(start, other[0].tolist()):
            own = 1.0 - own  # the paths run opposite ways
        near.append(np.searchsorted(fraction[segs], own, side="right") + (segs.start - 1))
        bounded.append(rows.start)
    if not near:
        return best
    first = bounded[0]  # the bounded vertices are one run of columns
    near = table.take(np.concatenate(near), axis=1)
    bound = _segment_d2(pt[:, first : first + near.shape[1]], near[:d], near[d:-1], near[-1],
                        work).copy()
    rows = np.argpartition(-bound, min(block, len(bound)) - 1)[:block]
    best = max(best, _exact_block(tables, rows + first, bound[rows], margin, work))
    bound[rows] = -np.inf
    rest = np.flatnonzero(bound > best)
    order = rest[np.argsort(-bound[rest], kind="stable")]
    for i in range(0, len(order), block):
        rows = order[i : i + block]
        if bound[rows[0]] <= best:
            break
        best = max(best, _exact_block(tables, rows + first, bound[rows], margin, work))
    return best


def hausdorff_distance(path_a, path_b) -> float:
    """Largest distance from a vertex of either polyline to the other polyline.

    The exact maximum of the vertex-to-polyline distances, taken both ways;
    a 1-D input is a column of 1-D points.  A deviation peaking strictly
    between vertices is not probed, so sample densely.  The vertices of
    both paths are searched together: each is bounded by one segment of
    the other path, one running maximum serves both directions, and only
    the vertices whose bound can raise it meet the segments of nearby
    chunks (see ``_pruned_max_min_d2``).  The root of the largest squared
    distance equals the larger of the two directions' roots, since the
    square root is correctly rounded and monotone, so the result equals
    the brute-force all-pairs evaluation bit for bit.
    """
    a, b = _path(path_a, "path_a"), _path(path_b, "path_b")
    if a.shape[1] != b.shape[1]:
        raise ArgumentError(f"paths have point dimensions {a.shape[1]} and {b.shape[1]}")
    scale = np.maximum(np.abs(a).max(), np.abs(b).max())  # NaN propagates
    margin = _cull_margin(scale) if scale < _HAUSDORFF_PRUNE_LIMIT else None
    tables = _path_tables(a, b, margin is not None)
    work = np.empty(3 * _HAUSDORFF_BLOCK * (max(len(a), len(b)) + _HAUSDORFF_CHUNK))
    if margin is None:  # NaN, inf or overflow: every pair, each direction on its own
        return float(max(np.sqrt(_all_pairs_max_min_d2(tables, 0, work)),
                         np.sqrt(_all_pairs_max_min_d2(tables, 1, work))))
    return float(np.sqrt(_pruned_max_min_d2(tables, margin, work)))
