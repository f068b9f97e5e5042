"""Hausdorff distance between polylines, and polyline densification.

The Hausdorff distance searches the vertices of both paths together, with
one running maximum for both directions, on coordinates scaled by one
power of two; a single-vertex path is one zero-length segment, so every
finite input at every magnitude takes the same exact search.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, _check_count

#: Points per exact pass.
_HAUSDORFF_BLOCK = 32
#: Consecutive segments that share one bounding box in the exact pass.
_HAUSDORFF_CHUNK = 32


def _path(points, name: str) -> np.ndarray:
    """(n, d) float points; a 1-D input is a column of 1-D points, as for ``ControlPolygon``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 2:
        raise ArgumentError(f"{name} must be a 1-D or 2-D array of points, got {pts.ndim}-D")
    pts = pts.reshape(-1, 1) if pts.ndim < 2 else pts
    if pts.size == 0:
        raise ArgumentError(f"{name} has no points")
    return pts


def _binary_exponent(scale) -> int:
    """The e that puts scale * 2**-e in [1, 2), at least -1022 so that 2**-e is finite."""
    return max(math.frexp(scale)[1] - 1, -1022)


def densify_polyline(points, per_edge: int = 8) -> np.ndarray:
    """Points along a polyline, per_edge per segment plus the final vertex."""
    per_edge = _check_count("per_edge", per_edge, 1)
    pts = _path(points, "points")
    ts = (np.arange(per_edge) / per_edge)[:, None]
    rows = (1.0 - ts) * pts[:-1, None] + ts * pts[1:, None]
    return np.vstack([rows.reshape(-1, pts.shape[1]), pts[-1:]])


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


def _path_tables(a: np.ndarray, b: np.ndarray, unit: float) -> tuple:
    """Both paths' tables, built once for the pooled search of ``hausdorff_distance``.

    One packed (2d+1, na + nb) table of rows v0, dv and len2, a zero length
    read as 1 so that a duplicate vertex acts as a point.  Its rows v0 are
    the vertices of a and then of b times the power of two ``unit``, also
    returned as ``pt``; column k
    holds the segment from vertex k to vertex k+1.  The segments of a are
    columns [0, na - 1) and those of b [na, na + nb - 1); the column of
    each path's last vertex holds that vertex as a point, which is the one
    segment of a single-vertex path and is otherwise never used.
    ``sides`` holds, for the vertices of a and then those of b, the path,
    the other path, the vertices' columns, and the other path's segment
    columns and chunks.  Also every vertex's arc-length fraction along its
    own path, and for every ``_HAUSDORFF_CHUNK`` segments of either path the
    box corners and the first segment column.
    """
    na, m, d = len(a), len(a) + len(b), a.shape[1]
    segs_a, segs_b = slice(0, max(na - 1, 1)), slice(na, max(m - 1, na + 1))
    table = np.empty((2 * d + 1, m))
    pt, dv, len2 = table[:d], table[d:-1], table[-1]
    np.multiply(a.T, unit, out=pt[:, :na])
    np.multiply(b.T, unit, out=pt[:, na:])
    np.subtract(pt[:, 1:na], pt[:, : na - 1], out=dv[:, : na - 1])
    np.subtract(pt[:, na + 1 :], pt[:, na:-1], out=dv[:, na:-1])
    dv[:, na - 1] = dv[:, -1] = 0.0
    np.square(dv).sum(axis=0, out=len2)
    root, fraction = np.sqrt(len2), np.zeros(m)
    np.cumsum(root[: na - 1], out=fraction[1:na])
    np.cumsum(root[na:-1], out=fraction[na + 1 :])
    fraction[:na] /= fraction[na - 1] or 1.0
    fraction[na:] /= fraction[-1] or 1.0
    starts = np.concatenate([np.arange(0, segs_a.stop, _HAUSDORFF_CHUNK),
                             np.arange(na, segs_b.stop, _HAUSDORFF_CHUNK)])
    # a box spans its chunk's end vertex too; each path's last box also
    # spans the column of its last vertex, which is that end vertex
    ends = pt[:, np.minimum(starts + _HAUSDORFF_CHUNK, np.where(starts < na, na - 1, m - 1))]
    lo = np.minimum(np.minimum.reduceat(pt, starts, axis=1), ends)
    hi = np.maximum(np.maximum.reduceat(pt, starts, axis=1), ends)
    len2[len2 == 0.0] = 1.0
    chunks_a = -(-segs_a.stop // _HAUSDORFF_CHUNK)
    sides = ((a, b, slice(0, na), segs_b, slice(chunks_a, None)),
             (b, a, slice(na, m), segs_a, slice(0, chunks_a)))
    return pt, table, fraction, lo, hi, starts, sides


def _exact_block(tables, cols, bound, work) -> float:
    """Largest over the vertices in columns ``cols`` of ``pt`` of the squared
    distance to the other path.

    Each vertex meets only the segments, taken from the packed table, of
    its other path's chunks within its bound plus a margin; all such
    segments of both paths go through one kernel call.  The chunk that
    holds a vertex's bounding segment is always among them.

    The margin, 2**-40, bounds how far a computed segment distance may fall
    below a computed box distance.  Coordinates are below M = 2 in
    magnitude; let u = 2**-53.  A chunk's segments lie in its box, so their
    exact distance to a point p is at least p's exact distance g to the
    box.  The kernel clips t into [0, 1], so v0 + t*(v1 - v0) lies on the
    segment, and forming dv, t*dv, the projection and the difference moves
    each coordinate by at most about 9uM; the squares and the sum cost a
    few u relative to a distance of at most 2*sqrt(3)*M, and an underflow
    a few 2**-1074 on a square.  So the computed distance is at most about
    50uM < 2**-46 below g, and the computed box distance is within a few u
    of g: with a margin over 60 times that, a chunk farther than
    sqrt(bound) + 2**-40 holds no segment whose computed d2 reaches bound.
    """
    pt, table, _, lo, hi, starts, sides = tables
    d = len(pt)
    mins = np.full(len(cols), np.inf)
    on_b = cols >= sides[1][2].start
    hits, segs, reach = [], [], (np.sqrt(bound) + 2.0**-40) ** 2
    for rows, (*_, segs_of, chunks) in zip((np.flatnonzero(~on_b), np.flatnonzero(on_b)), sides):
        q = pt.take(cols[rows], axis=1)[:, :, None]
        gap = np.maximum(np.maximum(lo[:, None, chunks] - q, q - hi[:, None, chunks]), 0.0)
        hit, chunk = np.nonzero((gap * gap).sum(0) <= reach[rows, None])
        hits.append(rows[hit])  # a short last chunk is padded with the path's last segment
        segs.append(np.minimum(starts[chunks][chunk, None] + np.arange(_HAUSDORFF_CHUNK),
                               segs_of.stop - 1))
    hit = np.concatenate(hits)
    near = table.take(np.concatenate(segs), axis=1)
    d2 = _segment_d2(pt.take(cols[hit], axis=1)[:, :, None], near[:d], near[d:-1], near[-1], work)
    np.minimum.at(mins, hit, d2.min(axis=1))
    return mins.max()


def _max_min_d2(tables, work) -> float:
    """Largest over the vertices of both paths of the squared distance to
    the other path, with one running maximum for both directions.

    Each vertex is bounded by its distance to the one segment of the other
    path at its arc-length fraction, counted from that path's end when the
    vertex's own path starts nearer that end, so that paths running
    opposite ways keep tight bounds.  The ``_HAUSDORFF_BLOCK`` largest
    bounds of both paths together, found by partial selection, are checked
    exactly first; then, sorted, the vertices whose bound still beats the
    running maximum, which a vertex's exact minimum never exceeds.  Culling
    chunks by box (see ``_exact_block``) keeps every pair's arithmetic.
    """
    pt, table, fraction, *_, sides = tables
    d, block = len(pt), _HAUSDORFF_BLOCK
    near = []
    for path, other, rows, segs, _ in sides:
        own, start = fraction[rows], path[0].tolist()
        if math.dist(start, other[-1].tolist()) < math.dist(start, other[0].tolist()):
            own = 1.0 - own  # the paths run opposite ways
        near.append(np.searchsorted(fraction[segs], own, side="right") + (segs.start - 1))
    near = table.take(np.concatenate(near), axis=1)
    bound = _segment_d2(pt, near[:d], near[d:-1], near[-1], work).copy()
    rows = np.argpartition(-bound, min(block, len(bound)) - 1)[:block]
    best = _exact_block(tables, rows, bound[rows], work)
    bound[rows] = -np.inf
    rest = np.flatnonzero(bound > best)
    order = rest[np.argsort(-bound[rest], kind="stable")]
    for i in range(0, len(order), block):
        rows = order[i : i + block]
        if bound[rows[0]] <= best:
            break
        best = max(best, _exact_block(tables, rows, bound[rows], work))
    return best


def hausdorff_distance(path_a, path_b) -> float:
    """Largest distance from a vertex of either polyline to the other polyline.

    The exact maximum of the vertex-to-polyline distances, taken both ways;
    a 1-D input is a column of 1-D points, and a NaN or infinite coordinate
    raises ``ArgumentError`` naming its path.  A deviation peaking strictly
    between vertices is not probed, so sample densely.  Both paths are
    scaled by the power of two 2**-e that puts the largest coordinate
    magnitude in [1, 2), so no square overflows, and the root is scaled
    back by 2**e, to inf if the distance overflows.  The vertices of both
    paths are searched together: each is bounded by one segment of the
    other path, one running maximum serves both directions, and only the
    vertices whose bound can raise it meet the segments of nearby chunks
    (see ``_max_min_d2``).  Scaling by 2**-e is exact and the root
    correctly rounded and monotone, so the result equals the all-pairs
    evaluation bit for bit wherever that neither overflows nor underflows.
    """
    a, b = _path(path_a, "path_a"), _path(path_b, "path_b")
    if a.shape[1] != b.shape[1]:
        raise ArgumentError(f"paths have point dimensions {a.shape[1]} and {b.shape[1]}")
    scale = np.maximum(np.abs(a).max(), np.abs(b).max())  # NaN propagates
    if not np.isfinite(scale):
        name = "path_a" if not np.isfinite(a).all() else "path_b"
        raise ArgumentError(f"{name} has a NaN or infinite coordinate")
    e = _binary_exponent(scale)
    tables = _path_tables(a, b, 2.0**-e)
    work = np.empty(3 * _HAUSDORFF_BLOCK * (max(len(a), len(b)) + _HAUSDORFF_CHUNK))
    return math.sqrt(_max_min_d2(tables, work)) * 2.0**e  # a float product overflows to inf
