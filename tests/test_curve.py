import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphabezier import (
    INFINITY,
    ArgumentError,
    BasisSpec,
    BezierCurve,
    ControlPolygon,
    DomainError,
    HomographyMap,
    SingularPointError,
    densify_polyline,
    hausdorff_distance,
    index_invariance,
    make_curve,
    preset_polygon,
    reindexed,
)
import alphabezier
import alphabezier.cli
import alphabezier.curve
import alphabezier.hausdorff
import alphabezier.svg
from alphabezier.hausdorff import _HAUSDORFF_CHUNK
from helpers import (
    EDGE_ALPHAS,
    EDGE_INTERVALS,
    any_alpha,
    circumradius,
    edge_points,
    hull_violation,
    in_interval,
    intervals,
    outcome,
    reference_children,
    reference_derivatives,
    reference_subdivide_recursive,
    reference_subdivision_levels,
    reference_subdivision_stack,
    reference_tableau,
)

ALPHAS = (-1.0, 2.0, 5.0, INFINITY)
ORACLE_ALPHAS = ALPHAS + (1.01, -0.01)

polygons_2d = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    min_size=2, max_size=9,
).map(lambda rows: np.array(rows))


# ------------------------------------------------------------------ types


def test_polygon_validation():
    with pytest.raises(ArgumentError):
        ControlPolygon([(0.0, 0.0)])
    with pytest.raises(ArgumentError):
        ControlPolygon([(0.0, np.nan), (1.0, 0.0)])
    with pytest.raises(ArgumentError):
        ControlPolygon(np.zeros((3, 4)))


def test_polygon_rejects_a_3d_array():
    with pytest.raises(ArgumentError, match="^control points must form a 2-D array$"):
        ControlPolygon(np.zeros((2, 2, 2)))


def test_curve_from_a_raw_point_list_wraps_it_in_a_polygon():
    points = [(0.0, 3.5), (4.0, 0.5), (4.5, 2.5), (0.0, 0.0)]
    curve = BezierCurve(points, BasisSpec(3, HomographyMap(0.0, 1.0, 2.0)))
    assert isinstance(curve.polygon, ControlPolygon)
    assert np.array_equal(curve.polygon.points, preset_polygon("g").points)
    assert np.array_equal(curve.samples(np.linspace(0.0, 1.0, 9)),
                          make_curve(points, 2.0).samples(np.linspace(0.0, 1.0, 9)))


def test_polygon_accepts_scalars_as_1d():
    poly = ControlPolygon([0.0, 1.0, 3.0])
    assert poly.dim == 1
    assert poly.degree == 2
    assert poly.diameter() == 3.0


def test_diameter_keeps_every_bit_at_every_magnitude():
    # squaring raw coordinates gave 0.0 for the 3-4-5 polygon at 1e-170 and
    # inf at 1e160; scaled by a power of two the diameter scales exactly
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    for j in (-1000, -565, 0, 532, 1000):
        assert ControlPolygon(2.0**j * pts).diameter() == 2.0**j * 5.0
    assert ControlPolygon(1e-170 * pts).diameter() == pytest.approx(5e-170, rel=1e-15)
    assert ControlPolygon(1e160 * pts).diameter() == pytest.approx(5e160, rel=1e-15)
    assert ControlPolygon([[-1e308], [1e308]]).diameter() == np.inf  # no warning


def test_polygon_is_immutable():
    poly = preset_polygon("a")
    with pytest.raises(ValueError):
        poly.points[0, 0] = 9.0


def test_presets_are_planar_cubics():
    for name in "abcdefghi":
        poly = preset_polygon(name)
        assert len(poly) == 4 and poly.dim == 2
    with pytest.raises(ArgumentError):
        preset_polygon("z")


def test_curve_requires_matching_polygon_length():
    spec = BasisSpec(3, HomographyMap(0.0, 1.0, 2.0))
    with pytest.raises(ArgumentError):
        BezierCurve(preset_polygon("a"), BasisSpec(2, spec.homography))


# ------------------------------------------------------------- evaluation


def test_curve_interpolates_polygon_ends():
    for alpha in ALPHAS:
        curve = make_curve(preset_polygon("d"), alpha)
        assert curve.point(0.0).tolist() == curve.polygon[0].tolist()
        assert curve.point(1.0).tolist() == curve.polygon[3].tolist()


def test_constant_polygon_stays_put():
    curve = make_curve([(2.0, -1.0)] * 4, -3.0)
    for x in np.linspace(0.0, 1.0, 17):
        assert curve.point(x) == pytest.approx([2.0, -1.0], abs=1e-14)


def test_linear_curve_example():
    curve = make_curve([(0.0, 0.0), (1.0, 0.0)], 2.0)
    assert curve.point(0.5) == pytest.approx([2.0 / 3.0, 0.0], abs=1e-15)


def test_domain_error_outside_interval():
    curve = make_curve(preset_polygon("a"), 2.0)
    with pytest.raises(DomainError):
        curve.point(1.5)


@given(polygons_2d, any_alpha, intervals, st.floats(0.0, 1.0))
def test_decasteljau_equals_direct(points, alpha, ab, t):
    a, b = ab
    curve = make_curve(points, alpha, a, b)
    x = in_interval(a, b, t)
    apex, tab = curve.decasteljau(x)
    tol = 1e-12 * max(curve.polygon.diameter(), 1.0)
    assert np.abs(apex - curve.point(x)).max() <= tol
    assert len(tab.levels) == curve.spec.degree + 1
    assert [len(lvl) for lvl in tab.levels] == list(range(curve.spec.degree + 1, 0, -1))
    assert tab.levels[0] is curve.polygon.points


def test_decasteljau_on_test_cubic():
    curve = make_curve(preset_polygon("g"), 2.0)
    apex, _ = curve.decasteljau(0.5)
    assert np.abs(apex - curve.point(0.5)).max() <= 1e-12 * curve.polygon.diameter()


def test_3d_curve_evaluation():
    pts = [(0.0, 0.0, 0.0), (1.0, 2.0, -1.0), (3.0, 1.0, 2.0), (4.0, 0.0, 0.5)]
    curve = make_curve(pts, -2.0)
    apex, _ = curve.decasteljau(0.4)
    assert np.abs(apex - curve.point(0.4)).max() <= 1e-12 * curve.polygon.diameter()


# --------------------------------------------------------- degree elevation


def test_elevated_linear_inserts_midpoint():
    curve = make_curve([(0.0, 0.0), (2.0, 4.0)], 5.0)
    lifted = curve.elevated()
    assert lifted.polygon.points.tolist() == [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]


def test_elevated_constant_stays_constant():
    curve = make_curve([(1.0, 1.0)] * 3, 2.0)
    assert np.ptp(curve.elevated().polygon.points, axis=0).max() == 0.0


def test_elevated_curve_matches_original():
    for alpha in ALPHAS:
        curve = make_curve(preset_polygon("a"), alpha)
        lifted = curve.elevated()
        assert lifted.spec.degree == 4
        assert lifted.polygon[0].tolist() == curve.polygon[0].tolist()
        assert lifted.polygon[4].tolist() == curve.polygon[3].tolist()
        tol = 1e-12 * curve.polygon.diameter()
        for x in np.linspace(0.0, 1.0, 100):
            assert np.abs(lifted.point(x) - curve.point(x)).max() <= tol


# -------------------------------------------------------------- subdivision


def test_subdivide_linear_case():
    curve = make_curve([(0.0, 0.0), (1.0, 0.0)], 2.0)
    parts = curve.subdivide(0.5)
    mid = curve.point(0.5)
    assert parts.left.polygon.points.tolist() == [[0.0, 0.0], mid.tolist()]
    assert parts.right.polygon.points.tolist() == [mid.tolist(), [1.0, 0.0]]


def test_subdivision_shares_the_join_point():
    curve = make_curve(preset_polygon("f"), -1.0)
    parts = curve.subdivide(0.31)
    n = curve.spec.degree
    assert parts.left.polygon[0].tolist() == curve.polygon[0].tolist()
    assert parts.right.polygon[n].tolist() == curve.polygon[n].tolist()
    assert parts.left.polygon[n].tolist() == parts.right.polygon[0].tolist()


def test_subdivide_split_must_be_interior():
    curve = make_curve(preset_polygon("a"), 2.0)
    for c in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            curve.subdivide(c)


def test_children_follow_parent_through_split_reparams():
    poly = preset_polygon("g")
    for alpha in (5.0, -1.0):
        curve = make_curve(poly, alpha)
        parts = curve.subdivide(0.5)
        u = curve.homography.split_left(0.5)
        v = curve.homography.split_right(0.5)
        for t in np.linspace(0.0, 1.0, 100):
            assert np.abs(parts.left.point(t) - curve.point(u(t))).max() <= 1e-10
            assert np.abs(parts.right.point(t) - curve.point(v(t))).max() <= 1e-10


def test_tableau_entries_expand_in_the_lower_degree_basis():
    curve = make_curve(preset_polygon("c"), 2.0)
    c = 0.37
    tab = curve.tableau(c)
    n = curve.spec.degree
    pts = curve.polygon.points
    for j in range(n + 1):
        sub = BasisSpec(j, curve.homography)
        vals = sub.values(c)
        for k in range(n + 1 - j):
            expansion = sum(pts[i + k] * vals[i] for i in range(j + 1))
            assert np.abs(tab.levels[j][k] - expansion).max() <= 1e-12


def test_recursive_subdivision_counts_and_endpoints():
    curve = make_curve(preset_polygon("g"), 2.0)
    assert curve.subdivide_recursive(0) == [curve.polygon]
    assert curve.subdivide_recursive(0)[0] is curve.polygon
    pieces = curve.subdivide_recursive(4)
    assert len(pieces) == 16
    assert pieces[0][0].tolist() == curve.polygon[0].tolist()
    assert pieces[-1][-1].tolist() == curve.polygon[3].tolist()


def test_recursive_subdivision_depth_guard():
    curve = make_curve(preset_polygon("g"), 2.0)
    with pytest.raises(ArgumentError):
        curve.subdivide_recursive(21)
    with pytest.raises(ArgumentError):
        curve.subdivide_recursive(-1)


@pytest.mark.parametrize("name", "abcdefghi")
def test_batched_subdivision_matches_recursive_oracle(name):
    for alpha in ORACLE_ALPHAS:
        curve = make_curve(preset_polygon(name), alpha)
        for depth in range(10):
            pieces = curve.subdivide_recursive(depth)
            expected = reference_subdivide_recursive(curve, depth)
            assert len(pieces) == len(expected) == 2**depth
            for piece, ref in zip(pieces, expected):
                assert isinstance(piece, ControlPolygon)
                assert np.array_equal(piece.points, ref.points)


def test_batched_subdivision_in_one_and_three_dimensions():
    for pts in ([0.0, 4.0, -1.0, 2.0, 0.5], [(0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (3.0, -1.0, 2.0)]):
        curve = make_curve(pts, -2.0, -1.0, 3.0)
        for depth in (1, 3, 6):
            for piece, ref in zip(curve.subdivide_recursive(depth),
                                  reference_subdivide_recursive(curve, depth), strict=True):
                assert np.array_equal(piece.points, ref.points)


def test_subdivision_needs_an_interior_midpoint():
    # the floats between 1e16 and 1e16 + 2 hold no midpoint
    curve = make_curve(preset_polygon("a"), 2.0, 1e16, 1e16 + 2.0)
    with pytest.raises(DomainError):
        reference_subdivide_recursive(curve, 1)
    with pytest.raises(DomainError):
        curve.subdivide_recursive(1)


def test_subdivision_pieces_are_read_only_views_of_one_stack():
    for name, alpha in (("a", -1.0), ("e", 5.0), ("i", INFINITY)):
        curve = make_curve(preset_polygon(name), alpha)
        pieces = curve.subdivide_recursive(5)
        stack = pieces[0].points.base
        assert stack is not None and not stack.flags.writeable
        for piece, ref in zip(pieces, reference_subdivide_recursive(curve, 5), strict=True):
            assert piece.points.base is stack
            assert not piece.points.flags.writeable
            assert np.array_equal(piece.points, ref.points)
        with pytest.raises(ValueError):
            pieces[3].points[0, 0] = 0.0


def test_subdivision_that_overflows_is_rejected():
    # every control point is finite, but w*p + (1-w)*p rounds past the largest double
    big = 1.7976931348623157e308
    curve = make_curve([(big, -big)] * 4, 3.0, 0.0, 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ArgumentError, match="control points must be finite"):
            curve.subdivide_recursive(3)
        assert (outcome(curve.subdivision_stack, 3)
                == outcome(reference_subdivision_stack, curve, 3)
                == ("ArgumentError", "control points must be finite"))


def test_subdivision_stack_is_the_read_only_chain_of_the_pieces():
    for pts, alpha in ((preset_polygon("g"), 2.0), ([0.0, 4.0, -1.0, 2.0], -1.0),
                       ([(0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (3.0, -1.0, 2.0)], INFINITY)):
        curve = make_curve(pts, alpha)
        n, dim = curve.spec.degree, curve.polygon.dim
        own = curve.subdivision_stack(0)
        assert np.shares_memory(own, curve.polygon.points)
        assert outcome(lambda: own[0]) == outcome(lambda: curve.polygon.points)
        for depth in range(7):
            stack = curve.subdivision_stack(depth)
            assert stack.shape == (2**depth, n + 1, dim)
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0
            pieces = curve.subdivide_recursive(depth)
            assert (outcome(stack.reshape, -1, dim)
                    == outcome(np.vstack, [p.points for p in pieces]))


#: Indices of the kernel oracles: the oracle set and both margins of the forbidden band.
KERNEL_ALPHAS = (-1.0, 2.0, 5.0, INFINITY, -1e-9, 1.0 + 1e-9)


def _kernel_curves(dim, degrees):
    """Random curves in R^dim over (-1, 2.5), at unit scale and scaled by 1e-200."""
    rng = np.random.default_rng(dim)
    for n in degrees:
        pts = rng.standard_normal((n + 1, dim))
        for scale in (1.0, 1e-200):
            for alpha in KERNEL_ALPHAS:
                yield make_curve(pts * scale, alpha, -1.0, 2.5)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_tableau_and_split_match_the_per_level_reference(dim):
    rng = np.random.default_rng(100 + dim)
    for curve in _kernel_curves(dim, range(1, 21)):
        width = curve.b - curve.a
        for c in (curve.a + rng.uniform(0.01, 0.99) * width,
                  curve.a + 1e-9 * width, curve.b - 1e-9 * width):
            levels = reference_tableau(curve, c)
            assert outcome(lambda: curve.tableau(c).levels) == outcome(tuple, levels)
            assert outcome(lambda: curve.decasteljau(c)[0]) == outcome(lambda: levels[-1][0])
            parts = curve.subdivide(c)
            assert (outcome(lambda: (parts.left.polygon.points, parts.right.polygon.points))
                    == outcome(reference_children, curve, c))


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_subdivision_stack_matches_the_per_level_reference(dim):
    for curve in _kernel_curves(dim, (1, 4)):
        for depth in range(10):
            assert (outcome(curve.subdivision_stack, depth)
                    == outcome(reference_subdivision_stack, curve, depth)), (curve, depth)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_subdivision_stack_matches_the_reference_at_every_depth_to_ten(dim):
    # every preset under the oracle indices, mapped into R^dim; the levels are
    # written in place, so each depth is checked, not only the last
    for name in "abcdefghi":
        for alpha in ORACLE_ALPHAS:
            curve = make_curve(_in_dimension(preset_polygon(name), dim), alpha)
            for depth, expected in enumerate(reference_subdivision_levels(curve, 10)):
                stack = curve.subdivision_stack(depth)
                assert outcome(lambda: stack) == outcome(lambda: expected), (name, alpha, depth)
                assert not stack.flags.writeable


def test_subdivision_stack_peaks_below_the_per_level_stacking():
    # the children are written into one array per level and each tableau is
    # dropped before the next is built: stacking both children's points per
    # level, and then both halves, peaked at 3.25 times the depth-14 stack
    curve = make_curve(preset_polygon("g"), 2.0)
    curve.subdivision_stack(2)
    tracemalloc.start()
    try:
        stack = curve.subdivision_stack(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (2**14, 4, 2)
    assert peak <= 2.5 * stack.nbytes, peak / stack.nbytes


def test_subdivision_polygons_approach_the_curve():
    dense_xs = np.linspace(0.0, 1.0, 1024)
    for alpha in ALPHAS:
        curve = make_curve(preset_polygon("g"), alpha)
        dense = curve.samples(dense_xs)
        dists = []
        for depth in (0, 2, 4):
            chain = curve.subdivision_stack(depth).reshape(-1, 2)
            dists.append(hausdorff_distance(densify_polyline(chain, 4), dense))
        assert dists[0] > dists[1] > dists[2]


def test_deep_subdivision_is_close():
    for name in ("a", "g"):
        curve = make_curve(preset_polygon(name), 2.0)
        dense = curve.samples(np.linspace(0.0, 1.0, 1024))
        chain = curve.subdivision_stack(10).reshape(-1, 2)
        dist = hausdorff_distance(densify_polyline(chain, 4), dense)
        assert dist <= 1e-3 * curve.polygon.diameter()


def test_tracer_wraps_and_restores_the_traced_curve_names(monkeypatch):
    # the benchmark's tracer looks every traced name up on its owner; a name
    # that is renamed or removed here breaks the traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    import tracing
    tracer = tracing.Tracer(alphabezier, tracing.Recorder())
    owners = [vars(mod) for mod in tracer._modules()] + [
        vars(alphabezier.hausdorff), alphabezier.cli.DISPATCH] + [
        getattr(getattr(alphabezier, layer), cls_name).__dict__
        for layer, cls_name, _ in tracing._TARGETS if cls_name is not None]
    before = [dict(owner) for owner in owners]
    tracer.install()
    try:
        curve = alphabezier.make_curve(preset_polygon("g"), 2.0)
        curve.subdivide_recursive(2)
        curve.subdivide(0.3)
        # as the geometry op calls them: through the package
        chain = alphabezier.densify_polyline(curve.subdivision_stack(2).reshape(-1, 2), 2)
        alphabezier.hausdorff_distance(chain, curve.samples(np.linspace(0.0, 1.0, 9)))
    finally:
        tracer.restore()
    opened = {tracer.rec.names[nid] for nid in tracer.rec.nid}  # spans that ran
    assert {"curve.make_curve", "curve.BezierCurve.subdivide_recursive",
            "curve.densify_polyline", "curve.hausdorff_distance",
            "curve.BezierCurve.subdivide", "curve.BezierCurve.tableau",
            "curve.DeCasteljauTableau.left_points",
            "curve.DeCasteljauTableau.right_points"} <= opened
    for owner, saved in zip(owners, before):
        assert dict(owner).keys() == saved.keys()
        assert all(owner[key] is value for key, value in saved.items())


# -------------------------------------------------------- endpoint tangents


def test_endpoint_tangent_example():
    curve = make_curve([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 3.0)], 2.0)
    tangents = curve.endpoint_tangents()
    assert tangents.start.tolist() == [6.0, 0.0]
    assert not tangents.start_degenerate


def test_endpoint_tangent_classical():
    curve = make_curve(preset_polygon("h"), INFINITY)
    tangents = curve.endpoint_tangents()
    legs = curve.polygon.points
    assert tangents.start == pytest.approx(3.0 * (legs[1] - legs[0]), abs=1e-12)
    assert tangents.end == pytest.approx(3.0 * (legs[3] - legs[2]), abs=1e-12)


def test_endpoint_tangents_match_one_sided_differences():
    h = 1e-7
    for alpha in ALPHAS:
        curve = make_curve(preset_polygon("e"), alpha)
        tangents = curve.endpoint_tangents()
        fd_start = (curve.point(h) - curve.point(0.0)) / h
        fd_end = (curve.point(1.0) - curve.point(1.0 - h)) / h
        assert np.abs(fd_start - tangents.start).max() <= 1e-5 * np.abs(tangents.start).max()
        assert np.abs(fd_end - tangents.end).max() <= 1e-5 * np.abs(tangents.end).max()


def test_endpoint_tangents_parallel_to_legs():
    curve = make_curve(preset_polygon("c"), -4.0)
    tangents = curve.endpoint_tangents()
    legs = curve.polygon.points
    first = (legs[1] - legs[0]) / np.linalg.norm(legs[1] - legs[0])
    start = tangents.start / np.linalg.norm(tangents.start)
    assert np.abs(start - first).max() <= 1e-10


def test_zero_leg_sets_degeneracy_flag():
    curve = make_curve([(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)], 2.0)
    tangents = curve.endpoint_tangents()
    assert tangents.start_degenerate
    assert tangents.start.tolist() == [0.0, 0.0]
    assert not tangents.end_degenerate


# ----------------------------------------------------------- affine maps


def test_identity_transform_is_a_noop():
    curve = make_curve(preset_polygon("b"), 2.0)
    same = curve.transformed(np.eye(2), (0.0, 0.0))
    for x in np.linspace(0.0, 1.0, 25):
        assert same.point(x).tolist() == curve.point(x).tolist()


def test_rotation_commutes_with_evaluation():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    curve = make_curve(preset_polygon("a"), -1.0)
    rotated = curve.transformed(rot)
    tol = 1e-12 * curve.polygon.diameter()
    for x in np.linspace(0.0, 1.0, 100):
        assert np.abs(rotated.point(x) - rot @ curve.point(x)).max() <= tol


def test_translation_shifts_samples():
    offset = np.array([3.0, -2.0])
    curve = make_curve(preset_polygon("e"), 5.0)
    moved = curve.transformed(np.eye(2), offset)
    tol = 1e-12 * (curve.polygon.diameter() + np.abs(offset).max())
    for x in np.linspace(0.0, 1.0, 50):
        assert np.abs(moved.point(x) - (curve.point(x) + offset)).max() <= tol


# -------------------------------------------------------------- convex hull


def test_samples_stay_in_convex_hull():
    xs = np.linspace(0.0, 1.0, 200)
    for name in "abcdefghi":
        for alpha in ALPHAS:
            curve = make_curve(preset_polygon(name), alpha)
            slack = 1e-10 * max(curve.polygon.diameter(), 1.0)
            assert hull_violation(curve.polygon.points, curve.samples(xs)) <= slack


def test_convex_hull_in_one_dimension():
    curve = make_curve([0.0, 4.0, -1.0, 2.0], 2.0)
    samples = curve.samples(np.linspace(0.0, 1.0, 100))
    assert hull_violation(curve.polygon.points, samples) <= 1e-10


def test_convex_hull_in_three_dimensions():
    pts = [(0.0, 0.0, 0.0), (1.0, 2.0, 1.0), (3.0, -1.0, 2.0), (4.0, 0.0, -1.0)]
    curve = make_curve(pts, -2.0)
    samples = curve.samples(np.linspace(0.0, 1.0, 100))
    assert hull_violation(curve.polygon.points, samples) <= 1e-10


# --------------------------------------------------------------- curvature


def test_collinear_polygon_has_zero_curvature():
    curve = make_curve([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0), (4.0, 4.0)], 2.0)
    for x in (0.1, 0.5, 0.9):
        assert curve.curvature(x) <= 1e-12


def test_curvature_against_circle_fit():
    curve = make_curve([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], INFINITY)
    kappa = curve.curvature(0.5)
    assert kappa == pytest.approx(1.0, abs=1e-12)
    h = 1e-4
    radius = circumradius(curve.point(0.5 - h), curve.point(0.5), curve.point(0.5 + h))
    assert kappa == pytest.approx(1.0 / radius, abs=1e-6)


def test_curvature_matches_across_indices():
    base = make_curve(preset_polygon("b"), 2.0)
    other = reindexed(base, 5.0)
    f, g = base.homography, other.homography
    for x in np.linspace(0.02, 0.98, 50):
        y = g.inverse(f.value(x))
        ka, kb = base.curvature(x), other.curvature(y)
        assert abs(ka - kb) <= 1e-8 * abs(ka)


def test_curvature_guards():
    flat = make_curve([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 2.0)
    with pytest.raises(SingularPointError):
        flat.curvature(0.0)
    line = make_curve([0.0, 1.0], 2.0)
    with pytest.raises(ArgumentError):
        line.curvature(0.5)


def test_curvature_in_three_dimensions():
    helixish = make_curve([(0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (2.0, 0.0, 1.0)], 2.0)
    assert helixish.curvature(0.5) > 0.0


def reference_curvature(curve, x):
    """Two derivative calls, planar vectors padded with z = 0, and np.cross."""
    if curve.polygon.dim not in (2, 3):
        raise ArgumentError("curvature needs 2-D or 3-D control points")
    v1 = reference_derivatives(curve.spec, x, 1) @ curve.polygon.points
    v2 = reference_derivatives(curve.spec, x, 2) @ curve.polygon.points
    if curve.polygon.dim == 2:
        v1 = np.append(v1, 0.0)
        v2 = np.append(v2, 0.0)
    speed = float(np.linalg.norm(v1))
    if speed <= 1e-12:
        raise SingularPointError(f"first derivative vanishes at x={x!r}")
    return float(np.linalg.norm(np.cross(v1, v2)) / speed**3)


def _curvature_polygons(n, dim, rng):
    """Random points; legs of zero length at either end or everywhere, which
    make the curve singular there; huge points, whose derivatives overflow;
    and huge interior points behind short end legs, whose second derivative
    overflows near an index margin while the first stays finite."""
    pts = rng.uniform(-5.0, 5.0, (n + 1, dim))
    ends = pts.copy()
    ends[1], ends[-2] = ends[0], ends[-1]
    huge = rng.uniform(-1.0, 1.0, (n + 1, dim)) * 1.7e308
    spiked = pts.copy()
    spiked[2:-2] *= 1e299
    return pts, ends, np.repeat(pts[:1], n + 1, axis=0), 1e-200 * pts, huge, spiked


@pytest.mark.parametrize("n", range(1, 31))
def test_curvature_matches_the_two_pass_version_bit_for_bit(n):
    rng = np.random.default_rng([n, 5])
    with np.errstate(all="ignore"):  # the huge polygons overflow in both versions
        for alpha in EDGE_ALPHAS:
            for a, b in EDGE_INTERVALS:
                spec = BasisSpec(n, HomographyMap(a, b, alpha))
                for dim in (1, 2, 3):
                    polygons = _curvature_polygons(n, dim, rng)
                    for pts in polygons[:1] if dim == 1 else polygons:  # 1-D always raises
                        curve = BezierCurve(ControlPolygon(pts), spec)
                        for x in edge_points(a, b):
                            assert (outcome(curve.curvature, x)
                                    == outcome(reference_curvature, curve, x)), (alpha, a, b, x)


def test_curvature_references_reach_every_branch():
    # the cases above raise both guards, overflow, and give NaN through the
    # padded components of the planar cross product
    spec = BasisSpec(3, HomographyMap(0.0, 1.0, 2.0))
    line = BezierCurve(ControlPolygon([0.0, 1.0, 2.0, 4.0]), spec)
    assert outcome(line.curvature, 0.5)[0] == "ArgumentError"
    _, ends, _, tiny, _, _ = _curvature_polygons(3, 2, np.random.default_rng(0))
    for pts, x in ((ends, 1.0), (tiny, 0.5)):
        assert outcome(BezierCurve(ControlPolygon(pts), spec).curvature, x)[0] == "SingularPointError"
    big = BezierCurve(ControlPolygon([(0.0, 0.0), (1e120, 0.0), (0.0, 1e120), (1.0, 0.0)]), spec)
    assert outcome(big.curvature, 0.5)[0] == "OverflowError"  # speed**3
    near_band = BasisSpec(3, HomographyMap(0.0, 1.0, 1.0 + 1e-9))
    spiked = BezierCurve(ControlPolygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1e300), (1.0, 0.0)]),
                         near_band)
    with np.errstate(all="ignore"):
        assert np.isfinite(spiked.derivative(0.0, 1)).all()
        assert not np.isfinite(spiked.derivative(0.0, 2)).all()
        assert np.isnan(spiked.curvature(0.0))  # |z| alone would give inf


# --------------------------------------------------- index independence


def test_same_index_correspondence_is_trivial():
    curve = make_curve(preset_polygon("c"), 2.0)
    report = index_invariance(curve, reindexed(curve, 2.0))
    assert report.max_deviation <= 1e-12 * curve.polygon.diameter()
    assert report.parameters.shape == report.mapped_parameters.shape


def test_cross_interval_correspondence():
    curve = make_curve(preset_polygon("c"), -1.0)
    other = reindexed(curve, 5.0, (2.0, 7.0))
    report = index_invariance(curve, other)
    assert report.max_deviation <= 1e-10 * curve.polygon.diameter()


def test_classical_correspondence():
    curve = make_curve(preset_polygon("d"), 2.0)
    report = index_invariance(curve, reindexed(curve, INFINITY))
    assert report.max_deviation <= 1e-10 * curve.polygon.diameter()


def test_correspondence_scales_exactly_at_every_magnitude():
    # the differences are scaled by a power of two before they are squared,
    # so 2**j P gives 2**j times the deviation of P, bit for bit, where
    # squaring the raw differences underflows (j = -500) or overflows (j = 1000)
    cases = (("c", 2.0, 5.0, None), ("c", -1.0, 5.0, (2.0, 7.0)), ("d", 2.0, INFINITY, None))
    for name, alpha, other_alpha, interval in cases:
        points = preset_polygon(name).points
        curve = make_curve(points, alpha)
        unit = index_invariance(curve, reindexed(curve, other_alpha, interval)).max_deviation
        assert unit > 0.0
        for j in (-500, 500, 1000):
            curve = make_curve(points * 2.0**j, alpha)
            report = index_invariance(curve, reindexed(curve, other_alpha, interval))
            assert report.max_deviation == unit * 2.0**j


def test_correspondence_requires_equal_polygons():
    one = make_curve(preset_polygon("a"), 2.0)
    other = make_curve([(0.0, 0.0), (1.0, 1.0)], 2.0)
    with pytest.raises(ArgumentError):
        index_invariance(one, other)


def test_samples_match_per_point_oracle_on_any_point_order():
    rng = np.random.default_rng(41)
    xs = np.array([0.7, 0.1, 0.7, 1.0, 0.0, 0.1, 0.35])
    for pts in (rng.normal(size=6), rng.normal(size=(5, 3)), rng.normal(size=(21, 2))):
        for alpha in ORACLE_ALPHAS:
            curve = make_curve(pts, alpha)
            samples = curve.samples(xs)
            assert samples.shape == (len(xs), curve.polygon.dim)
            assert np.array_equal(samples, reference_samples(curve, xs))
            assert np.array_equal(curve.samples(xs.tolist()), samples)
            for x, row in zip(xs, samples):
                assert np.array_equal(curve.point(x), row)


@pytest.mark.parametrize("name", "abcdefghi")
def test_array_kernels_match_per_point_oracles(name):
    rng = np.random.default_rng(ord(name))
    xs = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 12), [0.5, 0.5]])
    for alpha in ORACLE_ALPHAS:
        curve = make_curve(preset_polygon(name), alpha)
        for degree in range(3, 21):
            assert np.array_equal(curve.samples(xs), reference_samples(curve, xs))
            if degree in (3, 20):
                for other_alpha in ORACLE_ALPHAS:
                    other = reindexed(curve, other_alpha, (-2.0, 3.0))
                    report = index_invariance(curve, other, samples=24)
                    dev, params, mapped = reference_index_invariance(curve, other, 24)
                    assert report.max_deviation == dev
                    assert np.array_equal(report.parameters, params)
                    assert np.array_equal(report.mapped_parameters, mapped)
            raised = curve.elevated()
            assert np.array_equal(raised.polygon.points,
                                  reference_elevated_points(curve.polygon.points))
            curve = raised


def test_elevation_and_invariance_in_one_and_three_dimensions():
    rng = np.random.default_rng(43)
    for pts in (rng.normal(size=2), rng.normal(size=9), rng.normal(size=(2, 3)),
                rng.normal(size=(8, 3))):
        for alpha in ORACLE_ALPHAS:
            curve = make_curve(pts, alpha, -1.0, 2.0)
            assert np.array_equal(curve.elevated().polygon.points,
                                  reference_elevated_points(curve.polygon.points))
            other = reindexed(curve, 3.0)
            assert index_invariance(curve, other, 31).max_deviation == \
                reference_index_invariance(curve, other, 31)[0]


def test_invariance_distances_round_like_per_point_norms():
    # different polygons of equal length: distances are large, so a norm
    # that rounds differently (about 1 case in 14) changes the maximum
    rng = np.random.default_rng(47)
    for k in range(60):
        pts = rng.normal(size=(int(rng.integers(2, 10)), 2 + k % 2))
        curve = make_curve(pts, ORACLE_ALPHAS[k % 6], -1.0, 2.0)
        other = make_curve(rng.normal(size=pts.shape), ORACLE_ALPHAS[(k + 1) % 6], 0.0, 5.0)
        assert index_invariance(curve, other, 31).max_deviation == \
            reference_index_invariance(curve, other, 31)[0]


# ------------------------------------------------------------- utilities


def test_densify_polyline():
    dense = densify_polyline([(0.0, 0.0), (1.0, 0.0)], 4)
    assert dense.tolist() == [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0]]


def test_densify_matches_per_row_oracle():
    rng = np.random.default_rng(7)
    chains = [rng.standard_normal((9, d)) for d in (1, 2, 3)]
    chains.append(make_curve(preset_polygon("e"), 5.0).subdivision_stack(4).reshape(-1, 2))
    chains.append(np.array([[1.5, -2.0]]))
    for chain in chains:
        for per_edge in (1, 2, 8):
            assert np.array_equal(densify_polyline(chain, per_edge),
                                  reference_densify(chain, per_edge))
    with pytest.raises(ArgumentError):
        densify_polyline(chains[0], 0)


def test_densify_rejects_a_count_that_is_not_an_integer():
    chain = [(0.0, 0.0), (3.0, 0.0)]
    for per_edge in (1.5, 2.0, True, "2", None):
        with pytest.raises(ArgumentError, match="per_edge must be a positive integer"):
            densify_polyline(chain, per_edge)
    assert np.array_equal(densify_polyline(chain, np.int64(3)), densify_polyline(chain, 3))


def test_densify_rejects_a_path_without_points():
    for points in ([], np.zeros((0, 2)), np.zeros(0)):
        with pytest.raises(ArgumentError, match="^points has no points$"):
            densify_polyline(points, 2)


def test_one_dimensional_input_is_a_column_of_points():
    # as for ControlPolygon, a flat list holds 1-D points, not one point
    assert densify_polyline([0, 1, 2], 2).tolist() == [[0.0], [0.5], [1.0], [1.5], [2.0]]
    assert hausdorff_distance([0, 1, 2], [0, 1]) == 1.0
    assert hausdorff_distance([0, 1, 2], [[0], [1]]) == 1.0
    assert hausdorff_distance(5.0, [1.0, 2.0]) == 4.0
    a, b = [0.0, 3.0, 1.0, 4.0], [2.0, -1.0, 0.5]
    assert hausdorff_distance(a, b) == reference_hausdorff(a, b) == 2.0
    assert np.array_equal(densify_polyline(a, 3), reference_densify(a, 3))


def test_hausdorff_of_shifted_segments():
    a = [(0.0, 0.0), (1.0, 0.0)]
    b = [(0.0, 1.0), (1.0, 1.0)]
    assert hausdorff_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_sees_midsegment_shortcuts():
    # the vee comes within its vertex distance of the chord only at vertices
    vee = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]
    chord = [(0.0, 0.0), (1.0, 0.0)]
    assert hausdorff_distance(vee, chord) == pytest.approx(1.0, abs=1e-12)


def _hausdorff_case(seed):
    """A pair of polylines; the kind cycles with the seed, then the dimension."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed // 6 % 3
    m, k = (int(v) for v in rng.integers(1, 260, size=2))
    kind = seed % 6
    if kind == 0:  # independent noise: arc-length guesses are meaningless
        return rng.standard_normal((m, dim)), rng.standard_normal((k, dim))
    if kind == 1:  # random walks
        return (np.cumsum(rng.standard_normal((m, dim)), axis=0),
                np.cumsum(rng.standard_normal((k, dim)), axis=0))
    if kind == 2:  # one path traced backwards against the other
        s, t = np.sort(rng.uniform(0.0, 6.0, m)), np.sort(rng.uniform(0.0, 6.0, k))
        helix = lambda u: np.stack([np.cos(u), np.sin(u), 0.3 * u], axis=1)[:, :dim]
        return helix(s), helix(t)[::-1]
    if kind == 3:  # repeated vertices and zero-length segments
        return (np.repeat(rng.standard_normal((m // 3 + 1, dim)), 3, axis=0),
                np.round(rng.standard_normal((k, dim)), 1))
    if kind == 4:  # a single vertex on one side
        return rng.standard_normal((1, dim)), np.cumsum(rng.standard_normal((k, dim)), axis=0)
    # a subdivided chain against curve samples
    q = seed // 6
    curve = make_curve(preset_polygon("abcdefghi"[q % 9]), ORACLE_ALPHAS[q % 6])
    chain = curve.subdivision_stack(8 if q % 4 == 3 else 6).reshape(-1, 2)
    return densify_polyline(chain, 2), curve.samples(np.linspace(0.0, 1.0, 512))


@pytest.mark.parametrize("seed", range(96))
def test_hausdorff_matches_brute_force_oracle(seed):
    a, b = _hausdorff_case(seed)
    assert hausdorff_distance(a, b) == reference_hausdorff(a, b)
    if seed % 6 != 5:  # the all-pairs oracle is slow on the long chains
        for x, y in ((a[::-1], b), (a, b[::-1]), (a[::-1], b[::-1])):
            assert hausdorff_distance(x, y) == reference_hausdorff(x, y)


def test_hausdorff_of_a_long_path_matches_brute_force_oracle():
    # 9000 samples against a 32-vertex chain, both ways and both orientations:
    # most samples are skipped on their bounds, and every chain vertex sees
    # hundreds of chunks of sample segments
    curve = make_curve(preset_polygon("c"), -1.0)
    dense = curve.samples(np.linspace(0.0, 1.0, 9000))
    chain = curve.subdivision_stack(3).reshape(-1, 2)
    for x, y in ((dense, chain), (dense[::-1], chain), (dense, chain[::-1]),
                 (dense[::-1], chain[::-1])):
        assert hausdorff_distance(x, y) == reference_hausdorff(x, y)


def test_hausdorff_of_opposite_paths_keeps_tight_bounds(monkeypatch):
    # a path that runs against the chain takes its arc-length guesses from the
    # chain's far end, so it needs no more kernel passes than the forward pair
    calls = []
    kernel = alphabezier.hausdorff._segment_d2
    monkeypatch.setattr(alphabezier.hausdorff, "_segment_d2",
                        lambda *args: calls.append(1) or kernel(*args))
    curve = make_curve(preset_polygon("c"), 2.0)
    dense = curve.samples(np.linspace(0.0, 1.0, 3000))
    chain = curve.samples(np.linspace(0.0, 1.0, 700))
    counts = []
    for x, y in ((dense, chain), (dense, chain[::-1]), (dense[::-1], chain)):
        calls.clear()
        hausdorff_distance(x, y)
        counts.append(len(calls))
    assert counts[1] <= counts[0] and counts[2] <= counts[0], counts


def test_hausdorff_takes_one_bound_and_one_exact_block_for_both_directions(monkeypatch):
    # the geometry benchmark's inputs: every preset and index, the chain at
    # depths 6-9 densified twice against 512 curve samples, in both orders;
    # the vertices of both paths share one bound pass and one exact block.
    # A single vertex, on either side or on both, is one zero-length segment
    # and takes the same two passes
    calls, per_distance = [], []
    kernel = alphabezier.hausdorff._segment_d2
    monkeypatch.setattr(alphabezier.hausdorff, "_segment_d2",
                        lambda *args: calls.append(1) or kernel(*args))
    for name in "abcdefghi":
        for alpha in ALPHAS:
            curve = make_curve(preset_polygon(name), alpha)
            dense = curve.samples(np.linspace(0.0, 1.0, 512))
            for depth in (6, 7, 8, 9):
                chain = densify_polyline(curve.subdivision_stack(depth).reshape(-1, 2), 2)
                for x, y in ((chain, dense), (dense, chain), (chain[:1], dense),
                             (chain, dense[-1:]), (chain[-1:], dense[:1])):
                    calls.clear()
                    hausdorff_distance(x, y)
                    per_distance.append(len(calls))
    assert len(per_distance) == 9 * len(ALPHAS) * 4 * 5
    assert max(per_distance) <= 2, sorted(set(per_distance))


def _fuzzed_pair(rng, dim):
    """Two paths of one of five kinds, in ``dim`` dimensions."""
    m, k = (int(v) for v in rng.integers(1, 90, size=2))
    kind = int(rng.integers(0, 5))
    walk = lambda n: np.cumsum(rng.standard_normal((n, dim)), axis=0)
    if kind == 0:
        return walk(m), walk(k)
    if kind == 1:  # a helix against a resampled copy traced backwards
        s, t = np.sort(rng.uniform(0.0, 6.0, m)), np.sort(rng.uniform(0.0, 6.0, k))
        helix = lambda u: np.stack([np.cos(u), np.sin(u), 0.3 * u], axis=1)[:, :dim]
        return helix(s), helix(t)[::-1] + 0.01 * rng.standard_normal((k, dim))
    if kind == 2:  # every vertex repeated one to three times
        a = walk(m)
        return np.repeat(a, rng.integers(1, 4, m), axis=0), a[::2] + 0.1
    if kind == 3:  # a single vertex against a walk
        return rng.standard_normal((1, dim)), walk(k)
    a = walk(m)  # a walk against noisy samples of itself
    return a, a[rng.integers(0, m, k)] + 1e-3 * rng.standard_normal((k, dim))


def _assert_scale_covariant(x, y):
    """Both paths scaled by 2**j, tiny or huge, give 2**j times the unit-scale
    oracle's distance bit for bit, where the oracle's own squares would
    underflow or overflow."""
    want = reference_hausdorff(x, y)
    for j in (-1000, -500, 500, 1000):
        assert hausdorff_distance(2.0**j * x, 2.0**j * y) == 2.0**j * want


def test_hausdorff_matches_brute_force_oracle_on_fuzzed_paths():
    rng = np.random.default_rng(1313)
    for trial in range(90):
        dim = 1 + trial % 3
        a, b = _fuzzed_pair(rng, dim)
        scale = (1.0, 1e-300, 1e149)[trial // 3 % 3]
        if scale == 1e-300:  # the oracle's squares underflow: scale by powers of two
            for x, y in ((a, b), (b, a), (a[::-1], b), (a, b[::-1])):
                _assert_scale_covariant(x, y)
            continue
        s = scale / max(np.abs(a).max(), np.abs(b).max())
        a, b = s * a, s * b
        for x, y in ((a, b), (b, a), (a[::-1], b), (a, b[::-1])):
            assert hausdorff_distance(x, y) == reference_hausdorff(x, y)
        if trial % 4 == 0:  # a 1-D path as a flat array
            assert hausdorff_distance(a[:, 0], b[:, 0]) == reference_hausdorff(a[:, 0], b[:, 0])


def test_hausdorff_matches_brute_force_oracle_without_finite_bounds_on_fuzzed_paths():
    rng = np.random.default_rng(1314)
    for trial in range(36):
        a, b = _fuzzed_pair(rng, 1 + trial % 3)
        kind = trial // 3 % 4
        if kind < 2:  # one NaN or inf coordinate on either side, named in the error
            x = (a, b)[trial % 2]
            x[rng.integers(0, len(x)), rng.integers(0, x.shape[1])] = (np.nan, np.inf)[kind]
            for x, y, bad in ((a, b, trial % 2), (b, a, 1 - trial % 2), (a[::-1], b, trial % 2)):
                with pytest.raises(ArgumentError, match=f"^path_{'ab'[bad]} has a NaN or infinite"):
                    hausdorff_distance(x, y)
        else:  # huge: the oracle's squares would overflow
            for x, y in ((a, b), (b, a), (a[::-1], b)):
                _assert_scale_covariant(x, y)


def _farthest_point_behind_decoys():
    """A path 0.1 above the unit segment whose farthest vertex, 0.100001
    above the segment's end, comes last.

    The 128 vertices before it sit far from their arc-length position
    along the segment, so their bounds are loose and they are checked
    first, in two full blocks; the last vertex's bound is tight and only
    just above what those blocks found.
    """
    line = np.column_stack([np.linspace(0.0, 1.0, 1001), np.zeros(1001)])
    run = np.linspace(0.0, 0.5, 64)
    path = np.vstack([np.column_stack([0.5 + run, np.full(64, 0.1)]),
                      np.column_stack([run, np.full(64, 0.1)]),
                      [(1.0, 0.100001)]])
    return path, line


def test_hausdorff_checks_a_tight_bound_behind_loose_ones():
    path, line = _farthest_point_behind_decoys()
    assert hausdorff_distance(path, line) == reference_hausdorff(path, line)
    assert hausdorff_distance(path, line) == pytest.approx(0.100001, rel=1e-12)


def test_hausdorff_without_finite_bounds_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    a = np.cumsum(rng.standard_normal((300, 2)), axis=0)
    b = np.cumsum(rng.standard_normal((200, 2)), axis=0)
    path, line = _farthest_point_behind_decoys()
    nan = a.copy()
    nan[17, 1] = np.nan
    inf = b.copy()
    inf[5, 0] = np.inf
    for x, y in ((path, line), (a, b)):  # as far out as 2**1000, about 1e301
        _assert_scale_covariant(x, y)
    for x, y, bad in ((nan, b, "a"), (b, nan, "b"), (a, inf, "b"), (inf, a, "a"), (nan, inf, "a")):
        with pytest.raises(ArgumentError, match=f"^path_{bad} has a NaN or infinite coordinate$"):
            hausdorff_distance(x, y)
    assert hausdorff_distance(1e151 * path, 1e151 * line) == pytest.approx(0.100001e151, rel=1e-12)
    assert hausdorff_distance(1e-300 * path, 1e-300 * line) == pytest.approx(0.100001e-300, rel=1e-12)


def _spiked_chain(segments):
    """A chain along the x axis whose last segment in every chunk, and whose
    very last segment, climbs 100 units: a box that missed a chunk's end
    vertex would leave out most of that segment."""
    y = np.zeros(segments + 1)
    y[_HAUSDORFF_CHUNK::_HAUSDORFF_CHUNK] = 100.0
    y[-1] = 100.0
    return np.column_stack([np.arange(segments + 1.0), y])


def _culling_cases():
    """Planar path pairs that a wrong chunk cull would get wrong."""
    c = _HAUSDORFF_CHUNK
    cases = []
    for segments in (1, c - 1, c, c + 1, 3 * c + 5):
        chain = _spiked_chain(segments)
        legs = 0.5 * (chain[1:] + chain[:-1])
        cases.append((np.vstack([chain, legs + 0.25]), chain))
        # zero-length segments: every vertex doubled, and a first chunk of one repeated point
        cases.append((legs - 0.25, np.repeat(chain, 2, axis=0)))
        cases.append((legs, np.vstack([np.repeat(chain[:1], c + 3, axis=0), chain])))
    # hairpins: out along y = 0 and back along y = 1e-3, so a point's nearest
    # segment lies in a chunk far from the one its arc length points at
    out = np.column_stack([np.linspace(0.0, 1.0, 3 * c + 2), np.zeros(3 * c + 2)])
    hairpin = np.vstack([out, out[::-1] + (0.0, 1e-3)])
    cases.append((out[1::2] + (1e-4, 7e-4), hairpin))
    cases.append((hairpin[::-3] + (0.0, 4e-4), hairpin))
    folded = np.column_stack([np.cos(np.linspace(0.0, 6.0 * np.pi, 7 * c)),
                              np.linspace(0.0, 1e-2, 7 * c)])
    cases.append((folded[::5] + (0.0, 3e-3), folded))
    return cases


def _in_dimension(path, dim):
    """The planar path mapped to 1-D, 2-D or 3-D by a fixed linear map."""
    maps = {1: [[1.0], [0.3]], 2: [[1.0, 0.0], [0.0, 1.0]],
            3: [[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]]}
    return path @ np.array(maps[dim])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 0.999e150])
def test_culled_hausdorff_matches_brute_force_oracle(dim, scale):
    for a, b in _culling_cases():
        a = _in_dimension(a, dim)
        b = _in_dimension(b, dim)
        if scale == 1e-300:  # the oracle's squares underflow: scale by powers of two
            _assert_scale_covariant(a, b)
            _assert_scale_covariant(b, a[::-1])
            continue
        s = scale / max(np.abs(a).max(), np.abs(b).max()) if scale != 1.0 else 1.0
        a, b = s * a, s * b
        assert hausdorff_distance(a, b) == reference_hausdorff(a, b)
        assert hausdorff_distance(b, a[::-1]) == reference_hausdorff(b, a[::-1])


def test_culling_keeps_a_chunk_that_only_rounding_reaches():
    # the chain ends with the segment [0.12, 1.14], whose end the kernel puts at
    # 0.12 + (1.14 - 0.12) = 1.1400000000000001, one ulp outside the last chunk's
    # box: at that point the computed distance is 0 while the computed box
    # distance is not, and only the margin keeps the chunk
    end = 0.12 + (1.14 - 0.12)
    assert end > 1.14
    line = np.concatenate([np.arange(-4.0 * _HAUSDORFF_CHUNK, 0.0), [0.12, 1.14]])
    for dim in (1, 2):
        chain = np.column_stack([line, np.zeros_like(line)])[:, :dim]
        path = np.vstack([chain[::16], [[end, 0.0][:dim]]])  # one block of points
        assert hausdorff_distance(path, chain) == reference_hausdorff(path, chain)
        assert hausdorff_distance(chain, path) == reference_hausdorff(chain, path)


def _one_sided_pair(dim):
    """Samples of a diagonal segment, and a shifted copy of its first half: the
    vertices of the first lie up to half the segment from the second, those of
    the second only the shift from the first."""
    line = np.linspace(0.0, 1.0, 300)[:, None] * np.linspace(1.0, 0.5, dim)
    return line, line[:150:3] + 0.01


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pooled_hausdorff_matches_the_oracle_whichever_direction_is_larger(dim):
    long, short = _one_sided_pair(dim)
    forward = reference_min_dist_to_polyline(long, short).max()
    backward = reference_min_dist_to_polyline(short, long).max()
    assert forward > 10 * backward  # the larger direction starts at the first argument
    assert hausdorff_distance(long, short) == hausdorff_distance(short, long) == forward
    for a, b in ((long, short), (short, long), (long[::-1], short), (short, long[::-1])):
        assert hausdorff_distance(a, b) == reference_hausdorff(a, b)
        doubled = np.repeat(a, 2, axis=0)  # duplicate vertices: zero-length segments
        assert hausdorff_distance(doubled, b) == reference_hausdorff(doubled, b)
        assert hausdorff_distance(b, doubled) == reference_hausdorff(b, doubled)
        for x, y in ((a[:1], b), (a, b[:1]), (a[-1:], b[:1]), (a[:1], np.repeat(b[:1], 3, 0))):
            # a single vertex on either side, or on both
            assert hausdorff_distance(x, y) == reference_hausdorff(x, y)
            with pytest.raises(ArgumentError, match="^paths have point dimensions"):
                hausdorff_distance(x, np.hstack([y, y]))


def test_pooled_hausdorff_block_meets_a_short_path_whole_and_a_long_one_by_chunks(monkeypatch):
    # 20 vertices above a 600-vertex line: the largest bounds of both paths share
    # one exact block, which gathers the chunks each vertex hits; the short
    # path's 19 segments are one chunk, padded with its last segment, that the
    # line vertices meet whole, while the short-path vertices meet only the
    # line's nearby chunks
    v0s = []
    kernel = alphabezier.hausdorff._segment_d2
    monkeypatch.setattr(alphabezier.hausdorff, "_segment_d2",
                        lambda p, v0, *rest: v0s.append(v0) or kernel(p, v0, *rest))
    xs = np.linspace(0.0, 1.0, 600)
    line = np.column_stack([xs, np.zeros_like(xs)])
    short = np.column_stack([np.linspace(0.0, 1.0, 20), 0.05 + 0.02 * (np.arange(20) % 2)])
    for dim in (1, 2, 3):
        a, b = _in_dimension(short, dim), _in_dimension(line, dim)
        for x, y in ((a, b), (b, a), (a[::-1], b), (b, a[::-1])):
            v0s.clear()
            assert hausdorff_distance(x, y) == reference_hausdorff(x, y)
            bound, *exact = v0s
            assert bound.shape == (dim, 620)  # one bound per vertex of either path
            assert exact and all(v0.shape[2:] == (_HAUSDORFF_CHUNK,) for v0 in exact)
            path = x if len(x) == 20 else y
            whole = np.vstack([path[:-1], np.repeat(path[-2:-1], _HAUSDORFF_CHUNK - 19, 0)]).T
            assert any(np.array_equal(v0[:, k], whole) for v0 in exact for k in range(v0.shape[1]))
            assert any(v0.shape[1] > 1 for v0 in exact)  # chunks gathered for several vertices


def test_all_pairs_hausdorff_keeps_each_directions_vertices_apart():
    # the point's distance to the segment is 0 and the segment's end lies 1e200
    # from the point, whose square overflows unless scaled; a vertex that met
    # its own path's segments would report 0
    point, segment = np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1e200, 0.0]])
    for a, b in ((point, segment), (segment, point), (segment[::-1], point)):
        assert hausdorff_distance(a, b) == 1e200


def test_hausdorff_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in (([-1e308], [1e308]), ([[-1e308, 0.0]], [[1e308, 1.0]]),
                     ([-1e308, 1e308], [1e308]), ([1e308], [-1e308, 1e308])):
            assert hausdorff_distance(a, b) == np.inf


def test_hausdorff_rejects_mixed_dimensions():
    with pytest.raises(ArgumentError):
        hausdorff_distance(np.zeros((3, 2)), np.zeros((4, 3)))


def test_hausdorff_and_densify_name_a_path_of_more_than_two_dimensions():
    cube, pts = np.zeros((3, 2, 2)), np.zeros((3, 2))
    with pytest.raises(ArgumentError, match="^path_a must be a 1-D or 2-D array"):
        hausdorff_distance(cube, pts)
    with pytest.raises(ArgumentError, match="^path_b must be a 1-D or 2-D array"):
        hausdorff_distance(pts, cube)
    with pytest.raises(ArgumentError, match="^points must be a 1-D or 2-D array"):
        densify_polyline(cube, 2)


def test_hausdorff_rejects_a_path_without_points():
    pts = np.zeros((3, 2))
    with pytest.raises(ArgumentError, match="^path_a has no points$"):
        hausdorff_distance(np.zeros((0, 2)), pts)
    with pytest.raises(ArgumentError, match="^path_b has no points$"):
        hausdorff_distance(pts, np.zeros((0, 2)))
    with pytest.raises(ArgumentError, match="^path_a has no points$"):
        hausdorff_distance([], [])


# ------------------------------------------------------- reference kernels
# The straightforward implementations the fast kernels replaced, kept as
# oracles: the fast versions must agree with them bit for bit.  Basis rows
# come from the library's own per-point ``values``, whose accuracy
# test_accuracy.py measures against exact rationals.


def reference_points(points):
    """An (n, d) float array; a 1-D input is a column of 1-D points."""
    pts = np.asarray(points, dtype=float)
    return pts.reshape(-1, 1) if pts.ndim < 2 else pts


def reference_densify(points, per_edge):
    pts = reference_points(points)
    ts = np.arange(per_edge) / per_edge
    rows = [(1.0 - t) * pts[i] + t * pts[i + 1] for i in range(len(pts) - 1) for t in ts]
    rows.append(pts[-1])
    return np.array(rows)


def reference_min_dist_to_polyline(points, vertices):
    """Distance from each point to the nearest segment, all pairs in 128-row chunks."""
    if len(vertices) == 1:
        return np.sqrt(((points - vertices[0]) ** 2).sum(-1))
    v0 = vertices[:-1]
    dv = vertices[1:] - v0
    len2 = (dv**2).sum(-1)
    len2 = np.where(len2 == 0.0, 1.0, len2)
    out = np.empty(len(points))
    for start in range(0, len(points), 128):
        chunk = points[start : start + 128]
        diff = chunk[:, None, :] - v0[None, :, :]
        t = np.clip((diff * dv[None]).sum(-1) / len2[None], 0.0, 1.0)
        proj = v0[None] + t[..., None] * dv[None]
        d2 = ((chunk[:, None, :] - proj) ** 2).sum(-1)
        out[start : start + 128] = np.sqrt(d2.min(axis=1))
    return out


def reference_hausdorff(path_a, path_b):
    a, b = reference_points(path_a), reference_points(path_b)
    return float(max(reference_min_dist_to_polyline(a, b).max(),
                     reference_min_dist_to_polyline(b, a).max()))


def reference_samples(curve, xs):
    """One basis row times the polygon per point."""
    pts = curve.polygon.points
    return np.array([curve.spec.values(x) @ pts for x in np.asarray(xs, dtype=float)])


def reference_elevated_points(pts):
    n = len(pts) - 1
    out = np.empty((n + 2, pts.shape[1]))
    out[0] = pts[0]
    out[n + 1] = pts[n]
    for i in range(1, n + 1):
        t = i / (n + 1.0)
        out[i] = t * pts[i - 1] + (1.0 - t) * pts[i]
    return out


def reference_index_invariance(curve, other, samples):
    """Largest per-point distance, plus both parameter grids."""
    f, g = curve.homography, other.homography
    xs = np.linspace(curve.a, curve.b, samples)
    ys = np.array([g.inverse_pair(*f.weights(x)) for x in xs])
    dev = 0.0
    for x, y in zip(xs, ys):
        p = curve.spec.values(x) @ curve.polygon.points
        q = other.spec.values(y) @ other.polygon.points
        dev = max(dev, float(np.linalg.norm(p - q)))
    return dev, xs, ys
