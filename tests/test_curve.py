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
from helpers import (
    any_alpha,
    circumradius,
    hull_violation,
    in_interval,
    intervals,
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


def test_polygon_accepts_scalars_as_1d():
    poly = ControlPolygon([0.0, 1.0, 3.0])
    assert poly.dim == 1
    assert poly.degree == 2
    assert poly.diameter() == 3.0


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


def test_subdivision_polygons_approach_the_curve():
    dense_xs = np.linspace(0.0, 1.0, 1024)
    for alpha in ALPHAS:
        curve = make_curve(preset_polygon("g"), alpha)
        dense = curve.samples(dense_xs)
        dists = []
        for depth in (0, 2, 4):
            chain = np.vstack([p.points for p in curve.subdivide_recursive(depth)])
            dists.append(hausdorff_distance(densify_polyline(chain, 4), dense))
        assert dists[0] > dists[1] > dists[2]


def test_deep_subdivision_is_close():
    for name in ("a", "g"):
        curve = make_curve(preset_polygon(name), 2.0)
        dense = curve.samples(np.linspace(0.0, 1.0, 1024))
        chain = np.vstack([p.points for p in curve.subdivide_recursive(10)])
        dist = hausdorff_distance(densify_polyline(chain, 4), dense)
        assert dist <= 1e-3 * curve.polygon.diameter()


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
    chains.append(np.vstack([p.points for p in
                             make_curve(preset_polygon("e"), 5.0).subdivide_recursive(4)]))
    chains.append(np.array([[1.5, -2.0]]))
    for chain in chains:
        for per_edge in (1, 2, 8):
            assert np.array_equal(densify_polyline(chain, per_edge),
                                  reference_densify(chain, per_edge))
    with pytest.raises(ArgumentError):
        densify_polyline(chains[0], 0)


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
    chain = np.vstack([p.points for p in curve.subdivide_recursive(8 if q % 4 == 3 else 6)])
    return densify_polyline(chain, 2), curve.samples(np.linspace(0.0, 1.0, 512))


@pytest.mark.parametrize("seed", range(96))
def test_hausdorff_matches_brute_force_oracle(seed):
    a, b = _hausdorff_case(seed)
    assert hausdorff_distance(a, b) == reference_hausdorff(a, b)
    if seed % 6 != 5:  # the all-pairs oracle is slow on the long chains
        assert hausdorff_distance(a[::-1], b) == reference_hausdorff(a[::-1], b)


def test_hausdorff_of_a_long_path_matches_brute_force_oracle():
    # more points than one windowed bound pass takes
    curve = make_curve(preset_polygon("c"), -1.0)
    dense = curve.samples(np.linspace(0.0, 1.0, 9000))
    chain = np.vstack([p.points for p in curve.subdivide_recursive(3)])
    assert hausdorff_distance(dense, chain) == reference_hausdorff(dense, chain)
    assert hausdorff_distance(dense[::-1], chain) == reference_hausdorff(dense[::-1], chain)


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
    # 1e151 is past the pruning limit but squares stay finite; 1e200 overflows
    cases = ((1e151 * path, 1e151 * line), (1e200 * a, 1e200 * b),
             (nan, b), (b, nan), (a, inf), (inf, a))
    with np.errstate(all="ignore"):
        for x, y in cases:
            assert np.array_equal(hausdorff_distance(x, y), reference_hausdorff(x, y),
                                  equal_nan=True)
    assert hausdorff_distance(*cases[0]) == pytest.approx(0.100001e151, rel=1e-12)


def test_hausdorff_rejects_mixed_dimensions():
    with pytest.raises(ArgumentError):
        hausdorff_distance(np.zeros((3, 2)), np.zeros((4, 3)))


# ------------------------------------------------------- reference kernels
# The straightforward implementations the fast kernels replaced, kept as
# oracles: the fast versions must agree with them bit for bit.  Basis rows
# come from the library's own per-point ``values``, whose accuracy
# test_accuracy.py measures against exact rationals.


def reference_subdivide_recursive(curve, depth):
    """Depth-first recursion through BezierCurve.subdivide."""
    if depth == 0:
        return [curve.polygon]
    parts = curve.subdivide(0.5 * (curve.a + curve.b))
    return (reference_subdivide_recursive(parts.left, depth - 1)
            + reference_subdivide_recursive(parts.right, depth - 1))


def reference_densify(points, per_edge):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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
    a = np.atleast_2d(np.asarray(path_a, dtype=float))
    b = np.atleast_2d(np.asarray(path_b, dtype=float))
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
