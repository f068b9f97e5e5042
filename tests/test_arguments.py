"""One rule per argument: every count argument, the split rule and the
domain message behave alike wherever the library states them."""

import math

import numpy as np
import pytest

from alphabezier import (
    ArgumentError,
    BasisSpec,
    DomainError,
    HomographyMap,
    collocation_matrix,
    densify_polyline,
    fit_collocation,
    fit_least_squares,
    index_invariance,
    make_curve,
    peak_value,
    preset_polygon,
    reindexed,
)
from alphabezier.approx import MAX_FIT_DEGREE
from alphabezier.basis import MAX_DEGREE
from alphabezier.curve import MAX_SUBDIVISION_DEPTH
from alphabezier.homography import DOMAIN_RTOL
from helpers import outcome

H = HomographyMap(0.0, 1.0, 2.0)
SPEC = BasisSpec(2, H)
CURVE = make_curve(preset_polygon("g"), 2.0)

#: Every count argument: (argument name, call taking the count, smallest and
#: largest accepted value, one accepted value).  None means no upper end.
COUNT_ARGUMENTS = {
    "BasisSpec.degree": ("degree", lambda v: BasisSpec(v, H), 0, MAX_DEGREE, 3),
    "subdivision_stack.depth": ("depth", CURVE.subdivision_stack, 0, MAX_SUBDIVISION_DEPTH, 3),
    "subdivide_recursive.depth": ("depth", CURVE.subdivide_recursive,
                                  0, MAX_SUBDIVISION_DEPTH, 3),
    "densify_polyline.per_edge": ("per_edge", lambda v: densify_polyline(CURVE.polygon.points, v),
                                  1, None, 3),
    "derivatives.order": ("order", lambda v: SPEC.derivatives(0.3, v), 1, 2, 2),
    "derivative.order": ("order", lambda v: CURVE.derivative(0.3, v), 1, 2, 2),
    "index_invariance.samples": ("samples",
                                 lambda v: index_invariance(CURVE, reindexed(CURVE, 5.0), v),
                                 1, None, 3),
    "fit_least_squares.samples": ("samples", lambda v: fit_least_squares(math.sin, SPEC, v, 16),
                                  SPEC.degree + 1, None, 3),
    "fit_least_squares.error_grid": ("error_grid",
                                     lambda v: fit_least_squares(math.sin, SPEC, 8, v),
                                     1, None, 3),
    "fit_collocation.error_grid": ("error_grid", lambda v: fit_collocation(math.sin, SPEC, v),
                                   1, None, 3),
    "peak_value.index": ("index", lambda v: peak_value(4, v), 0, 4, 3),
    "peak_value.degree": ("degree", lambda v: peak_value(v, 0), 0, None, 60),
}


@pytest.mark.parametrize("case", sorted(COUNT_ARGUMENTS))
def test_count_argument_accepts_python_and_numpy_integers(case):
    _, call, _, _, value = COUNT_ARGUMENTS[case]
    expected = outcome(call, value)
    assert expected[0] != "ArgumentError"
    for integer in (np.int64, np.int32, np.uint8):
        # the outcome holds each type name, so a numpy degree must be stored as int
        assert outcome(call, integer(value)) == expected


@pytest.mark.parametrize("case", sorted(COUNT_ARGUMENTS))
def test_count_argument_rejects_non_integers_and_values_out_of_range(case):
    name, call, lo, hi, _ = COUNT_ARGUMENTS[case]
    bad = [True, False, 2.0, np.float64(2.0), "2", None, lo - 1, np.int64(lo - 1)]
    if hi is not None:
        bad += [hi + 1, np.int64(hi + 1)]
    for value in bad:
        with pytest.raises(ArgumentError, match=f"^{name} must be "):
            call(value)


def test_fit_degree_cap_names_degree_before_any_work():
    calls = []

    def f(t):
        calls.append(t)
        return t

    spec = BasisSpec(MAX_FIT_DEGREE + 1, H)
    for fit in (lambda: fit_collocation(f, spec), lambda: fit_least_squares(f, spec, 64)):
        with pytest.raises(ArgumentError, match="^degree must be an integer in 0..30, got 31$"):
            fit()
    with pytest.raises(ArgumentError, match="^error_grid must be a positive integer, got 0$"):
        fit_collocation(f, SPEC, 0)
    assert calls == []


def test_index_invariance_needs_a_sample():
    with pytest.raises(ArgumentError, match="^samples must be a positive integer, got 0$"):
        index_invariance(CURVE, reindexed(CURVE, 5.0), 0)
    report = index_invariance(CURVE, reindexed(CURVE, 5.0), 1)
    assert report.parameters.tolist() == [0.0]


def test_both_split_entry_points_give_the_same_message():
    for c in (0.0, 1.0, -0.2, 1.2, math.nan):
        left, right, piece = (outcome(H.split_left, c), outcome(H.split_right, c),
                              outcome(CURVE.subdivide, c))
        assert left == right == piece
        assert piece[0] == "DomainError" and "split point" in piece[1]
    # the floats between 1e16 and 1e16 + 2 hold no midpoint
    curve = make_curve(preset_polygon("a"), 2.0, 1e16, 1e16 + 2.0)
    midpoint = 0.5 * (curve.a + curve.b)
    assert (outcome(curve.subdivision_stack, 1) == outcome(curve.subdivide, midpoint)
            == outcome(curve.homography.split_left, midpoint))


def test_array_and_scalar_domain_messages_are_equal():
    for bad, point in ((1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan")):
        scalar = outcome(H.value, bad)
        assert scalar == ("DomainError", f"x={point} outside [0.0, 1.0]")
        assert outcome(H.value, np.array([0.5, bad, 3.0])) == scalar
        assert outcome(H.value, np.float64(bad)) == scalar
    with pytest.raises(DomainError, match=r"^w=2\.0 outside \[0\.0, 1\.0\]$"):
        H.inverse(np.array([[0.5], [2.0]]))


def test_collocation_nodes_outside_the_interval_name_the_nodes():
    # a node within DOMAIN_RTOL * (b - a) of an end is clamped; one further out is rejected
    assert collocation_matrix(SPEC, [0.0, 0.5, 1.0 + 0.5 * DOMAIN_RTOL]).shape == (3, 3)
    for nodes in ([0.0, 0.5, 1.0 + 2 * DOMAIN_RTOL], [-2 * DOMAIN_RTOL, 0.5, 1.0],
                  [0.0, 0.5, math.nan]):
        with pytest.raises(ArgumentError, match=r"^nodes must lie inside \[0\.0, 1\.0\]$"):
            collocation_matrix(SPEC, nodes)
