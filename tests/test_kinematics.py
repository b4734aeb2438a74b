"""Unit tests for boosts, the faster-than-light branch, and cone classification."""

import copy
import dataclasses
import inspect
import math
import os
import pickle
import subprocess
import sys
import tokenize
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fringelab.constants as constants
import fringelab.kinematics as kinematics
from fringelab.checks import (
    perturbed_noncone_map,
    random_conformal_lorentz_4d,
    random_invertible_frame_map,
)
from fringelab.constants import REL_TOL_ALGEBRA, REL_TOL_SAMPLED
from fringelab.kinematics import (
    BranchKind,
    ConeClass,
    FrameMap,
    IntervalKind,
    KinematicsError,
    SingularMapError,
    SpacetimePoint,
    SpeedDomainError,
    Worldline,
    boost_matrix,
    check_no_branching,
    classify_cone_preserver,
    classify_interval,
    compose,
    event_interval,
    in_causal_past,
    lorentz_boost,
    preserves_null_lines,
    superluminal_map,
    superluminal_matrix,
    velocity_addition,
)


def test_point_stores_two_floats():
    p = SpacetimePoint(1, 2.0)
    assert (p.t, p.x) == (1.0, 2.0)
    assert type(p.t) is float and type(p.x) is float
    q = SpacetimePoint(np.float64(0.5), np.float32(1.0))
    assert (q.t, q.x) == (0.5, 1.0) and type(q.t) is float
    with pytest.raises(KinematicsError) as info:
        SpacetimePoint(np.float64(0.5), True)
    assert str(info.value) == "event coordinates must be numbers"


@pytest.mark.parametrize("x", [(2.0,), [0.0, 1.0, 2.0], np.array([2.0]), None],
                         ids=["1-tuple", "3-list", "1-array", "None"])
def test_point_rejects_a_sequence_x(x):
    with pytest.raises(KinematicsError) as info:
        SpacetimePoint(1.0, x)
    assert type(info.value) is KinematicsError
    assert str(info.value) == "event coordinates must be numbers"


def test_point_rejects_bad_spatial_dimension_and_nonfinite():
    with pytest.raises(KinematicsError):
        SpacetimePoint(0.0, (1.0, 2.0))
    with pytest.raises(KinematicsError):
        SpacetimePoint(math.nan, 0.0)
    with pytest.raises(KinematicsError):
        SpacetimePoint(0.0, math.inf)


def test_point_rejects_an_int_too_large_for_a_float():
    for t, x in ((10 ** 400, 0.0), (0.0, 10 ** 400)):
        with pytest.raises(KinematicsError, match="must be finite"):
            SpacetimePoint(t, x)


def _gamma(V):
    # The stretch factor is the (t, t) entry of the boost matrix.
    return boost_matrix(V)[0, 0]


def _faster_gamma(V):
    return superluminal_matrix(V, 1)[0, 0]


def test_gamma_known_values():
    assert math.isclose(_gamma(0.6), 1.25, rel_tol=1e-15)
    assert math.isclose(_gamma(0.8), 5.0 / 3.0, rel_tol=1e-15)
    assert _gamma(0.0) == 1.0
    assert math.isclose(_faster_gamma(2.0), 1.0 / math.sqrt(3.0),
                        rel_tol=1e-15)
    # The two stretch factors agree at reciprocal speed ratios, e.g. 5c/3 vs 3c/5.
    assert math.isclose(_faster_gamma(5.0 / 3.0), 1.0 / (4.0 / 3.0),
                        rel_tol=1e-12)


def test_boost_known_event():
    p = SpacetimePoint(1.0, 0.0)
    q = lorentz_boost(p, 0.6)
    assert math.isclose(q.t, 1.25, rel_tol=1e-15)
    assert math.isclose(q.x, -0.75, rel_tol=1e-15)


def test_boost_matrix_is_the_1_plus_1_formula():
    V, c = 0.6, 2.0
    g = 1.0 / math.sqrt(1.0 - (V / c) ** 2)
    assert np.array_equal(boost_matrix(V, c),
                          np.array([[g, -g * V / (c * c)], [-g * V, g]]))
    with pytest.raises(TypeError):
        boost_matrix(0.5, 1.0, 3)  # no spatial_dim: boosts are 1+1


def test_boost_preserves_interval():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t, x = rng.normal(size=2) * 10.0
        V = rng.uniform(-0.99, 0.99)
        p = SpacetimePoint(t, x)
        q = lorentz_boost(p, V)
        s0 = event_interval(p)
        s1 = event_interval(q)
        scale = x * x + t * t + 1e-30
        assert abs(s1 - s0) <= 1e-12 * scale


def test_boost_rejects_light_speed_and_beyond():
    p = SpacetimePoint(1.0, 0.0)
    for V in (1.0, -1.0, 1.5, 1.0 - 1e-14):
        with pytest.raises(SpeedDomainError):
            lorentz_boost(p, V)
    with pytest.raises(SpeedDomainError):
        boost_matrix(math.inf)


def test_superluminal_known_event():
    p = SpacetimePoint(1.0, 0.0)
    q = superluminal_map(p, 2.0, +1)
    assert math.isclose(q.t, 1.0 / math.sqrt(3.0), rel_tol=1e-15)
    assert math.isclose(q.x, -2.0 / math.sqrt(3.0), rel_tol=1e-15)


def test_superluminal_eta_is_an_overall_sign():
    p = SpacetimePoint(0.7, -1.3)
    plus = superluminal_map(p, 3.0, +1)
    minus = superluminal_map(p, 3.0, -1)
    # Negation is exact in floating point.
    assert minus.t == -plus.t
    assert minus.x == -plus.x


def test_superluminal_eta_is_mandatory_and_validated():
    p = SpacetimePoint(1.0, 0.0)
    with pytest.raises(TypeError):
        superluminal_map(p, 2.0)  # no eta
    for bad in (0, 2, -2):
        with pytest.raises(KinematicsError):
            superluminal_map(p, 2.0, bad)


def test_superluminal_rejects_subluminal_and_light_speed():
    p = SpacetimePoint(1.0, 0.0)
    for V in (0.5, 1.0, -1.0, 1.0 + 1e-14):
        with pytest.raises(SpeedDomainError):
            superluminal_map(p, V, +1)


def test_interval_flips_sign_under_superluminal_map():
    rng = np.random.default_rng(11)
    for _ in range(500):
        t, x = rng.normal(size=2) * 5.0
        V = rng.uniform(1.001, 100.0) * (1 if rng.random() < 0.5 else -1)
        eta = 1 if rng.random() < 0.5 else -1
        p = SpacetimePoint(t, x)
        q = superluminal_map(p, V, eta)
        s0 = event_interval(p)
        s1 = event_interval(q)
        scale = x * x + t * t + 1e-30
        assert abs(s1 + s0) <= 1e-12 * scale


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
       st.floats(-0.999, 0.999), st.floats(-0.999, 0.999))
@settings(max_examples=200, deadline=None)
def test_velocity_addition_stays_subluminal(t, x, V1, V2):
    W = velocity_addition(V1, V2)
    assert abs(W) < 1.0
    # Applying the two boosts in sequence equals the single added boost.
    p = SpacetimePoint(t, x)
    two = lorentz_boost(lorentz_boost(p, V1), V2)
    one = lorentz_boost(p, W)
    # Near-lightspeed pairs blow the coordinates up by the combined gamma,
    # so the comparison scale must include the output magnitude.
    scale = abs(two.t) + abs(two.x) + 1.0
    assert abs(two.t - one.t) <= 1e-9 * scale
    assert abs(two.x - one.x) <= 1e-9 * scale


def test_velocity_addition_half_plus_half_is_exactly_point_eight():
    assert velocity_addition(0.5, 0.5) == 0.8


def test_velocity_addition_rejects_speeds_outside_the_subluminal_band():
    for V1, V2 in ((2.0, 3.0), (1.0, -1.0), (0.5, math.nan)):
        with pytest.raises(SpeedDomainError):
            velocity_addition(V1, V2)


def test_boosts_reject_a_light_speed_whose_square_underflows():
    # c * c is 0.0 here, so the boost formulas would divide by zero.
    with pytest.raises(KinematicsError):
        FrameMap.boost(0.0, c=1e-300)
    with pytest.raises(KinematicsError):
        FrameMap.superluminal(1e-299, 1, c=1e-300)


def test_frame_map_constructors_and_apply():
    m = FrameMap.boost(0.6)
    assert m.branch is BranchKind.SUBLUMINAL
    assert m.V == 0.6
    assert m.eta is None
    q = m.apply(SpacetimePoint(1.0, 0.0))
    assert math.isclose(q.t, 1.25, rel_tol=1e-15)

    s = FrameMap.superluminal(2.0, -1)
    assert s.branch is BranchKind.SUPERLUMINAL
    assert s.eta == -1

    g = FrameMap.general_linear([[2.0, 0.0], [0.0, 2.0]])
    assert g.branch is BranchKind.GENERAL_LINEAR
    assert g.V is None


def test_frame_map_with_translation_is_affine():
    m = FrameMap.boost(0.5, translation=(1.0, -2.0))
    p = SpacetimePoint(0.0, 0.0)
    q = m.apply(p)
    assert q.t == 1.0 and q.x == -2.0


def test_apply_rejects_a_1_plus_3_map():
    # A 1+3 matrix never becomes a map, so there is nothing to apply.
    b4 = np.eye(4)
    b4[:2, :2] = boost_matrix(0.5)
    for lin, translation in ((b4, None), (np.eye(4), np.zeros(4))):
        with pytest.raises(KinematicsError) as info:
            FrameMap.general_linear(lin, translation)
        assert type(info.value) is KinematicsError
        assert str(info.value).startswith(
            "linear_part: must be a 2x2 matrix of finite numbers")


def test_frame_map_rejects_matrix_that_contradicts_its_branch_tag():
    # A boost branch is built from V (and eta): any matrix is refused, even
    # the one it would build, and a 1+3 matrix too.
    for branch, V, eta, lin in (
            (BranchKind.SUBLUMINAL, 0.5, None, np.eye(2) * 3.0),
            (BranchKind.SUBLUMINAL, 0.5, None, boost_matrix(0.5)),
            (BranchKind.SUBLUMINAL, 0.5, None, np.eye(4)),
            (BranchKind.SUPERLUMINAL, 2.0, +1, boost_matrix(0.5)),
            (BranchKind.SUPERLUMINAL, 2.0, +1, superluminal_matrix(2.0, +1))):
        with pytest.raises(KinematicsError) as err:
            FrameMap(branch, V, eta, lin, np.zeros(2), 1.0)
        assert str(err.value) == (f"linear_part: not allowed for the "
                                  f"{branch.value} branch")
    with pytest.raises(KinematicsError):
        FrameMap(BranchKind.GENERAL_LINEAR, 0.5, None,
                 np.eye(2), np.zeros(2), 1.0)


def test_frame_map_rejects_singular_linear_part():
    with pytest.raises(SingularMapError):
        FrameMap.general_linear([[1.0, 1.0], [1.0, 1.0]])
    # A zero row beside a row whose pivot unit scaling makes subnormal.
    for tiny in (2.0 ** -1023, 1e-310, 5e-324):
        with pytest.raises(SingularMapError):
            FrameMap.general_linear([[0.0, 0.0], [tiny, 1.0]])


@pytest.mark.parametrize("scale", [1e-7, 1e-5, 1e-3, 1.0, 1e3, 1e5, 1e7])
def test_singularity_test_is_scale_invariant(scale):
    m = FrameMap.general_linear(scale * np.eye(2))
    assert m.linear_part[0, 0] == scale
    with pytest.raises(SingularMapError):
        FrameMap.general_linear(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))


def _peak_division_verdict(lin, c):
    # The singularity test as first written: each row divided by its largest
    # entry, before and after the time column is divided by c.  Returns the
    # verdict and the Hadamard ratio |det| / (product of row lengths).
    peaks = np.max(np.abs(lin), axis=1, keepdims=True)
    rows = lin / np.where(peaks > 0.0, peaks, 1.0)
    rows[:, 0] /= c
    peaks = np.max(np.abs(rows), axis=1, keepdims=True)
    rows /= np.where(peaks > 0.0, peaks, 1.0)
    with np.errstate(all="ignore"):  # a subnormal pivot: the det is ~0 anyway
        det = abs(np.linalg.det(rows))
    lengths = np.prod(np.linalg.norm(rows, axis=1))
    ratio = det / lengths if lengths else 0.0
    return not REL_TOL_ALGEBRA * lengths < det < math.inf, ratio


@st.composite
def _near_singular_matrices(draw):
    # 2x2 or 4x4 entries in [-1, 1]; the last row is often a combination of
    # the others nudged 1e-14 to 1e-10 off it, and each row gets its own
    # scale, a power of two or log-uniform.
    n = draw(st.sampled_from([2, 4]))
    lin = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                 max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1,
                                         max_size=n - 1)))
        nudge = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                       max_size=n)))
        lin[-1] = weights @ lin[:-1] + 10.0 ** draw(st.floats(-14.0, -10.0)) * nudge
    scales = draw(st.lists(st.integers(-200, 200).map(lambda k: 2.0 ** k)
                           | st.floats(-150.0, 150.0).map(lambda u: 10.0 ** u),
                           min_size=n, max_size=n))
    return lin * np.array(scales)[:, None]


@settings(max_examples=1000, deadline=None)
@given(_near_singular_matrices(),
       st.integers(-100, 100).map(lambda k: 2.0 ** k)
       | st.floats(-100.0, 100.0).map(lambda u: 10.0 ** u))
# Unit scaling halves 2**-1023 to a subnormal pivot, whose det LAPACK flags.
@example(np.array([[0.0, 0.0], [2.0 ** -1023, 1.0]]), 1.0)
@example(np.array([[0.0, 0.0], [1e-310, 1.0]]), 1.0)
@example(np.array([[3e-323, 0.5], [1e-323, 0.7]]), 1.0)
def test_the_singularity_verdict_is_the_peak_division_one(lin, c):
    # Unit-scaling each row by a power of two moves the Hadamard ratio by
    # rounding alone, so only ratios this close to the bound may differ.
    expected, ratio = _peak_division_verdict(lin, c)
    assume(abs(ratio - REL_TOL_ALGEBRA) > 1e-9 * REL_TOL_ALGEBRA)
    try:
        kinematics._require_invertible(lin, c)
    except SingularMapError:
        assert expected
    else:
        assert not expected


def test_frame_map_gathers_every_field_problem():
    with pytest.raises(KinematicsError) as err:
        FrameMap("superluminal", "fast", None, None, [1.0, "a"], -1.0)
    message = str(err.value)
    for needle in ("V:", "eta:", "translation:", "c:"):
        assert needle in message
    with pytest.raises(KinematicsError) as err:
        FrameMap("warp", True, True, [[1.0, 0.0]], c=1e200)
    message = str(err.value)
    for needle in ("branch: 'warp'", "V:", "eta:", "linear_part:", "c:"):
        assert needle in message


def test_frame_map_fields_default_and_coerce():
    m = FrameMap("subluminal", 0.6)
    assert m.branch is BranchKind.SUBLUMINAL and m.eta is None and m.c == 1.0
    assert np.array_equal(m.linear_part, boost_matrix(0.6))
    assert np.array_equal(m.translation, np.zeros(2))
    s = FrameMap(BranchKind.SUPERLUMINAL, 2, 1.0)
    assert s.V == 2.0 and s.eta == 1 and isinstance(s.eta, int)


def test_a_bool_is_not_a_number():
    with pytest.raises(KinematicsError) as err:
        FrameMap.superluminal(2.0, True)
    assert "eta:" in str(err.value)
    with pytest.raises(KinematicsError) as err:
        FrameMap.boost(False)
    assert "V:" in str(err.value)
    with pytest.raises(KinematicsError):
        superluminal_matrix(2.0, True)


def test_light_speed_rule_holds_for_every_branch():
    for c in (1e200, 1e-300, 0.0, -1.0, math.inf, math.nan, 10 ** 400):
        with pytest.raises(KinematicsError) as err:
            FrameMap.general_linear(np.eye(2), c=c)
        assert "c:" in str(err.value)


def test_huge_superluminal_velocity_is_a_domain_error():
    with pytest.raises(SpeedDomainError):
        superluminal_matrix(1e200, 1)
    with pytest.raises(SpeedDomainError):
        FrameMap.superluminal(1e200, 1)
    with pytest.raises(SpeedDomainError):
        FrameMap.superluminal(3.0, -1, c=1e-154)


def test_interval_overflow_is_a_named_error():
    o = SpacetimePoint(0.0, 0.0)
    for p in (SpacetimePoint(1e200, 0.0), SpacetimePoint(0.0, 1e200)):
        with pytest.raises(KinematicsError):
            event_interval(p)
        with pytest.raises(KinematicsError):
            classify_interval(o, p)
    with pytest.raises(KinematicsError):
        event_interval(SpacetimePoint(1.0, 0.0), c=1e200)


@pytest.mark.parametrize("image, event", [
    (lambda p: FrameMap.general_linear([[2, 0], [0, 1]]).apply(p),
     SpacetimePoint(1e308, 1e308)),
    (lambda p: lorentz_boost(p, 0.9), SpacetimePoint(1e308, -1e308)),
    (lambda p: superluminal_map(p, 1.5, 1), SpacetimePoint(1e308, -1e308)),
], ids=["FrameMap.apply", "lorentz_boost", "superluminal_map"])
def test_an_image_that_overflows_is_named_by_the_map(image, event):
    # pyproject turns numpy's overflow warning into an error; errstate keeps
    # it out so the map's own error is what is seen.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(KinematicsError) as info:
            image(event)
    assert str(info.value) == f"image of {event} under the map is not finite"


def test_frame_map_arrays_are_read_only():
    m = FrameMap.boost(0.3)
    with pytest.raises(ValueError):
        m.linear_part[0, 0] = 5.0


def test_compose_two_subluminal_boosts_adds_velocities():
    # The product is the velocity-addition boost, but it is not built from
    # a velocity, so it is tagged general-linear.
    f = FrameMap.boost(0.5)
    g = FrameMap.boost(0.5)
    h = compose(f, g)
    assert h.branch is BranchKind.GENERAL_LINEAR and h.V is None
    assert np.allclose(h.linear_part, boost_matrix(velocity_addition(0.5, 0.5)),
                       rtol=1e-12, atol=1e-12)


def test_compose_with_identity_returns_other_operand():
    # One rule, no short-cut: what returns is a general-linear product
    # equal to the other operand entry for entry.
    f = FrameMap.boost(0.3, translation=(1.0, 2.0))
    e = FrameMap.identity()
    for h in (compose(f, e), compose(e, f)):
        assert h.branch is BranchKind.GENERAL_LINEAR and h.V is None
        assert np.array_equal(h.linear_part, f.linear_part)
        assert np.array_equal(h.translation, f.translation)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(3)
    maps = [FrameMap.boost(0.4, translation=(0.5, -1.0)),
            FrameMap.superluminal(2.5, +1, translation=(2.0, 0.25)),
            FrameMap.general_linear(rng.normal(size=(2, 2)) + 3.0 * np.eye(2))]
    p = SpacetimePoint(0.3, -0.7)
    for f in maps:
        for g in maps:
            h = compose(f, g)
            direct = f.apply(g.apply(p))
            via = h.apply(p)
            assert math.isclose(via.t, direct.t, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(via.x, direct.x, rel_tol=1e-12, abs_tol=1e-12)


def test_compose_near_light_boosts_falls_back_to_general_linear():
    # The velocity sum rounds to 1 - 5e-11, and the boost rebuilt from it
    # would miss the product by about 1e-6; the product is kept as it is.
    f = FrameMap.boost(0.99999)
    h = compose(f, f)
    assert h.branch is BranchKind.GENERAL_LINEAR
    for p in (SpacetimePoint(1.0, 0.0), SpacetimePoint(0.3, -0.7),
              SpacetimePoint(-2.0, 5.0)):
        q, r = f.apply(f.apply(p)), h.apply(p)
        direct, via = np.array((q.t, q.x)), np.array((r.t, r.x))
        assert np.max(np.abs(via - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert classify_cone_preserver(h.linear_part).kind is ConeClass.CONFORMAL_LORENTZ
    half = compose(FrameMap.boost(0.5), FrameMap.boost(0.5))
    assert half.branch is BranchKind.GENERAL_LINEAR
    assert np.allclose(half.linear_part, boost_matrix(0.8),
                       rtol=1e-12, atol=1e-12)
    with pytest.raises(SingularMapError):  # condition number about 1e12
        compose(FrameMap.boost(0.999999), FrameMap.boost(0.999999))


def test_compose_two_superluminal_maps_is_a_subluminal_boost_matrix():
    # V=2c twice: velocities add to 0.8c and the product matrix is exactly
    # a boost matrix, but the result is reported as general-linear because
    # it is not constructed from a single-branch velocity parameter.
    f = FrameMap.superluminal(2.0, +1)
    h = compose(f, f)
    assert h.branch is BranchKind.GENERAL_LINEAR
    expected = boost_matrix(0.8)
    assert np.allclose(h.linear_part, expected, rtol=1e-12, atol=1e-12)
    cls = classify_cone_preserver(h.linear_part)
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ


def test_compose_mixed_branches_flips_the_interval():
    f = FrameMap.superluminal(2.0, +1)
    g = FrameMap.boost(0.5)
    h = compose(f, g)
    assert h.branch is BranchKind.GENERAL_LINEAR
    cls = classify_cone_preserver(h.linear_part)
    assert cls.kind is ConeClass.SIGN_FLIP


@pytest.mark.parametrize("f, g", [
    ([[1e308, 0], [0, 1e308]], [[1e308, 0], [0, 1e308]]),
    ([[2, 0], [0, 2]], [[1, 0], [0, 1]]),
], ids=["linear-part", "translation"])
def test_compose_names_a_product_that_is_not_finite(f, g):
    # Both operands are finite maps; only their product overflows.
    f = FrameMap.general_linear(f, [1e308, 0.0])
    g = FrameMap.general_linear(g, [1e308, 0.0])
    with pytest.raises(KinematicsError) as info:
        compose(f, g)
    assert type(info.value) is KinematicsError
    assert str(info.value) == "composition of the two maps is not finite"


_OVERFLOWING = FrameMap.general_linear([[1e308, 0], [0, 1e308]])


@pytest.mark.parametrize("call", [
    lambda: compose(_OVERFLOWING, _OVERFLOWING),
    lambda: check_no_branching(Worldline([SpacetimePoint(0.0, 0.0),
                                          SpacetimePoint(2.0, 3.0)]),
                               _OVERFLOWING),
    lambda: lorentz_boost(SpacetimePoint(1e308, -1e308), 0.9),
    lambda: superluminal_map(SpacetimePoint(1e308, -1e308), 1.5, 1),
], ids=["compose", "check_no_branching", "lorentz_boost", "superluminal_map"])
def test_an_overflowing_product_is_reported_by_its_own_error_alone(call):
    # With every warning an error, numpy's overflow warning would be raised
    # in place of the function's own KinematicsError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KinematicsError):
            call()


def test_an_overflowing_translation_is_named_with_no_numpy_warning():
    # The translation is added on Python floats, so only the map's own
    # KinematicsError reports an image it carries past the largest float.
    m = FrameMap.general_linear([[1, 0], [0, 1]], [1e308, 0])
    p = SpacetimePoint(1e308, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KinematicsError) as info:
            m.apply(p)
    assert type(info.value) is KinematicsError
    assert str(info.value) == f"image of {p} under the map is not finite"


def test_compose_rejects_mismatched_c():
    f = FrameMap.boost(0.5)
    h = FrameMap.boost(0.5, c=2.0)
    with pytest.raises(KinematicsError):
        compose(f, h)


def test_classify_interval_three_kinds():
    o = SpacetimePoint(0.0, 0.0)
    assert classify_interval(o, SpacetimePoint(1.0, 0.0)) is IntervalKind.TIMELIKE
    assert classify_interval(o, SpacetimePoint(0.0, 1.0)) is IntervalKind.SPACELIKE
    assert classify_interval(o, SpacetimePoint(1.0, 1.0)) is IntervalKind.NULL
    assert classify_interval(o, SpacetimePoint(1.0, -1.0)) is IntervalKind.NULL


def test_classify_interval_is_scale_invariant():
    o = SpacetimePoint(0.0, 0.0)
    big = SpacetimePoint(1e8, 1e8)
    assert classify_interval(o, big) is IntervalKind.NULL
    tiny = SpacetimePoint(1e-8, 1e-8)
    assert classify_interval(o, tiny) is IntervalKind.NULL


def test_classify_interval_honours_c():
    o = SpacetimePoint(0.0, 0.0)
    p = SpacetimePoint(1.0, 1.0)
    assert classify_interval(o, p, c=2.0) is IntervalKind.TIMELIKE
    assert classify_interval(o, p, c=0.5) is IntervalKind.SPACELIKE


def test_null_band_holds_where_its_unhalved_sum_would_overflow():
    # |dx|^2 + c^2 dt^2 is about 2.7e308 here, past the largest float, while
    # the interval itself (about 6.9e307) fits.
    o = SpacetimePoint(0.0, 0.0)
    for scale in (1e154, 1e151):  # the smaller pairs fit either way
        for (t, x), kind in (((1.0, 1.3), IntervalKind.SPACELIKE),
                             ((1.3, 1.0), IntervalKind.TIMELIKE),
                             ((1.2, 1.2), IntervalKind.NULL)):
            assert classify_interval(
                o, SpacetimePoint(scale * t, scale * x)) is kind
    assert not in_causal_past(o, SpacetimePoint(-1e154, 1.3e154))


def test_in_causal_past():
    e = SpacetimePoint(0.0, 0.0)
    assert in_causal_past(e, SpacetimePoint(-1.0, 0.5))
    assert in_causal_past(e, SpacetimePoint(-1.0, -1.0))  # past null ray
    assert not in_causal_past(e, SpacetimePoint(-1.0, 2.0))  # spacelike
    assert not in_causal_past(e, SpacetimePoint(1.0, 0.0))  # future
    assert in_causal_past(e, e)  # an event is in its own causal past here


def test_classify_cone_preserver_boost_is_lorentz():
    cls = classify_cone_preserver(FrameMap.boost(0.77).linear_part)
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 1.0, rel_tol=1e-12)


def test_classify_cone_preserver_scaled_boost_has_squared_scale():
    cls = classify_cone_preserver(2.0 * boost_matrix(0.3))
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 4.0, rel_tol=1e-12)


def test_classify_cone_preserver_superluminal_is_sign_flip():
    for eta in (+1, -1):
        cls = classify_cone_preserver(superluminal_matrix(1.5, eta))
        assert cls.kind is ConeClass.SIGN_FLIP
        assert math.isclose(cls.scale, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("V", [0.99999, 0.9999999])
def test_classify_cone_preserver_near_light_speed(V):
    # The pullback residual rounds at about gamma^2 ulp, so a bound relative
    # to ||L^T G L|| (about ||G||) rejected fast boosts; a 1e-9 stretch must
    # still be caught at the same speeds.
    cls = classify_cone_preserver(boost_matrix(V))
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 1.0, rel_tol=1e-8)
    for eta in (+1, -1):
        for W in (1.0 / V, -1.0 / V):
            flip = classify_cone_preserver(superluminal_matrix(W, eta))
            assert flip.kind is ConeClass.SIGN_FLIP
    stretched = np.diag([1.0, 1.0 + 1e-9]) @ boost_matrix(V)
    assert classify_cone_preserver(stretched).kind is ConeClass.NOT_CONE_PRESERVING


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 299792458.0])
def test_classify_cone_preserver_verdict_does_not_depend_on_c(c):
    for m, kind in ((FrameMap.boost(0.6 * c, c), ConeClass.CONFORMAL_LORENTZ),
                    (FrameMap.superluminal(2.0 * c, -1, c), ConeClass.SIGN_FLIP)):
        assert classify_cone_preserver(m.linear_part, m.c).kind is kind
    for stretch in ([1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]):
        lin = np.diag(stretch) @ boost_matrix(0.6 * c, c)
        assert classify_cone_preserver(lin, c).kind is ConeClass.NOT_CONE_PRESERVING


def test_classify_cone_preserver_rejects_anisotropic_stretch():
    cls = classify_cone_preserver([[1.0, 0.0], [0.0, 2.0]])
    assert cls.kind is ConeClass.NOT_CONE_PRESERVING
    assert cls.scale is None


def test_four_dimensional_boost_and_rotation_are_lorentz():
    # lambda R1 B R2 pulls the form back to lambda^2 times itself.
    rng = np.random.default_rng(17)
    for _ in range(50):
        lin, lam = random_conformal_lorentz_4d(rng)
        assert lin.shape == (4, 4)
        cls = classify_cone_preserver(lin)
        assert cls.kind is ConeClass.CONFORMAL_LORENTZ
        assert math.isclose(cls.scale, lam * lam, rel_tol=1e-12)


def test_no_sign_flip_exists_in_four_dimensions():
    # |x|^2 - t^2 and its negative have different signatures in 1+3, so no
    # linear map can negate the form; random search should never find one.
    rng = np.random.default_rng(19)
    for _ in range(300):
        lin = rng.normal(size=(4, 4))
        if abs(np.linalg.det(lin)) <= 1e-6:
            continue
        cls = classify_cone_preserver(lin)
        assert cls.kind is not ConeClass.SIGN_FLIP


def test_preserves_null_lines_agrees_with_classification():
    good = [FrameMap.boost(0.6), FrameMap.superluminal(2.0, -1),
            FrameMap.general_linear(3.0 * boost_matrix(0.4))]
    for m in good:
        assert preserves_null_lines(m)
    bad = FrameMap.general_linear([[1.0, 0.0], [0.0, 2.0]])
    assert not preserves_null_lines(bad)


@pytest.mark.parametrize("kept", [1.0, -1.0],
                         ids=["keeps-(1,c)", "keeps-(1,-c)"])
def test_preserves_null_lines_needs_both_rays(kept):
    # The map fixes one null ray and sends the other to the timelike (1, 0),
    # so a test that mapped only one of the rays would pass it.
    c = 2.0
    rays = np.array([[1.0, 1.0], [c * kept, -c * kept]])
    images = np.array([[1.0, 1.0], [c * kept, 0.0]])
    m = FrameMap.general_linear(images @ np.linalg.inv(rays), c=c)
    assert np.allclose(m.linear_part @ rays, images, rtol=0.0, atol=1e-15)
    assert not preserves_null_lines(m)


def test_preserves_null_lines_takes_only_the_map():
    assert list(inspect.signature(preserves_null_lines).parameters) == ["m"]


# _reference_preserves_null_lines is the sampled test that
# preserves_null_lines replaced: 50 coin flips between the two null rays.
def _reference_preserves_null_lines(m: FrameMap, rng) -> bool:
    c = m.c
    for _ in range(50):
        u = 1.0 if rng.random() < 0.5 else -1.0
        t, x = (m.linear_part @ np.array((1.0, c * u))).tolist()
        ct = c * t
        _, e = math.frexp(max(abs(ct), abs(x)))
        ct, x = math.ldexp(ct, -e), math.ldexp(x, -e)
        if abs(x * x - ct * ct) > REL_TOL_SAMPLED * (x * x + ct * ct):
            return False
    return True


def _null_line_fixtures(rng):
    # Every kind of random_invertible_frame_map, spoiled maps, and both
    # kinds scaled by 1e200 and 1e-200.
    for _ in range(400):
        for m in (random_invertible_frame_map(rng), perturbed_noncone_map(rng)):
            yield m
            for s in (1e200, 1e-200):
                yield FrameMap.general_linear(s * m.linear_part)


def test_preserves_null_lines_matches_the_sampled_reference():
    rng = np.random.default_rng(31)
    maps = list(_null_line_fixtures(rng))
    assert len(maps) >= 2000
    verdicts = [preserves_null_lines(m) for m in maps]
    assert verdicts == [_reference_preserves_null_lines(m, rng) for m in maps]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("lin", [
    np.eye(3), np.eye(2)[0], [[1.0, 0.0], [0.0]], [[1.0, math.nan], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, True]], FrameMap.boost(0.5),
], ids=["3x3", "vector", "ragged", "nan", "bool", "frame-map"])
def test_classify_cone_preserver_rejects_a_bad_matrix(lin):
    with pytest.raises(KinematicsError) as info:
        classify_cone_preserver(lin)
    assert type(info.value) is KinematicsError
    assert str(info.value) == ("linear_part: must be a 2x2 (1+1) or 4x4 (1+3) "
                               "matrix of finite numbers")


def test_classify_cone_preserver_checks_c_and_singularity_like_a_map():
    for c in (0.0, -1.0, 1e200, math.nan):
        with pytest.raises(KinematicsError, match="^c: must be positive"):
            classify_cone_preserver(np.eye(2), c)
    with pytest.raises(SingularMapError) as as_map:
        FrameMap.general_linear(np.ones((2, 2)))
    for lin in (np.ones((2, 2)), np.ones((4, 4))):
        with pytest.raises(SingularMapError) as info:
            classify_cone_preserver(lin)
        assert str(info.value) == str(as_map.value)


def test_frame_map_translation_must_have_two_components():
    for translation in ([1.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(KinematicsError) as info:
            FrameMap.boost(0.5, translation=translation)
        assert str(info.value) == "translation: must have 2 components"


@pytest.mark.parametrize("k", [-500, -300, -100, 0, 100, 300, 500])
def test_classify_cone_preserver_is_exact_under_power_of_two_scaling(k):
    # Scaling L by 2**k scales the pullback by exactly 2**(2k), however far
    # the squares of the entries fall outside the float range.
    for lin, kind in ((boost_matrix(0.6), ConeClass.CONFORMAL_LORENTZ),
                      (superluminal_matrix(3.0, -1), ConeClass.SIGN_FLIP),
                      (random_conformal_lorentz_4d(np.random.default_rng(5))[0],
                       ConeClass.CONFORMAL_LORENTZ)):
        base = classify_cone_preserver(lin)
        cls = classify_cone_preserver(np.ldexp(lin, k))
        assert cls.kind is kind
        assert cls.scale == math.ldexp(base.scale, 2 * k)
    stretch = np.ldexp(np.diag([1.0, 2.0]), k)
    assert classify_cone_preserver(stretch).kind is ConeClass.NOT_CONE_PRESERVING


def test_classify_cone_preserver_at_the_edges_of_the_float_range():
    # An anisotropic stretch whose squares underflow is not a sign flip.
    for s in (1e-200, 1e-170):
        cls = classify_cone_preserver([[s, 0.0], [0.0, 2.0 * s]])
        assert cls.kind is ConeClass.NOT_CONE_PRESERVING and cls.scale is None
    assert classify_cone_preserver(1e150 * np.eye(2)).scale == pytest.approx(1e300)
    # A conformal map whose scale is not a finite nonzero float is refused.
    for s in (1e160, 1e-200):
        with pytest.raises(KinematicsError) as info:
            classify_cone_preserver(s * np.eye(2))
        assert str(info.value) == "scale: not a finite nonzero float"


def test_preserves_null_lines_at_the_edges_of_the_float_range():
    for s in (1e200, 1e-200):
        assert not preserves_null_lines(
            FrameMap.general_linear(np.diag([s, 2.0 * s])))
        assert preserves_null_lines(
            FrameMap.general_linear(s * boost_matrix(0.6)))


def test_preserves_null_lines_refuses_a_map_whose_rays_overflow():
    # Mapped as given, each ray's image is inf and its null test reads nan,
    # which no comparison fails.
    m = FrameMap.general_linear([[1e308, 1e308], [1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not preserves_null_lines(m)
    kind = classify_cone_preserver(m.linear_part).kind
    assert kind is ConeClass.NOT_CONE_PRESERVING


def _ray_images(m: FrameMap) -> list:
    # The images of the null rays (1, c) and (1, -c) under the unscaled
    # linear part.
    with np.errstate(over="ignore", invalid="ignore"):
        return [(m.linear_part @ np.array((1.0, m.c * u))).tolist()
                for u in (1.0, -1.0)]


def _unscaled_preserves_null_lines(m: FrameMap) -> bool:
    # preserves_null_lines before its linear part was scaled: each ray is
    # mapped as given, and only its image is scaled.
    for t, x in _ray_images(m):
        ct = m.c * t
        _, e = math.frexp(max(abs(ct), abs(x)))
        ct, x = math.ldexp(ct, -e), math.ldexp(x, -e)
        if abs(x * x - ct * ct) > REL_TOL_SAMPLED * (x * x + ct * ct):
            return False
    return True


_NORMAL = st.floats(2.0 ** -300, 2.0 ** 300)
_SIGNED = st.one_of(st.just(0.0), _NORMAL, _NORMAL.map(lambda v: -v))


@settings(max_examples=500, deadline=None)
@given(k=st.integers(-199, 199), j=st.integers(-400, 400),
       shape=st.sampled_from(["random", "boost", "flip", "nudged"]),
       entries=st.lists(_SIGNED, min_size=4, max_size=4),
       v=st.floats(1e-3, 0.99), w=st.floats(1.01, 100.0),
       eta=st.sampled_from([1, -1]), nudge=st.floats(-1e-8, 1e-8))
def test_preserves_null_lines_keeps_the_unscaled_verdict(k, j, shape, entries,
                                                         v, w, eta, nudge):
    # Scaling by a power of two commutes with rounding, so wherever the
    # unscaled images are finite (and no entry is subnormal) the verdict is
    # the unscaled one: on random maps, on scaled boosts and interval flips,
    # and on flips nudged across the null band.
    c = math.ldexp(1.0, k)
    if shape == "random":
        lin = np.array(entries).reshape(2, 2)
    else:
        lin = (boost_matrix(v * c, c) if shape == "boost"
               else superluminal_matrix(w * c, eta, c))
        if shape == "nudged":
            lin[1, 1] *= 1.0 + nudge
        lin = np.ldexp(lin, j)
    try:
        m = FrameMap.general_linear(lin, c=c)
    except SingularMapError:
        assume(False)
    assume(np.isfinite(_ray_images(m)).all())
    assert preserves_null_lines(m) is _unscaled_preserves_null_lines(m)


def test_classify_cone_preserver_scales_by_c_without_overflow():
    # c*L would overflow here; the verdict must not come from a nan.  With
    # time measured as c*t the Hadamard ratio is about 1e-150: singular.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMapError):
            classify_cone_preserver([[1e200, 1e200], [0.0, 1.0]], 1e150)


# Determinant-1 boosts at a large c, which a singularity test in raw units
# (time not measured as c*t) called singular.
_LARGE_C_BOOSTS = {
    "composed": lambda: compose(FrameMap.boost(1e13, c=3e13),
                                FrameMap.boost(2e13, c=3e13)),
    "general_linear": lambda: FrameMap.general_linear(
        boost_matrix(1e149, 1e150), c=1e150),
    "boost": lambda: FrameMap.boost(1e13, c=3e13),
}


@pytest.mark.parametrize("build", _LARGE_C_BOOSTS.values(),
                         ids=_LARGE_C_BOOSTS.keys())
def test_singularity_is_measured_in_light_units(build):
    m = build()
    assert abs(np.linalg.det(m.linear_part) - 1.0) <= 1e-12
    cls = classify_cone_preserver(m.linear_part, m.c)
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ


def test_composed_boosts_at_a_large_c_add_their_velocities():
    m = _LARGE_C_BOOSTS["composed"]()
    expected = boost_matrix(velocity_addition(1e13, 2e13, 3e13), 3e13)
    assert np.allclose(m.linear_part, expected, rtol=1e-12, atol=0.0)


def test_a_numpy_float32_light_speed_is_computed_in_float64():
    c = np.float32(0.3)
    m = FrameMap.boost(0.18, c=c)
    assert type(m.c) is float and m.c == float(c)
    assert np.array_equal(m.linear_part, boost_matrix(0.18, float(c)))
    assert (classify_cone_preserver(m.linear_part, m.c).kind
            is ConeClass.CONFORMAL_LORENTZ)
    w = velocity_addition(np.float32(0.5), 0.25)
    assert type(w) is float and w == velocity_addition(0.5, 0.25)


def test_frame_map_builds_a_numpy_float32_velocity_in_float64():
    V = np.float32(0.6)
    m = FrameMap.boost(V)
    assert type(m.V) is float and m.V == float(V)
    assert np.array_equal(m.linear_part, boost_matrix(float(V)))
    assert np.array_equal(boost_matrix(V), boost_matrix(float(V)))
    assert np.array_equal(superluminal_matrix(np.float32(2.5), -1),
                          superluminal_matrix(2.5, -1))


def _calls_of(fn, *functions) -> list[int]:
    # How many times each of ``functions`` runs during ``fn()``.
    codes = [f.__code__ for f in functions]
    counts = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


# (call, the finite_float runs it makes: one for c and one per velocity)
_ONE_CHECK_PER_INPUT = {
    "FrameMap.boost": (lambda: FrameMap.boost(0.3, 2.0), 2),
    "FrameMap.superluminal": (lambda: FrameMap.superluminal(3.0, -1, 2.0), 2),
    "boost_matrix": (lambda: boost_matrix(0.3, 2.0), 2),
    "superluminal_matrix": (lambda: superluminal_matrix(3.0, -1, 2.0), 2),
    "velocity_addition": (lambda: velocity_addition(0.3, 0.2, 2.0), 3),
}


@pytest.mark.parametrize("name", _ONE_CHECK_PER_INPUT)
def test_each_boost_checks_c_and_each_velocity_once(name):
    call, finite_floats = _ONE_CHECK_PER_INPUT[name]
    assert _calls_of(call, kinematics._require_light_speed,
                     constants.finite_float) == [1, finite_floats]


def test_an_event_and_its_image_check_each_coordinate_once():
    p = SpacetimePoint(1.0, 2.0)
    m = FrameMap.general_linear([[2.0, 1.0], [0.5, 3.0]], [1.0, -1.0])
    for call in (lambda: SpacetimePoint(1.0, 2.0), lambda: m.apply(p)):
        assert _calls_of(call, constants.finite_float) == [2]


def _old_finite_float(value):
    # constants.finite_float before exact floats took their own path.
    if not (isinstance(value, float) or type(value) is int
            or constants.is_real(value)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


@dataclasses.dataclass(frozen=True)
class _OldPoint:
    # SpacetimePoint as a generated frozen __init__ plus this __post_init__.
    t: float
    x: float

    def __post_init__(self):
        t, x = _old_finite_float(self.t), _old_finite_float(self.x)
        if t is None or x is None:
            if constants.is_real(self.t) and constants.is_real(self.x):
                raise KinematicsError("event coordinates must be finite")
            raise KinematicsError("event coordinates must be numbers")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)


def _built(cls, t, x):
    # The stored coordinates as hex, or the error's class and message.
    try:
        p = cls(t, x)
    except Exception as err:
        return type(err), str(err)
    assert type(p.t) is float and type(p.x) is float
    return p.t.hex(), p.x.hex()


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030,
                                1e308, -1e308, 1.7976931348623157e308,
                                math.inf, -math.inf, math.nan])
_COORDINATE = st.one_of(
    st.floats(), _EDGE_FLOATS, st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024 - 1]), st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.fractions(), st.decimals(), st.text(max_size=3), st.none())


@settings(max_examples=500, deadline=None)
@given(t=_COORDINATE, x=_COORDINATE)
def test_point_stores_what_the_old_post_init_rule_stored(t, x):
    assert _built(SpacetimePoint, t, x) == _built(_OldPoint, t, x)


@pytest.mark.parametrize("t, x", [(1.0, 2.0), (-0.0, 5e-324), (3, np.float32(0.5)),
                                  (1e308, -1e308)])
def test_point_keeps_the_dataclass_behaviours(t, x):
    p, old = SpacetimePoint(t, x), _OldPoint(t, x)
    assert p == SpacetimePoint(t=t, x=x) and p != (p.t, p.x)
    assert hash(p) == hash(old)
    assert repr(p) == repr(old).replace("_OldPoint", "SpacetimePoint")
    moved = dataclasses.replace(p, x=7)
    assert moved == SpacetimePoint(t, 7.0) and type(moved.x) is float
    with pytest.raises(KinematicsError):
        dataclasses.replace(p, t=math.nan)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.t = 0.0
    for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert copied == p and type(copied) is SpacetimePoint
        assert (copied.t.hex(), copied.x.hex()) == (p.t.hex(), p.x.hex())


_ENTRY = st.floats(-1e3, 1e3)
_BIG = st.one_of(_ENTRY, st.floats(-1.7e308, 1.7e308))


@settings(max_examples=300, deadline=None)
@given(lin=st.lists(_ENTRY, min_size=4, max_size=4),
       tr=st.lists(_ENTRY, min_size=2, max_size=2), t=_BIG, x=_BIG,
       v=st.floats(-0.99, 0.99), w=st.floats(1.01, 100.0),
       eta=st.sampled_from([1, -1]))
@example(lin=[0.0, 0.0, 2.0 ** -1023, 1.0], tr=[0.0, 0.0], t=0.0, x=0.0,
         v=0.0, w=2.0, eta=1)
def test_each_image_is_the_matmul_as_python_floats(lin, tr, t, x, v, w, eta):
    try:
        m = FrameMap.general_linear(np.array(lin).reshape(2, 2), tr)
    except SingularMapError:
        assume(False)
    p = SpacetimePoint(t, x)
    # pyproject turns numpy's overflow warning into an error; an image past
    # the largest float must be named by the map itself.
    with np.errstate(over="ignore", invalid="ignore"):
        for image, expected in [
                (m.apply, m.linear_part @ (t, x) + m.translation),
                (lambda q: lorentz_boost(q, v), boost_matrix(v) @ (t, x)),
                (lambda q: superluminal_map(q, w, eta),
                 superluminal_matrix(w, eta) @ (t, x))]:
            if not np.all(np.isfinite(expected)):
                with pytest.raises(KinematicsError) as info:
                    image(p)
                assert str(info.value) == f"image of {p} under the map is not finite"
                continue
            q = image(p)
            assert type(q.t) is float and type(q.x) is float
            assert (q.t.hex(), q.x.hex()) == tuple(e.hex() for e in expected.tolist())


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), _BIG)


@st.composite
def _translated_maps(draw):
    # A map of each branch, its translation often holding a signed zero.
    tr = draw(st.one_of(st.none(), st.lists(_SIGNED, min_size=2, max_size=2)))
    branch = draw(st.sampled_from(BranchKind))
    if branch is BranchKind.SUBLUMINAL:
        return FrameMap.boost(draw(st.floats(-0.99, 0.99)), translation=tr)
    if branch is BranchKind.SUPERLUMINAL:
        V = draw(st.floats(1.01, 100.0)) * draw(st.sampled_from([1, -1]))
        return FrameMap.superluminal(V, draw(st.sampled_from([1, -1])),
                                     translation=tr)
    try:
        return FrameMap.general_linear(
            np.array(draw(st.lists(_ENTRY, min_size=4, max_size=4))).reshape(2, 2), tr)
    except SingularMapError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(m=_translated_maps(), new_tr=st.lists(_SIGNED, min_size=2, max_size=2),
       t=_SIGNED, x=_SIGNED)
@example(m=FrameMap.general_linear([[1, 0], [0, 1]], [-0.0, -0.0]),
         new_tr=[0.0, -0.0], t=-0.0, x=-0.0)
@example(m=FrameMap.boost(0.0, translation=[-0.0, 0.0]), new_tr=[0.0, 0.0],
         t=-0.0, x=-0.0)
def test_apply_adds_the_stored_translation_bit_for_bit(m, new_tr, t, x):
    # apply adds the translation as a pair of Python floats stored when the
    # map is built; every copy, and a replaced map, must add its own.
    maps = [m, copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    if m.branch is BranchKind.GENERAL_LINEAR:
        maps.append(dataclasses.replace(m, translation=new_tr))
    p = SpacetimePoint(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in maps:
            want = (k.linear_part.dot((t, x)) + k.translation).tolist()
            if not all(map(math.isfinite, want)):
                with pytest.raises(KinematicsError) as info:
                    k.apply(p)
                assert str(info.value) == f"image of {p} under the map is not finite"
                continue
            q = k.apply(p)
            assert (q.t.hex(), q.x.hex()) == tuple(w.hex() for w in want)


@settings(max_examples=200, deadline=None)
@given(branch=st.sampled_from(BranchKind),
       tr=st.one_of(st.none(), st.lists(_SIGNED, min_size=2, max_size=2)),
       new_tr=st.lists(_SIGNED, min_size=2, max_size=2))
@example(branch=BranchKind.SUPERLUMINAL, tr=[-0.0, 0.0], new_tr=[0.0, -0.0])
def test_a_map_holds_its_fields_once_and_its_translation_as_a_float_pair(
        branch, tr, new_tr):
    # One stored form per field: a map's attributes are its dataclass
    # fields, so no second copy of the translation can fall out of step with
    # the pair apply adds.  Copies and a replaced map hold the same forms.
    m = {BranchKind.SUBLUMINAL: lambda: FrameMap.boost(0.6, translation=tr),
         BranchKind.SUPERLUMINAL: lambda: FrameMap.superluminal(2.5, -1, translation=tr),
         BranchKind.GENERAL_LINEAR: lambda: FrameMap.general_linear(
             [[2.0, 1.0], [1.0, 3.0]], tr)}[branch]()
    given_tr = [0.0, 0.0] if tr is None else tr
    maps = [(m, given_tr), (copy.copy(m), given_tr), (copy.deepcopy(m), given_tr),
            (pickle.loads(pickle.dumps(m)), given_tr)]
    if branch is BranchKind.GENERAL_LINEAR:
        maps.append((dataclasses.replace(m, translation=new_tr), new_tr))
    fields = {f.name for f in dataclasses.fields(FrameMap)}
    for k, want in maps:
        assert set(vars(k)) == fields
        assert type(k.translation) is tuple
        assert [type(v) for v in k.translation] == [float, float]
        assert [v.hex() for v in k.translation] == [float(v).hex() for v in want]


# Run in a child process under one OpenBLAS kernel: FrameMap.apply maps an
# event with ndarray.dot, and every image must be the matmul's to the bit,
# before and after the translation, on random maps and on signed-zero,
# subnormal and near-overflow coordinates.  Prints the mismatches.
_DOT_IS_MATMUL = """
import numpy as np
from fringelab.kinematics import FrameMap, SingularMapError, SpacetimePoint

rng = np.random.default_rng(5)
edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
         8.9e307, 1.7e308, -1.7e308]
corners = [(t, x) for t in edges for x in edges]
bad = []
with np.errstate(all="ignore"):
    for k in range(2000):
        lin = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
        try:
            m = FrameMap.general_linear(lin.reshape(2, 2),
                                        rng.standard_normal(2))
        except SingularMapError:
            continue
        scale = 10.0 ** rng.uniform(-300, 300, 2)
        events = [tuple((rng.standard_normal(2) * scale).tolist())]
        for t, x in events + (corners if k % 50 == 0 else []):
            v = (t, x)
            if m.linear_part.dot(v).tobytes() != (m.linear_part @ v).tobytes():
                bad.append(("dot", lin.tolist(), v))
            want = m.linear_part @ v + m.translation
            if np.all(np.isfinite(want)):
                q = m.apply(SpacetimePoint(t, x))
                if (q.t.hex(), q.x.hex()) != tuple(w.hex() for w in want.tolist()):
                    bad.append(("apply", lin.tolist(), v))
print(bad)
"""


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its build config
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy does not report a DYNAMIC_ARCH OpenBLAS, "
                           "so OPENBLAS_CORETYPE cannot choose its kernel")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_mapped_events_are_the_matmul_under_each_blas_kernel(coretype):
    src = str(Path(kinematics.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _DOT_IS_MATMUL],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


_C = st.one_of(st.floats(2.0 ** -10, 2.0 ** 10), st.integers(1, 1024),
               st.fractions(Fraction(1, 1024), 1024, max_denominator=1024),
               st.floats(2.0 ** -10, 2.0 ** 10, width=32).map(np.float32))
_KIND = st.sampled_from([float, int, Fraction, np.float32])


@settings(max_examples=200, deadline=None)
@given(c=_C, ratio=st.floats(-0.99, 0.99), kind=_KIND)
def test_both_subluminal_builders_are_the_closed_form_bit_for_bit(c, ratio, kind):
    V = kind(ratio * float(c))
    v, light = float(V), float(c)
    g = 1.0 / math.sqrt(1.0 - (v / light) ** 2)
    closed = np.array([[g, -g * v / (light * light)], [-g * v, g]])
    m = FrameMap.boost(V, c)
    assert type(m.V) is float and m.V == v
    assert m.linear_part.tobytes() == closed.tobytes()
    assert boost_matrix(V, c).tobytes() == closed.tobytes()


@settings(max_examples=200, deadline=None)
@given(c=_C, ratio=st.floats(1.01, 100.0), sign=st.sampled_from([1, -1]),
       eta=st.sampled_from([1, -1]), kind=_KIND)
def test_both_superluminal_builders_are_the_closed_form_bit_for_bit(
        c, ratio, sign, eta, kind):
    V = kind(sign * ratio * float(c))
    v, light = float(V), float(c)
    assume(abs(v) > light * 1.001)  # an int V may round back toward c
    g = 1.0 / math.sqrt((v / light) ** 2 - 1.0)
    closed = eta * g * np.array([[1.0, -v / (light * light)], [-v, 1.0]])
    m = FrameMap.superluminal(V, eta, c)
    assert type(m.V) is float and m.V == v and type(m.eta) is int
    assert m.linear_part.tobytes() == closed.tobytes()
    assert superluminal_matrix(V, eta, c).tobytes() == closed.tobytes()


def _old_branch(value):
    # FrameMap's rule for its branch before a member kept itself: the
    # member, or the problem the field reports.
    try:
        return BranchKind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in BranchKind)
        return f"branch: {value!r} is not one of [{allowed}]"


class _Text(str):
    pass


# Fields that make a valid map of each branch.
_BRANCH_FIELDS = {BranchKind.SUBLUMINAL: {"V": 0.5},
                  BranchKind.SUPERLUMINAL: {"V": 2.0, "eta": -1},
                  BranchKind.GENERAL_LINEAR: {"linear_part": [[2.0, 1.0],
                                                              [0.5, 3.0]]}}


@pytest.mark.parametrize("value", (
    list(BranchKind) + [m.value for m in BranchKind]
    + [_Text(m.value) for m in BranchKind] + [np.str_("subluminal")]
    + ["", "SUBLUMINAL", "general_linear", " superluminal", "lorentz"]
    + [None, 0, 1.5, True, b"subluminal", ["subluminal"], {"a": 1},
       IntervalKind.NULL, ConeClass.SIGN_FLIP]), ids=repr)
def test_branch_stores_what_the_old_lookup_stored(value):
    # A member, a value string, a bad string and a non-string: the same
    # stored member, or the same message.
    old = _old_branch(value)
    try:
        new = FrameMap(value, **_BRANCH_FIELDS.get(old, {})).branch
    except KinematicsError as err:
        new = str(err)
    if isinstance(old, BranchKind):
        assert new is old
    else:
        assert type(new) is str and new == old


def test_kinematics_stays_under_4096_parser_tokens():
    # Perfbench compiles src/ from source in every worker, and compile()'s
    # peak memory steps up past 4096 parser tokens, by more than the
    # peak_rss_mb bound.  Parser tokens: tokenize's, less comments and
    # blank lines.
    with tokenize.open(Path(kinematics.__file__)) as f:
        count = sum(1 for tok in tokenize.generate_tokens(f.readline)
                    if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert count < 4096, (
        f"kinematics.py has {count} parser tokens, at or past 4096; "
        "shrink it, or land ROADMAP item 15 (perfbench compiles src/ once "
        "into a bytecode cache), which deletes this guard")
