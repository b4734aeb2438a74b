"""Unit tests for boosts, the faster-than-light branch, and cone classification."""

import inspect
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fringelab.constants as constants
import fringelab.kinematics as kinematics
from fringelab.checks import (
    perturbed_noncone_map,
    random_conformal_lorentz_4d,
    random_invertible_frame_map,
)
from fringelab.constants import REL_TOL_SAMPLED
from fringelab.kinematics import (
    BranchKind,
    ConeClass,
    FrameMap,
    IntervalKind,
    KinematicsError,
    SingularMapError,
    SpacetimePoint,
    SpeedDomainError,
    boost_matrix,
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


@pytest.mark.parametrize("scale", [1e-7, 1e-5, 1e-3, 1.0, 1e3, 1e5, 1e7])
def test_singularity_test_is_scale_invariant(scale):
    m = FrameMap.general_linear(scale * np.eye(2))
    assert m.linear_part[0, 0] == scale
    with pytest.raises(SingularMapError):
        FrameMap.general_linear(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))


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
