"""Unit tests for boosts, the faster-than-light branch, and cone classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    general_boost_matrix,
    in_causal_past,
    lorentz_boost,
    lorentz_gamma,
    preserves_null_lines,
    rotation_matrix,
    superluminal_gamma,
    superluminal_map,
    superluminal_matrix,
    velocity_addition,
)


def test_point_accepts_scalar_and_tuple_spatial_part():
    p = SpacetimePoint(1.0, 2.0)
    q = SpacetimePoint(1.0, (2.0,))
    assert p.x == q.x == (2.0,)
    assert p.spatial_dim == 1
    r = SpacetimePoint(0.0, (1.0, 2.0, 3.0))
    assert r.spatial_dim == 3


def test_point_rejects_bad_spatial_dimension_and_nonfinite():
    with pytest.raises(KinematicsError):
        SpacetimePoint(0.0, (1.0, 2.0))
    with pytest.raises(KinematicsError):
        SpacetimePoint(math.nan, 0.0)
    with pytest.raises(KinematicsError):
        SpacetimePoint(0.0, math.inf)


def test_gamma_known_values():
    assert math.isclose(lorentz_gamma(0.6), 1.25, rel_tol=1e-15)
    assert math.isclose(lorentz_gamma(0.8), 5.0 / 3.0, rel_tol=1e-15)
    assert lorentz_gamma(0.0) == 1.0
    assert math.isclose(superluminal_gamma(2.0), 1.0 / math.sqrt(3.0),
                        rel_tol=1e-15)
    # The two stretch factors agree at reciprocal speed ratios, e.g. 5c/3 vs 3c/5.
    assert math.isclose(superluminal_gamma(5.0 / 3.0), 1.0 / (4.0 / 3.0),
                        rel_tol=1e-12)


def test_boost_known_event():
    p = SpacetimePoint(1.0, 0.0)
    q = lorentz_boost(p, 0.6)
    assert math.isclose(q.t, 1.25, rel_tol=1e-15)
    assert math.isclose(q.x[0], -0.75, rel_tol=1e-15)


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
        lorentz_gamma(math.inf)


def test_superluminal_known_event():
    p = SpacetimePoint(1.0, 0.0)
    q = superluminal_map(p, 2.0, +1)
    assert math.isclose(q.t, 1.0 / math.sqrt(3.0), rel_tol=1e-15)
    assert math.isclose(q.x[0], -2.0 / math.sqrt(3.0), rel_tol=1e-15)


def test_superluminal_eta_is_an_overall_sign():
    p = SpacetimePoint(0.7, -1.3)
    plus = superluminal_map(p, 3.0, +1)
    minus = superluminal_map(p, 3.0, -1)
    # Negation is exact in floating point.
    assert minus.t == -plus.t
    assert minus.x[0] == -plus.x[0]


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


def test_superluminal_only_defined_in_one_spatial_dimension():
    p = SpacetimePoint(1.0, (0.0, 0.0, 0.0))
    with pytest.raises(KinematicsError):
        superluminal_map(p, 2.0, +1)


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
    scale = abs(two.t) + abs(two.x[0]) + 1.0
    assert abs(two.t - one.t) <= 1e-9 * scale
    assert abs(two.x[0] - one.x[0]) <= 1e-9 * scale


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
    assert q.t == 1.0 and q.x[0] == -2.0


def test_frame_map_rejects_matrix_that_contradicts_its_branch_tag():
    with pytest.raises(KinematicsError):
        FrameMap(BranchKind.SUBLUMINAL, 0.5, None,
                 np.eye(2) * 3.0, np.zeros(2), 1.0)
    with pytest.raises(KinematicsError):
        FrameMap(BranchKind.SUPERLUMINAL, 2.0, +1,
                 boost_matrix(0.5), np.zeros(2), 1.0)
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
        superluminal_gamma(1e200)
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
    f = FrameMap.boost(0.5)
    g = FrameMap.boost(0.5)
    h = compose(f, g)
    assert h.branch is BranchKind.SUBLUMINAL
    assert h.V == 0.8


def test_compose_with_identity_returns_other_operand():
    f = FrameMap.boost(0.3, translation=(1.0, 2.0))
    e = FrameMap.identity()
    assert compose(f, e) is f
    assert compose(e, f) is f


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
            assert math.isclose(via.x[0], direct.x[0], rel_tol=1e-12, abs_tol=1e-12)


def test_compose_near_light_boosts_falls_back_to_general_linear():
    # The velocity sum rounds to 1 - 5e-11, and the boost rebuilt from it
    # misses the product by about 1e-6; the product is kept, untagged.
    f = FrameMap.boost(0.99999)
    h = compose(f, f)
    assert h.branch is BranchKind.GENERAL_LINEAR
    for p in (SpacetimePoint(1.0, 0.0), SpacetimePoint(0.3, -0.7),
              SpacetimePoint(-2.0, 5.0)):
        direct = f.apply(f.apply(p)).to_vector()
        via = h.apply(p).to_vector()
        assert np.max(np.abs(via - direct)) <= 1e-12 * np.max(np.abs(direct))
    assert classify_cone_preserver(h).kind is ConeClass.CONFORMAL_LORENTZ
    half = compose(FrameMap.boost(0.5), FrameMap.boost(0.5))
    assert half.branch is BranchKind.SUBLUMINAL
    assert half.V == 0.8
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
    cls = classify_cone_preserver(h)
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ


def test_compose_mixed_branches_flips_the_interval():
    f = FrameMap.superluminal(2.0, +1)
    g = FrameMap.boost(0.5)
    h = compose(f, g)
    assert h.branch is BranchKind.GENERAL_LINEAR
    cls = classify_cone_preserver(h)
    assert cls.kind is ConeClass.SIGN_FLIP


def test_compose_rejects_mismatched_dimension_or_c():
    f = FrameMap.boost(0.5, spatial_dim=1)
    g = FrameMap.boost(0.5, spatial_dim=3)
    with pytest.raises(KinematicsError):
        compose(f, g)
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


def test_interval_value_in_three_spatial_dimensions():
    a = SpacetimePoint(0.0, (0.0, 0.0, 0.0))
    b = SpacetimePoint(1.0, (1.0, 1.0, 1.0))
    assert event_interval(b) == 3.0 - 1.0
    later = SpacetimePoint(2.0, (1.0, 1.0, 1.0))
    assert classify_interval(a, b) is IntervalKind.SPACELIKE
    assert classify_interval(a, later) is IntervalKind.TIMELIKE
    with pytest.raises(KinematicsError):
        classify_interval(a, SpacetimePoint(1.0, 1.0))


def test_in_causal_past():
    e = SpacetimePoint(0.0, 0.0)
    assert in_causal_past(e, SpacetimePoint(-1.0, 0.5))
    assert in_causal_past(e, SpacetimePoint(-1.0, -1.0))  # past null ray
    assert not in_causal_past(e, SpacetimePoint(-1.0, 2.0))  # spacelike
    assert not in_causal_past(e, SpacetimePoint(1.0, 0.0))  # future
    assert in_causal_past(e, e)  # an event is in its own causal past here


def test_classify_cone_preserver_boost_is_lorentz():
    cls = classify_cone_preserver(FrameMap.boost(0.77))
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 1.0, rel_tol=1e-12)


def test_classify_cone_preserver_scaled_boost_has_squared_scale():
    m = FrameMap.general_linear(2.0 * boost_matrix(0.3))
    cls = classify_cone_preserver(m)
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 4.0, rel_tol=1e-12)


def test_classify_cone_preserver_superluminal_is_sign_flip():
    for eta in (+1, -1):
        cls = classify_cone_preserver(FrameMap.superluminal(1.5, eta))
        assert cls.kind is ConeClass.SIGN_FLIP
        assert math.isclose(cls.scale, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("V", [0.99999, 0.9999999])
def test_classify_cone_preserver_near_light_speed(V):
    # The pullback residual rounds at about gamma^2 ulp, so a bound relative
    # to ||L^T G L|| (about ||G||) rejected fast boosts; a 1e-9 stretch must
    # still be caught at the same speeds.
    cls = classify_cone_preserver(FrameMap.boost(V))
    assert cls.kind is ConeClass.CONFORMAL_LORENTZ
    assert math.isclose(cls.scale, 1.0, rel_tol=1e-8)
    for eta in (+1, -1):
        for W in (1.0 / V, -1.0 / V):
            flip = classify_cone_preserver(FrameMap.superluminal(W, eta))
            assert flip.kind is ConeClass.SIGN_FLIP
    stretched = FrameMap.general_linear(np.diag([1.0, 1.0 + 1e-9]) @ boost_matrix(V))
    assert classify_cone_preserver(stretched).kind is ConeClass.NOT_CONE_PRESERVING


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 299792458.0])
def test_classify_cone_preserver_verdict_does_not_depend_on_c(c):
    assert (classify_cone_preserver(FrameMap.boost(0.6 * c, c)).kind
            is ConeClass.CONFORMAL_LORENTZ)
    assert (classify_cone_preserver(FrameMap.superluminal(2.0 * c, -1, c)).kind
            is ConeClass.SIGN_FLIP)
    for stretch in ([1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]):
        m = FrameMap.general_linear(np.diag(stretch) @ boost_matrix(0.6 * c, c), c=c)
        assert classify_cone_preserver(m).kind is ConeClass.NOT_CONE_PRESERVING


def test_classify_cone_preserver_rejects_anisotropic_stretch():
    m = FrameMap.general_linear([[1.0, 0.0], [0.0, 2.0]])
    cls = classify_cone_preserver(m)
    assert cls.kind is ConeClass.NOT_CONE_PRESERVING
    assert cls.scale is None


def test_four_dimensional_boost_and_rotation_are_lorentz():
    b = FrameMap.general_linear(general_boost_matrix([0.3, 0.4, 0.0]))
    r = FrameMap.general_linear(rotation_matrix([0.0, 0.0, 1.0], 0.7))
    for m in (b, r, compose(b, r)):
        cls = classify_cone_preserver(m)
        assert cls.kind is ConeClass.CONFORMAL_LORENTZ
        assert math.isclose(cls.scale, 1.0, rel_tol=1e-12)


def test_no_sign_flip_exists_in_four_dimensions():
    # |x|^2 - t^2 and its negative have different signatures in 1+3, so no
    # linear map can negate the form; random search should never find one.
    rng = np.random.default_rng(19)
    for _ in range(300):
        lin = rng.normal(size=(4, 4))
        if abs(np.linalg.det(lin)) <= 1e-6:
            continue
        cls = classify_cone_preserver(FrameMap.general_linear(lin))
        assert cls.kind is not ConeClass.SIGN_FLIP


def test_preserves_null_lines_agrees_with_classification():
    rng = np.random.default_rng(23)
    good = [FrameMap.boost(0.6), FrameMap.superluminal(2.0, -1),
            FrameMap.general_linear(3.0 * boost_matrix(0.4))]
    for m in good:
        assert preserves_null_lines(m, rng=rng)
    bad = FrameMap.general_linear([[1.0, 0.0], [0.0, 2.0]])
    assert not preserves_null_lines(bad, rng=rng)
