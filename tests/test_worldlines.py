"""Tests for worldline simplicity, past segments, and the no-branching check."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringelab.kinematics import (
    FrameMap,
    KinematicsError,
    SpacetimePoint,
    Worldline,
    check_no_branching,
    past_worldline_segment,
    polyline_is_simple,
)
from fringelab.constants import REL_TOL_SAMPLED


def _pts(*coords):
    return [SpacetimePoint(t, x) for t, x in coords]


def test_worldline_requires_strictly_increasing_taus():
    verts = _pts((0.0, 0.0), (1.0, 0.5))
    Worldline(verts, (0.0, 1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts, (1.0, 1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts, (2.0, 1.0))


def test_worldline_rejects_a_tau_too_large_for_a_float():
    with pytest.raises(KinematicsError, match="tau labels must be finite"):
        Worldline(_pts((0.0, 0.0)), taus=[10 ** 400])


def test_worldline_default_taus_are_vertex_indices():
    w = Worldline(_pts((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    assert w.taus == (0.0, 1.0, 2.0)


def test_simple_zigzag_is_accepted():
    w = Worldline(_pts((0.0, 0.0), (1.0, 1.0), (2.0, -1.0), (3.0, 0.5)))
    assert len(w) == 4


def test_crossing_polyline_is_rejected_at_construction():
    # Segments (0,0)-(2,2) and (1,3)-(3,-1) cross near (1.66, 1.66) in (t, x).
    verts = _pts((0.0, 0.0), (2.0, 2.0), (1.0, 3.0), (3.0, -1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts)
    w = Worldline(verts, check_simple=False)
    assert len(w) == 4


def test_repeated_vertex_is_rejected():
    verts = _pts((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (1.0, 1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts)


def test_touching_midpoint_is_rejected():
    # Third segment passes through the interior of the first one.
    verts = _pts((0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts)


def test_backtracking_along_the_same_line_is_rejected():
    verts = _pts((0.0, 0.0), (2.0, 2.0), (1.0, 1.0))
    with pytest.raises(KinematicsError):
        Worldline(verts)


def test_polyline_is_simple_direct_calls():
    assert polyline_is_simple(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert polyline_is_simple(np.array([[0.0, 0.0]]))
    assert polyline_is_simple(np.zeros((0, 2)))
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not polyline_is_simple(bowtie)


@pytest.mark.parametrize("points", [
    # Among them a straight 1+3 walk, which a 4-D test would call simple.
    np.zeros(3), np.zeros((3, 1)), np.zeros((3, 4)) + np.arange(3)[:, None],
    np.arange(9.0).reshape(3, 3), np.zeros((0, 3)), np.zeros((1, 4)),
    np.zeros((2, 2, 2))])
def test_polyline_points_must_be_t_x_pairs(points):
    with pytest.raises(KinematicsError) as info:
        polyline_is_simple(points)
    assert str(info.value) == (f"polyline: need (t, x) points, got shape "
                               f"{points.shape}")


@pytest.mark.parametrize("points", [
    [[0, 0], [math.nan, 1]], [[0, 0], [1, math.inf]], [[0, 0], [None, 1]],
    [[True, 0], [2, 1]], [["1", "0"], [2, 1]], [["a", "b"], [1, 2]],
    [[0, 0], [1]], [[0, 0], [1, 2, 3]], [[0, 0], [10 ** 400, 1]]],
    ids=["nan", "inf", "None", "bool", "str", "letters", "ragged",
         "ragged-long", "int-too-large"])
def test_polyline_points_must_be_finite_numbers(points):
    with pytest.raises(KinematicsError) as info:
        polyline_is_simple(points)
    assert type(info.value) is KinematicsError
    assert str(info.value) == "polyline: points must be finite numbers"


def test_past_segment_is_a_strict_prefix():
    w = Worldline(_pts((0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (3.0, 0.5)),
                  (0.0, 0.1, 0.9, 2.0))
    past = past_worldline_segment(w, 2)
    assert len(past) == 2
    assert past.vertices == w.vertices[:2]
    assert past.taus == (0.0, 0.1)
    assert len(past_worldline_segment(w, 0)) == 0
    with pytest.raises(IndexError):
        past_worldline_segment(w, 4)
    with pytest.raises(IndexError):
        past_worldline_segment(w, -1)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, None])
def test_past_segment_index_must_be_an_integer(bad):
    w = Worldline(_pts((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)))
    with pytest.raises(KinematicsError) as info:
        past_worldline_segment(w, bad)
    assert str(info.value) == f"e_index: must be an integer, got {bad!r}"
    assert len(past_worldline_segment(w, np.int64(1))) == 1


def test_past_segment_is_a_worldline_prefix():
    w = Worldline([SpacetimePoint(float(i), 0.5 * i) for i in range(5)])
    past = past_worldline_segment(w, 3)
    assert type(past) is Worldline
    assert past.vertices == w.vertices[:3] and past.taus == w.taus[:3]
    assert np.array_equal(past.points_array(), w.points_array()[:3])
    assert past_worldline_segment(w, 0).points_array().shape == (0, 2)


def test_a_worldline_is_frozen_with_identity_equality():
    verts = _pts((0.0, 0.0), (1.0, 0.5))
    w = Worldline(verts)
    with pytest.raises(AttributeError):
        w.vertices = ()
    assert w != Worldline(verts) and w == w
    names = [f.name for f in dataclasses.fields(Worldline)]
    assert names == ["vertices", "taus"]


def test_no_branching_under_boosts_and_superluminal_maps():
    w = Worldline(_pts((0.0, 0.0), (1.0, 0.5), (2.0, -0.25), (3.0, 0.75)))
    for m in (FrameMap.identity(), FrameMap.boost(0.9),
              FrameMap.superluminal(4.0, +1), FrameMap.superluminal(1.5, -1)):
        assert check_no_branching(w, m)


def test_no_branching_flags_self_intersecting_fixture():
    verts = _pts((0.0, 0.0), (2.0, 2.0), (1.0, 3.0), (3.0, -1.0))
    broken = Worldline(verts, check_simple=False)
    assert not check_no_branching(broken, FrameMap.identity())
    # Under the identity map the image is the vertex list, and the simplicity
    # test alone rejects it: the revisited vertex repeats.
    assert not polyline_is_simple(broken.points_array())
    assert not check_no_branching(broken, FrameMap.boost(0.5))


def test_no_branching_flags_a_y_shaped_identification():
    # Walks up, returns to an earlier vertex, then leaves in a new direction:
    # removing the revisited vertex splits the image into three pieces.
    verts = _pts((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 0.0))
    broken = Worldline(verts, check_simple=False)
    assert not check_no_branching(broken, FrameMap.identity())
    # Under the identity map the image is the vertex list, and the simplicity
    # test alone rejects it: the revisited vertex repeats.
    assert not polyline_is_simple(broken.points_array())


def test_no_branching_on_random_simple_walks():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        xs = np.cumsum(rng.uniform(-0.9, 0.9, size=n))
        verts = [SpacetimePoint(float(i), float(x)) for i, x in enumerate(xs)]
        w = Worldline(verts)
        V = float(rng.uniform(-0.95, 0.95))
        assert check_no_branching(w, FrameMap.boost(V))
        Vs = float(rng.uniform(1.1, 10.0))
        eta = 1 if rng.random() < 0.5 else -1
        assert check_no_branching(w, FrameMap.superluminal(Vs, eta))


@pytest.mark.parametrize("call", [
    lambda: Worldline(_pts((0.0, 0.0), (1e200, 0.0))),
    lambda: check_no_branching(Worldline(_pts((0.0, 0.0), (1.0, 0.5))),
                               FrameMap.general_linear([[1e300, 0], [0, 1e300]])),
    lambda: polyline_is_simple(np.array([[-1e308, 0.0], [1e308, 0.0]])),
], ids=["square-overflows", "image-square-overflows", "extent-is-inf"])
def test_a_diagonal_that_is_not_a_finite_float_raises(call):
    # (max - min) ** 2 overflows past an extent of about 1.3e154, and an
    # extent past the largest float makes the diagonal, and tol, inf.
    with pytest.raises(KinematicsError) as info:
        call()
    assert type(info.value) is KinematicsError
    assert str(info.value) == ("polyline: bounding-box diagonal is not a "
                               "finite float")


def test_a_large_finite_diagonal_keeps_its_verdict():
    assert len(Worldline(_pts((0.0, 0.0), (1e150, 0.0), (2e150, 1e150)))) == 3
    assert not polyline_is_simple(np.array([[0.0, 0.0], [1e150, 0.0], [0.0, 0.0]]))


# -- the vectorised simplicity test against the scalar loops ------------------
#
# _reference_is_simple is the scalar implementation that polyline_is_simple
# replaced: one Python loop per test and one _reference_segment_distance
# call per non-adjacent segment pair.  It is the oracle for the verdict.


def _reference_segment_distance(p0, p1, q0, q1) -> float:
    # Minimum distance between segments [p0,p1] and [q0,q1], any dimension.
    d1 = [b - a for a, b in zip(p0, p1)]
    d2 = [b - a for a, b in zip(q0, q1)]
    r = [a - b for a, b in zip(p0, q0)]
    a = sum(v * v for v in d1)
    e = sum(v * v for v in d2)
    f = sum(v * w for v, w in zip(d2, r))
    if a == 0.0 and e == 0.0:
        return math.sqrt(sum(v * v for v in r))
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        s = 0.0
    else:
        cc = sum(v * w for v, w in zip(d1, r))
        if e == 0.0:
            t = 0.0
            s = min(1.0, max(0.0, -cc / a))
        else:
            b = sum(v * w for v, w in zip(d1, d2))
            denom = a * e - b * b
            s = min(1.0, max(0.0, (b * f - cc * e) / denom)) if denom > 0.0 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = min(1.0, max(0.0, -cc / a))
            elif t > 1.0:
                t = 1.0
                s = min(1.0, max(0.0, (b - cc) / a))
    gap = [(pa + s * da) - (qa + t * db)
           for pa, da, qa, db in zip(p0, d1, q0, d2)]
    return math.sqrt(sum(v * v for v in gap))


def _reference_is_simple(points) -> bool:
    pts = [tuple(row) for row in np.asarray(points, dtype=float).tolist()]
    n = len(pts)
    if n < 2:
        return True
    dt, dx = (max(p[k] for p in pts) - min(p[k] for p in pts) for k in (0, 1))
    diag = math.sqrt(dt * dt + dx * dx)
    tol = REL_TOL_SAMPLED * diag
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(pts[i], pts[j]) <= tol:
                return False
    for i in range(n - 2):
        u = [b - a for a, b in zip(pts[i], pts[i + 1])]
        v = [b - a for a, b in zip(pts[i + 1], pts[i + 2])]
        uu = sum(a * a for a in u)
        vv = sum(a * a for a in v)
        uv = sum(a * b for a, b in zip(u, v))
        area_sq = max(0.0, uu * vv - uv * uv)
        if area_sq <= (REL_TOL_SAMPLED * REL_TOL_SAMPLED) * uu * vv and uv < 0.0:
            return False
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if _reference_segment_distance(pts[i], pts[i + 1],
                                           pts[j], pts[j + 1]) <= tol:
                return False
    return True


@st.composite
def random_walks(draw):
    # Steps of any size and direction: some walks stay simple, many cross.
    n = draw(st.integers(2, 16))
    # At 1e-160 and 1e-165 squared lengths fall to subnormals or to zero.
    scale = draw(st.sampled_from([1e-165, 1e-160, 1e-6, 1.0, 1e6]))
    steps = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2,
                                   max_size=2), min_size=n, max_size=n))
    return np.cumsum(np.array(steps) * scale, axis=0)


@st.composite
def time_ordered_walks(draw):
    # Monotone in the first coordinate, so simple unless a step is tiny.
    n = draw(st.integers(2, 16))
    dts = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    dxs = draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n))
    return np.column_stack([np.cumsum(dts), np.cumsum(dxs)])


@st.composite
def self_crossing_walks(draw):
    # A walk that comes back to a point of one of its earlier segments
    # (possibly nudged off it), so it touches or crosses itself.
    walk = draw(random_walks())
    i = draw(st.integers(0, len(walk) - 2))
    s = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    back = walk[i] + s * (walk[i + 1] - walk[i]) + nudge
    away = back + draw(st.sampled_from([-1.0, 1.0]))
    return np.vstack([walk, back, away])


@st.composite
def lattice_polylines(draw):
    # Small integer grids: vertices repeat, segments overlap, touch and fold.
    n = draw(st.integers(2, 12))
    coords = draw(st.lists(st.lists(st.integers(-2, 2), min_size=2,
                                    max_size=2), min_size=n, max_size=n))
    return np.array(coords, dtype=float)


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_walks(), time_ordered_walks(), self_crossing_walks(),
                 lattice_polylines()))
def test_polyline_is_simple_matches_the_scalar_loops(points):
    assert polyline_is_simple(points) == _reference_is_simple(points)


# Fixtures whose closest approach is exactly the tolerance.  Both have the
# bounding box [0, 2] x [0, 1], so tol = REL_TOL_SAMPLED * sqrt(5), and the
# gap h is tol itself or the next float above it.  Every coordinate of the
# closest points is computed exactly, so the distance is h.
_TOL = REL_TOL_SAMPLED * math.sqrt(5.0)


def _vertex_at(h):
    # First and last vertices h apart.
    return np.array([[0.0, h], [0.0, 1.0], [2.0, 1.0], [2.0, 0.0], [0.0, 0.0]])


def _segment_interior_at(h):
    # The first vertex sits h above the middle of the last segment.
    return np.array([[1.0, h], [1.0, 1.0], [2.0, 1.0], [2.0, 0.0], [0.0, 0.0]])


def _segment_end_at(h):
    # The last segment comes down at a slant and ends h above the middle of
    # the first; the lines through the two meet beyond that end.
    return np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.5, 2.0 * h],
                     [1.0, h]])


def _segment_start_at(h):
    # The last segment starts h above a point of the first, near its end,
    # and leaves at a slant; the lines through the two meet before that start.
    near = 2.0 - 2.0 ** -20
    return np.array([[0.0, 0.0], [2.0, 0.0], [near, h], [1.5, 1.0]])


@pytest.mark.parametrize("fixture", [_vertex_at, _segment_interior_at,
                                     _segment_end_at, _segment_start_at])
def test_contact_exactly_at_tol_is_not_simple(fixture):
    at = fixture(_TOL)
    first, last = at[:2].tolist(), at[-2:].tolist()
    assert _reference_segment_distance(*first, *last) == _TOL
    beyond = fixture(float(np.nextafter(_TOL, 1.0)))
    assert not polyline_is_simple(at) and not _reference_is_simple(at)
    assert polyline_is_simple(beyond) and _reference_is_simple(beyond)
