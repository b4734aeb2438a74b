"""Tests for worldline simplicity, past segments, and the no-branching check."""

import numpy as np
import pytest

from fringelab.kinematics import (
    FrameMap,
    KinematicsError,
    SpacetimePoint,
    Worldline,
    boost_matrix,
    check_no_branching,
    past_worldline_segment,
    polyline_is_simple,
)


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


def test_no_branching_dimension_mismatch_raises():
    w = Worldline(_pts((0.0, 0.0), (1.0, 0.5)))
    m = FrameMap.general_linear(boost_matrix(0.5, 1.0, 3))
    with pytest.raises(KinematicsError):
        check_no_branching(w, m)
