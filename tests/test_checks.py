"""Tests for the check registry, selectors, and deterministic seeding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fringelab.checks as checks
from fringelab.checks import (
    CheckContext,
    CheckResult,
    CheckSpec,
    NoMatchingChecksError,
    REGISTRY,
    perturbed_noncone_map,
    random_conformal_lorentz_4d,
    random_invertible_frame_map,
    random_simple_worldline,
    run_checks,
    select_checks,
)
from fringelab.constants import REL_TOL_SAMPLED
from fringelab.interference import ConfigError
from fringelab.kinematics import (
    ConeClass,
    FrameMap,
    boost_matrix,
    classify_cone_preserver,
    polyline_is_simple,
    velocity_addition,
)

FAST = CheckContext(seed=7, trials=60, resolution=11)


def test_registry_ids_are_unique():
    ids = [spec.id for spec in REGISTRY]
    assert len(ids) == len(set(ids))


def test_registry_covers_every_postulate_label():
    labels = {spec.paper_ref for spec in REGISTRY}
    joined = " ".join(labels)
    for required in ("O1", "O2", "O3", "A1", "A2", "A3", "A4"):
        assert required in joined


def test_full_run_passes_with_reduced_trials():
    results = run_checks(FAST)
    assert len(results) == len(REGISTRY)
    failed = [r.id for r in results if not r.passed]
    assert failed == []
    for r in results:
        assert isinstance(r.passed, bool)
        assert isinstance(r.detail, str)
        assert r.detail


@pytest.mark.parametrize("trials", [0, -1])
def test_check_context_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ConfigError) as info:
        CheckContext(trials=trials)
    assert str(info.value) == f"trials: must be at least 1, got {trials}"


def test_result_dict_shape():
    result = run_checks(FAST, "phase-group-law")[0]
    d = result.as_dict()
    assert sorted(d) == ["detail", "id", "paper_ref", "pass"]
    assert d["id"] == "phase-group-law"
    assert d["pass"] is True


def test_selector_matches_id_substring():
    picked = select_checks("interval-flip")
    ids = [spec.id for _, spec in picked]
    assert "superluminal-interval-flip" in ids
    assert "superluminal-composition-closure" in ids


def test_selector_matches_label_substring():
    picked = select_checks("O2")
    ids = {spec.id for _, spec in picked}
    assert ids == {"fringe-law", "classical-no-go"}


def test_selector_is_case_insensitive():
    assert select_checks("BLOCKED") == select_checks("blocked")


def test_selector_all_and_blank_mean_everything():
    assert len(select_checks("all")) == len(REGISTRY)
    assert len(select_checks(None)) == len(REGISTRY)
    assert len(select_checks("  ")) == len(REGISTRY)


@pytest.mark.parametrize("selector", ["ALL", " All ", "aLL"])
def test_selector_all_is_case_insensitive_too(selector):
    assert select_checks(selector) == select_checks("all")


def test_unknown_selector_raises_and_lists_ids():
    with pytest.raises(NoMatchingChecksError) as info:
        select_checks("no-such-check")
    assert "blocked-arm-exact" in str(info.value)


def test_subset_run_reproduces_full_run_results():
    # Seeding by registry position means a filtered run must produce the
    # same pass/detail pairs as the matching slice of a full run.
    full = {r.id: r for r in run_checks(FAST)}
    for selector in ("cone", "A1", "blocked-arm-exact"):
        for r in run_checks(FAST, selector):
            assert r == full[r.id]


_select_checks = checks.select_checks


def filtered_position_select(selector):
    # Numbers the selected checks from 0, not by their registry position.
    return list(enumerate(spec for _, spec in _select_checks(selector)))


def test_seed_repeatability_fails_when_seeded_by_filtered_position(monkeypatch):
    # A runner that numbers the filtered list from 0 instead of by registry
    # position would break the rule above; the check itself must see it.
    assert all(r.passed for r in run_checks(FAST))
    monkeypatch.setattr(checks, "select_checks", filtered_position_select)
    [result] = run_checks(FAST, "seed-repeatability")
    assert not result.passed
    assert result.detail == "this check was not seeded by its registry position"


def test_different_seeds_change_sampled_details():
    a = run_checks(CheckContext(seed=1, trials=40), "boost-interval")[0]
    b = run_checks(CheckContext(seed=2, trials=40), "boost-interval")[0]
    assert a.passed and b.passed
    assert a.detail != b.detail


def test_same_seed_repeats_exactly():
    a = run_checks(FAST)
    b = run_checks(FAST)
    assert a == b


def test_crashing_check_is_contained_as_failure(monkeypatch):
    def explode(ctx, rng):
        raise RuntimeError("synthetic fault")

    spec = CheckSpec("synthetic-crash", "none", explode)
    monkeypatch.setattr(checks, "REGISTRY", REGISTRY + (spec,))
    results = run_checks(FAST, "synthetic-crash")
    assert len(results) == 1
    assert not results[0].passed
    assert results[0].detail == "raised RuntimeError: synthetic fault"


def test_random_simple_worldlines_are_simple():
    rng = np.random.default_rng(90)
    for _ in range(200):
        line = random_simple_worldline(rng)
        assert 2 <= len(line.vertices) <= 20
        assert polyline_is_simple(line.points_array())


def test_random_invertible_maps_are_well_formed():
    rng = np.random.default_rng(91)
    for _ in range(200):
        fm = random_invertible_frame_map(rng)
        lin = fm.linear_part
        assert lin.shape == (2, 2)
        assert abs(np.linalg.det(lin)) > 1e-12


def test_conformal_factory_matches_its_own_scale():
    rng = np.random.default_rng(92)
    for _ in range(50):
        lin, lam = random_conformal_lorentz_4d(rng)
        result = classify_cone_preserver(lin)
        assert result.kind is ConeClass.CONFORMAL_LORENTZ
        assert abs(result.scale - lam * lam) <= 1e-9 * lam * lam


def test_perturbed_maps_are_never_cone_preservers():
    rng = np.random.default_rng(93)
    for _ in range(50):
        fm = perturbed_noncone_map(rng)
        assert (classify_cone_preserver(fm.linear_part).kind
                is ConeClass.NOT_CONE_PRESERVING)


@pytest.mark.parametrize("field", ["trials", "resolution"])
@pytest.mark.parametrize("bad", [2.5, 5.0, np.float64(5.0), True, "5", None])
def test_check_context_refuses_a_count_that_is_not_an_integer(field, bad):
    with pytest.raises(ConfigError) as info:
        CheckContext(**{field: bad})
    assert str(info.value) == f"{field}: must be an integer, got {bad!r}"


# Both counts must be integers before either is compared with 1.
@pytest.mark.parametrize("fields, message", [
    ({"resolution": 0}, "resolution: must be at least 1, got 0"),
    ({"resolution": np.int64(-3)}, "resolution: must be at least 1, got np.int64(-3)"),
    ({"trials": 0, "resolution": 0}, "trials: must be at least 1, got 0"),
    ({"trials": 0, "resolution": 2.5}, "resolution: must be an integer, got 2.5"),
])
def test_check_context_refuses_a_resolution_below_one(fields, message):
    with pytest.raises(ConfigError) as info:
        CheckContext(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), -1, np.int64(-1), True,
                                 2 ** 64, "3", None])
def test_check_context_refuses_a_seed_outside_the_u64_counts(bad):
    with pytest.raises(ConfigError) as info:
        CheckContext(seed=bad)
    assert str(info.value) == (f"seed: must be an integer in [0, 2**64), "
                               f"got {bad!r}")


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.int64(5),
                                  np.uint64(2 ** 64 - 1)])
def test_check_context_takes_every_u64_seed(seed):
    assert CheckContext(seed=seed).seed == seed


def test_check_context_takes_numpy_integers_and_a_resolution_of_one():
    # The no-go check reports a resolution below 2 as its own FAIL line.
    ctx = CheckContext(trials=np.int64(3), resolution=1)
    assert ctx.resolution == 1 and ctx.trials == 3


# -- velocity-addition-consistency's comparison, against np.allclose ---------

_NUDGES = hnp.arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0))
_COMPOSE_FAILED = "two subluminal boosts failed to compose to one"
_compose = checks.compose


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rel=_NUDGES, absolute=_NUDGES,
       spread=st.floats(0.0, 4.0))
def test_velocity_addition_check_compares_the_product_as_allclose_did(
        seed, rel, absolute, spread):
    # The check's first product, moved by up to spread times each tolerance
    # per entry, is refused exactly when np.allclose refuses it.
    compared = []

    def nudged(f, g):
        lin = _compose(f, g).linear_part
        expected = boost_matrix(velocity_addition(f.V, g.V))
        atol = REL_TOL_SAMPLED * np.max(np.abs(expected))
        lin = lin + spread * (rel * REL_TOL_SAMPLED * abs(expected)
                              + absolute * atol)
        compared.append(np.allclose(lin, expected, rtol=REL_TOL_SAMPLED,
                                    atol=atol))
        return FrameMap.general_linear(lin)

    with mock.patch.object(checks, "compose", nudged):
        _, detail = checks._check_velocity_addition(
            CheckContext(seed=seed, trials=1), np.random.default_rng(seed))
    assert compared == [compared[0]]
    assert (detail == _COMPOSE_FAILED) is not compared[0]
