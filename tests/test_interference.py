"""Tests for the interferometer benchmark and its reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringelab.interference import (
    BlockedArm,
    Composition,
    ConfigError,
    DetectorModel,
    ExperimentConfig,
    OutcomeDistribution,
    _at_phase,
    check_O1_robustness,
    check_O3_frame_invariance,
    interferometer_events,
    no_go_search,
    phase_sweep,
    simulate,
    uniform_phase_grid,
    visibility,
)
from fringelab.amplitudes import (
    AmplitudeError,
    ProbabilityRule,
    carrier_minimality_check,
    norm_squared,
)
from fringelab.kinematics import (
    IntervalKind,
    KinematicsError,
    SpacetimePoint,
    SpeedDomainError,
    boost_matrix,
    classify_interval,
    general_boost_matrix,
    lorentz_boost,
    rotation_matrix,
    superluminal_matrix,
    velocity_addition,
)


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.splitter1 == 0.5
    assert config.composition is Composition.AMPLITUDE


def test_config_accepts_enum_values_as_plain_strings():
    config = ExperimentConfig(blocked_arm="upper",
                              detector_model="non_demolishing_silent",
                              composition="classical_mixture")
    assert config.blocked_arm is BlockedArm.UPPER
    assert config.detector_model is DetectorModel.NON_DEMOLISHING_SILENT
    assert config.composition is Composition.CLASSICAL_MIXTURE
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(blocked_arm="sideways")
    assert "blocked_arm" in str(err.value)


def test_config_rejects_bad_fields_with_field_names():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(splitter1=1.5, phase=math.nan)
    message = str(err.value)
    assert "splitter1" in message and "phase" in message


def test_config_rejects_weights_outside_classical_mode():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(mixture_weights=(0.5, 0.5))
    assert "mixture_weights" in str(err.value)


def test_config_rejects_weights_not_summing_to_one():
    with pytest.raises(ConfigError):
        ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                         mixture_weights=(0.7, 0.7))
    with pytest.raises(ConfigError):
        ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                         mixture_weights=(-0.1, 1.1))
    # Two weights whose sum passes the largest float: inf, not OverflowError.
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                         mixture_weights=(8.98846567431158e307,) * 2)
    assert str(err.value) == "mixture_weights: must sum to 1, got inf"


def test_bright_port_at_zero_phase_is_exact():
    d = simulate(ExperimentConfig(phase=0.0))
    assert d.p_d0 == 1.0
    assert d.p_d1 == 0.0
    assert d.p_absorbed == 0.0


def test_fringe_law_matches_half_angle_cosine():
    for phi in np.linspace(0.0, 2.0 * math.pi, 37):
        d = simulate(ExperimentConfig(phase=float(phi)))
        want = math.cos(phi / 2.0) ** 2
        assert abs(d.p_d0 - want) <= 1e-12
        assert abs(d.p_d1 - (1.0 - want)) <= 1e-12
        assert abs(d.p_d0 + d.p_d1 + d.p_absorbed - 1.0) <= 1e-12


def test_complementary_ports_half_period_apart():
    for phi in np.linspace(0.0, math.pi, 19):
        a = simulate(ExperimentConfig(phase=float(phi)))
        b = simulate(ExperimentConfig(phase=float(phi) + math.pi))
        assert abs(a.p_d0 + b.p_d0 - 1.0) <= 1e-12


def test_blocked_arm_probabilities_are_exact_binary_fractions():
    for arm in (BlockedArm.UPPER, BlockedArm.LOWER):
        for phi in uniform_phase_grid(64):
            d = simulate(ExperimentConfig(blocked_arm=arm, phase=phi))
            assert d.p_d0 == 0.25
            assert d.p_d1 == 0.25
            assert d.p_absorbed == 0.5
            assert d.p_d0_given_detected == 0.5
            assert d.p_d1_given_detected == 0.5


def test_blocked_arm_with_unbalanced_splitters():
    d = simulate(ExperimentConfig(splitter1=0.25, splitter2=0.75,
                                  blocked_arm=BlockedArm.UPPER))
    # Lower arm holds 0.75 of the weight and meets a 0.75 transmissivity.
    assert d.p_absorbed == 0.25
    assert math.isclose(d.p_d0, 0.75 * 0.75, rel_tol=1e-15)
    assert math.isclose(d.p_d1, 0.75 * 0.25, rel_tol=1e-15)


def test_recording_detector_flattens_fringes():
    for model in (DetectorModel.NON_DEMOLISHING_RECORDING,
                  DetectorModel.ABSORB_AND_REEMIT_RECORDING):
        sweep = phase_sweep(ExperimentConfig(detector_model=model),
                            uniform_phase_grid(32))
        assert visibility(sweep) <= 1e-12
        for _, d in sweep:
            assert abs(d.p_d0 - 0.5) <= 1e-12


def test_silent_detector_keeps_full_contrast():
    for model in (DetectorModel.NONE, DetectorModel.NON_DEMOLISHING_SILENT):
        sweep = phase_sweep(ExperimentConfig(detector_model=model),
                            uniform_phase_grid(32))
        assert visibility(sweep) >= 1.0 - 1e-12


def test_classical_mode_never_reads_phase():
    config = ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                              mixture_weights=(0.3, 0.7))
    rows = [simulate(dataclasses.replace(config, phase=p)).as_tuple()
            for p in (0.0, 1.7, math.pi, 5.1)]
    assert all(row == rows[0] for row in rows)


def test_classical_default_weights_follow_first_splitter():
    d = simulate(ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                                  splitter1=0.25))
    # Upper path weight 0.25 meets reflectivity 0.5 at the second splitter.
    assert math.isclose(d.p_d0, 0.25 * 0.5 + 0.75 * 0.5, rel_tol=1e-15)
    assert d.p_absorbed == 0.0


def test_classical_blocked_arm_matches_amplitude_numbers():
    classical = simulate(ExperimentConfig(
        composition=Composition.CLASSICAL_MIXTURE,
        blocked_arm=BlockedArm.UPPER))
    amplitude = simulate(ExperimentConfig(blocked_arm=BlockedArm.UPPER))
    assert classical.as_tuple() == amplitude.as_tuple()


def test_conditionals_none_when_everything_is_absorbed():
    d = simulate(ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                                  mixture_weights=(1.0, 0.0),
                                  blocked_arm=BlockedArm.UPPER))
    assert d.p_absorbed == 1.0
    assert d.p_d0_given_detected is None
    assert d.p_d1_given_detected is None


def test_outcome_distribution_normalizes_and_guards():
    d = OutcomeDistribution.from_weights(1.0, 1.0, 2.0)
    assert d.p_d0 == 0.25 and d.p_absorbed == 0.5
    with pytest.raises(ConfigError):
        OutcomeDistribution.from_weights(-0.1, 0.5, 0.6)
    from fringelab.amplitudes import DegenerateOutcomesError
    with pytest.raises(DegenerateOutcomesError):
        OutcomeDistribution.from_weights(0.0, 0.0, 0.0)


def test_custom_probability_rule_is_used_by_simulate():
    config = ExperimentConfig(splitter1=0.3, phase=0.7)
    doubled = ProbabilityRule("test-doubled", lambda a: 2.0 * norm_squared(a))
    assert simulate(config, doubled) == simulate(config)
    negative = ProbabilityRule("test-negative", lambda a: -norm_squared(a))
    with pytest.raises(AmplitudeError):
        simulate(config, negative)
    with pytest.raises(AmplitudeError):
        phase_sweep(config, [0.0, 1.0], negative)


def test_phase_sweep_shape_and_empty_guard():
    sweep = phase_sweep(ExperimentConfig(), [0.0])
    assert len(sweep) == 1
    assert sweep[0][0] == 0.0
    assert sweep[0][1].as_tuple() == simulate(ExperimentConfig()).as_tuple()
    with pytest.raises(ConfigError):
        phase_sweep(ExperimentConfig(), [])


def _members(kind):
    return st.sampled_from(list(kind) + [m.value for m in kind])


@st.composite
def valid_configs(draw):
    # Every enum value, given as a member or as its plain string, both
    # compositions, splitters including 0 and 1 (as ints too) and, for
    # classical composition, explicit mixture weights.
    splitter = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, 0.5]),
                         st.floats(0.0, 1.0))
    composition = draw(_members(Composition))
    weights = None
    if Composition(composition) is Composition.CLASSICAL_MIXTURE:
        weights = draw(st.one_of(
            st.none(),
            st.floats(0.0, 1.0).map(lambda w: (w, 1.0 - w)),
            st.sampled_from([(1, 0), [0.0, 1.0], (0.25, 0.75)])))
    return ExperimentConfig(
        splitter1=draw(splitter), splitter2=draw(splitter),
        phase=draw(st.floats(allow_nan=False, allow_infinity=False)),
        blocked_arm=draw(_members(BlockedArm)),
        detector_model=draw(_members(DetectorModel)),
        composition=composition, mixture_weights=weights)


@settings(max_examples=300, deadline=None)
@given(valid_configs(), st.floats(allow_nan=False, allow_infinity=False))
def test_at_phase_equals_replace_field_for_field(config, p):
    fast = _at_phase(config, p)
    slow = dataclasses.replace(config, phase=p)
    assert fast == slow
    for field in dataclasses.fields(ExperimentConfig):
        a, b = getattr(fast, field.name), getattr(slow, field.name)
        assert type(a) is type(b)
        if isinstance(a, tuple):
            assert [type(v) for v in a] == [type(v) for v in b]
    assert simulate(fast).as_tuple() == simulate(slow).as_tuple()


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1e309, -1e309,
                               10 ** 309, -10 ** 309],
                         ids=["nan", "inf", "-inf", "1e309", "-1e309",
                              "10**309", "-10**309"])
def test_at_phase_rejects_a_nonfinite_phase_as_replace_does(p):
    config = ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE)
    with pytest.raises(ConfigError) as fast:
        _at_phase(config, p)
    with pytest.raises(ConfigError) as slow:
        dataclasses.replace(config, phase=p)
    assert str(fast.value) == str(slow.value) == "phase: must be finite"


_BIG = 10 ** 400


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: phase_sweep(ExperimentConfig(), [_BIG]),
                 ConfigError, "phase: must be finite", id="phase_sweep"),
    pytest.param(lambda: no_go_search([_BIG, 0.0], 3),
                 ConfigError, "phase: must be finite", id="no_go_search"),
    pytest.param(lambda: check_O1_robustness([0.0, -_BIG]),
                 ConfigError, "phase: must be finite", id="check_O1_robustness"),
    pytest.param(lambda: carrier_minimality_check([_BIG]),
                 AmplitudeError, "phase grid must be finite",
                 id="carrier_minimality_check"),
    pytest.param(lambda: lorentz_boost(SpacetimePoint(0.0, 0.0), _BIG),
                 SpeedDomainError, "V: must be finite", id="lorentz_boost"),
    pytest.param(lambda: velocity_addition(_BIG, 0.1),
                 SpeedDomainError, "V: must be finite", id="velocity_addition"),
    pytest.param(lambda: boost_matrix(-_BIG),
                 SpeedDomainError, "V: must be finite", id="boost_matrix"),
    pytest.param(lambda: superluminal_matrix(_BIG, 1),
                 SpeedDomainError, "V: must be finite", id="superluminal_matrix"),
    pytest.param(lambda: rotation_matrix([0.0, 0.0, 1.0], _BIG),
                 KinematicsError, "angle: must be finite", id="rotation_matrix"),
    pytest.param(lambda: general_boost_matrix([_BIG, 0, 0]),
                 SpeedDomainError, "V: must be finite",
                 id="general_boost_matrix"),
])
def test_entry_points_name_an_int_too_large_for_a_float(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_visibility_ideal_and_flat_cases():
    grid = uniform_phase_grid(32)
    ideal = phase_sweep(ExperimentConfig(), grid)
    assert visibility(ideal) >= 1.0 - 1e-12
    flat = phase_sweep(ExperimentConfig(
        composition=Composition.CLASSICAL_MIXTURE), grid)
    assert visibility(flat) == 0.0
    blocked_everything = phase_sweep(ExperimentConfig(
        composition=Composition.CLASSICAL_MIXTURE,
        mixture_weights=(1.0, 0.0),
        blocked_arm=BlockedArm.UPPER), grid)
    assert visibility(blocked_everything) == 0.0  # 0/0 case


def test_visibility_invariant_under_global_phase_offset():
    grid = uniform_phase_grid(32)
    base = visibility(phase_sweep(ExperimentConfig(), grid))
    offset = visibility(phase_sweep(ExperimentConfig(),
                                    [p + 2.0 * math.pi for p in grid]))
    assert abs(base - offset) <= 1e-12


def test_uniform_phase_grid_contains_exact_pi():
    grid = uniform_phase_grid(32)
    assert len(grid) == 32
    assert grid[0] == 0.0
    assert math.pi in grid
    with pytest.raises(ConfigError):
        uniform_phase_grid(0)


def test_fringe_is_lipschitz_on_a_dense_grid():
    grid = [2.0 * math.pi * k / 256 for k in range(257)]
    sweep = phase_sweep(ExperimentConfig(), grid)
    step = 2.0 * math.pi / 256
    for (_, a), (_, b) in zip(sweep, sweep[1:]):
        assert abs(b.p_d0 - a.p_d0) <= 0.5 * step + 1e-12


def test_no_go_search_contrast():
    report = no_go_search(uniform_phase_grid(8), weight_grid_resolution=11)
    assert report.max_classical_variation == 0.0
    assert report.classical_phase_independent
    assert report.amplitude_visibility >= 1.0 - 1e-12
    assert report.passed
    assert report.classical_config_count == 11 * 3 * 4


def test_no_go_search_input_guards():
    with pytest.raises(ConfigError):
        no_go_search([0.0], weight_grid_resolution=11)
    with pytest.raises(ConfigError):
        no_go_search(uniform_phase_grid(4), weight_grid_resolution=1)


def test_O1_report_pattern():
    report = check_O1_robustness(uniform_phase_grid(32))
    assert report.passed
    by_model = {e.model: e for e in report.entries}
    assert by_model["non_demolishing_silent"].visibility >= 1.0 - 1e-9
    assert by_model["non_demolishing_recording"].visibility <= 1e-12
    assert by_model["absorb_and_reemit_recording"].visibility <= 1e-12
    assert by_model["none"].visibility >= 1.0 - 1e-9
    assert not by_model["none"].records_which_way
    assert by_model["absorb_and_reemit_recording"].records_which_way


def test_event_table_geometry():
    events = interferometer_events()
    assert len(events) == 7

    def kind(a, b):
        return classify_interval(events[a], events[b])

    assert kind("source", "splitter1") is IntervalKind.NULL
    assert kind("splitter1", "mirror_upper") is IntervalKind.NULL
    assert kind("mirror_upper", "splitter2") is IntervalKind.NULL
    assert kind("splitter2", "detector_d0") is IntervalKind.NULL
    assert kind("mirror_upper", "mirror_lower") is IntervalKind.SPACELIKE
    assert kind("source", "splitter2") is IntervalKind.TIMELIKE


def test_O3_invariance_under_boosts():
    report = check_O3_frame_invariance(ExperimentConfig(phase=1.1),
                                       [0.0, 0.3, -0.6, 0.9, -0.99])
    assert report.passed
    assert all(e.interval_kinds_preserved for e in report.entries)
    assert all(e.statistics_identical for e in report.entries)
    assert report.baseline.p_d0 == pytest.approx(math.cos(0.55) ** 2,
                                                 rel=1e-12)


def test_O3_rejects_light_speed_boost():
    with pytest.raises(SpeedDomainError):
        check_O3_frame_invariance(ExperimentConfig(), [1.0])
