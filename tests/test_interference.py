"""Tests for the interferometer benchmark and its reports."""

import collections
import copy
import dataclasses
import math
import pickle
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amplitude_oracle as oracle
from test_acceptance import _phase_reading_classical
import fringelab.amplitudes as amplitudes
import fringelab.interference as interference
from fringelab.interference import (
    BlockedArm,
    Composition,
    ConfigError,
    DetectorModel,
    ExperimentConfig,
    OutcomeDistribution,
    _at_phase,
    _classical_outcome,
    check_O1_robustness,
    no_go_search,
    phase_sweep,
    simulate,
    uniform_phase_grid,
    visibility,
)
from fringelab.checks import check_O3_frame_invariance, interferometer_events
from fringelab.amplitudes import (
    UNIT,
    Amplitude,
    AmplitudeError,
    DegenerateOutcomesError,
    ProbabilityRule,
    SQUARED_NORM,
    carrier_minimality_check,
    check_global_phase_invariance,
    evaluate,
    evaluate_outcomes,
    norm_squared,
    phase,
)
from fringelab.kinematics import (
    FrameMap,
    IntervalKind,
    KinematicsError,
    SpacetimePoint,
    SpeedDomainError,
    Worldline,
    boost_matrix,
    classify_cone_preserver,
    classify_interval,
    lorentz_boost,
    superluminal_matrix,
    velocity_addition,
)
from fringelab.constants import REL_TOL_ALGEBRA
from fringelab.schemas import dump_json


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.splitter1 == 0.5
    assert config.composition is Composition.AMPLITUDE


@pytest.mark.parametrize("half, quarter", [
    (np.float32(0.5), np.float32(0.25)), (Fraction(1, 2), Fraction(1, 4))])
def test_config_accepts_numpy_scalars_and_fractions(half, quarter):
    config = ExperimentConfig(splitter1=half, splitter2=half, phase=half)
    assert config == ExperimentConfig(splitter1=0.5, splitter2=0.5, phase=0.5)
    assert type(config.splitter1) is float and type(config.phase) is float
    mixed = ExperimentConfig(composition="classical_mixture",
                             mixture_weights=(quarter, 1 - quarter))
    assert mixed.mixture_weights == (0.25, 0.75)
    one, zero = np.int64(1), np.int64(0)
    assert ExperimentConfig(splitter1=one, phase=zero,
                            composition="classical_mixture",
                            mixture_weights=(one, zero)) == ExperimentConfig(
        splitter1=1.0, phase=0.0, composition="classical_mixture",
        mixture_weights=(1.0, 0.0))


@pytest.mark.parametrize("bad", ["0.5", True, None, Decimal("0.5")])
def test_config_names_a_value_that_is_not_a_number(bad):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(splitter1=bad, splitter2=bad, phase=bad,
                         composition="classical_mixture",
                         mixture_weights=(bad, 0.5))
    assert str(info.value) == (
        "splitter1: must be a number; splitter2: must be a number; "
        "phase: must be a number; mixture_weights: must be two numbers "
        "(upper, lower)")


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


def _old_enum_field(name, kind, value):
    # ExperimentConfig's rule for an enum field before a member kept itself:
    # the stored member, or the problem the field reports.
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        return f"{name}: {value!r} is not one of [{allowed}]"


class _Text(str):
    pass


_ENUM_FIELDS = [("blocked_arm", BlockedArm), ("detector_model", DetectorModel),
                ("composition", Composition)]
_ENUM_FIELD_VALUES = (
    [m for _, kind in _ENUM_FIELDS for m in kind]
    + [m.value for _, kind in _ENUM_FIELDS for m in kind]
    + [_Text(m.value) for _, kind in _ENUM_FIELDS for m in kind]
    + ["", "NONE", "Upper", " none", "none ", "sideways", "quantum",
       "BlockedArm.NONE", "non-demolishing-silent"]
    + [None, 0, 1, 1.5, True, b"none", ("none",), ["none"], {"none": 1},
       IntervalKind.NULL, np.str_("upper")])


@pytest.mark.parametrize("name, kind", _ENUM_FIELDS)
@pytest.mark.parametrize("value", _ENUM_FIELD_VALUES, ids=repr)
def test_enum_fields_store_what_the_old_lookup_stored(name, kind, value):
    # A member (of this enum or another str enum whose value names one), a
    # value string, a bad string and a non-string: the same stored member,
    # or the same message.
    old = _old_enum_field(name, kind, value)
    try:
        new = getattr(ExperimentConfig(**{name: value}), name)
    except ConfigError as err:
        new = str(err)
    if isinstance(old, kind):
        assert new is old
    else:
        assert type(new) is str and new == old


def test_config_rejects_bad_fields_with_field_names():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(splitter1=1.5, phase=math.nan)
    message = str(err.value)
    assert "splitter1" in message and "phase" in message


_EVERY_FIELD_WRONG = (
    "splitter1: transmissivity must lie in [0, 1], got 1.5; "
    "splitter2: transmissivity must lie in [0, 1], got -0.5; "
    "phase: must be finite; "
    "blocked_arm: 'sideways' is not one of [none, upper, lower]; "
    "detector_model: 'camera' is not one of [none, non_demolishing_recording, "
    "non_demolishing_silent, absorb_and_reemit_recording]; ")


@pytest.mark.parametrize("composition, tail", [
    ("quantum", "composition: 'quantum' is not one of [amplitude, "
     "classical_mixture]; mixture_weights: must sum to 1, got 0.75"),
    ("amplitude", "mixture_weights: must sum to 1, got 0.75; mixture_weights: "
     "only meaningful for classical_mixture composition"),
])
def test_config_names_every_wrong_field_in_field_order(composition, tail):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(splitter1=1.5, splitter2=-0.5, phase=math.nan,
                         blocked_arm="sideways", detector_model="camera",
                         composition=composition, mixture_weights=(0.25, 0.5))
    assert str(info.value) == _EVERY_FIELD_WRONG + tail


def test_config_stores_each_field_as_the_value_it_checked():
    config = ExperimentConfig(np.float32(0.25), Fraction(3, 4), 1, "lower",
                              DetectorModel.NON_DEMOLISHING_SILENT,
                              "classical_mixture",
                              [Fraction(1, 4), np.float32(0.75)])
    assert [type(v) for v in (config.splitter1, config.splitter2,
                              config.phase)] == [float] * 3
    assert config.blocked_arm is BlockedArm.LOWER
    assert config.composition is Composition.CLASSICAL_MIXTURE
    assert config.mixture_weights == (0.25, 0.75)
    assert [type(v) for v in config.mixture_weights] == [float, float]
    for p in (0.0, -2.5, 1e300):
        fast, slow = _at_phase(config, p), dataclasses.replace(config, phase=p)
        for field in dataclasses.fields(ExperimentConfig):
            a, b = getattr(fast, field.name), getattr(slow, field.name)
            assert type(a) is type(b) and a == b


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
    rows = [tuple(simulate(dataclasses.replace(config, phase=p)))
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
    assert tuple(classical) == tuple(amplitude)


def test_conditionals_none_when_everything_is_absorbed():
    d = simulate(ExperimentConfig(composition=Composition.CLASSICAL_MIXTURE,
                                  mixture_weights=(1.0, 0.0),
                                  blocked_arm=BlockedArm.UPPER))
    assert d.p_absorbed == 1.0
    assert d.p_d0_given_detected is None
    assert d.p_d1_given_detected is None


def test_simulate_refuses_rule_weights_whose_sum_overflows():
    big = ProbabilityRule("big", lambda a: 1e308)
    with pytest.raises(ConfigError) as info:
        simulate(ExperimentConfig(), big)
    assert str(info.value) == "outcome weights must be nonnegative with a finite sum"


def test_simulate_refuses_a_rule_that_weighs_every_amplitude_zero():
    zero = ProbabilityRule("zero", lambda a: 0.0)
    with pytest.raises(DegenerateOutcomesError) as info:
        simulate(ExperimentConfig(), zero)
    assert str(info.value) == "all outcome weights are zero; nothing to normalize"


# Every entry point that weighs an amplitude takes a rule; none takes a bare
# callable, whose weights nothing would check.
_RULE_ENTRY_POINTS = {
    "evaluate": lambda rule: evaluate(UNIT, rule),
    "evaluate_outcomes": lambda rule: evaluate_outcomes(
        {"a": UNIT, "b": Amplitude(0.0, 2.0)}, rule),
    "simulate": lambda rule: simulate(ExperimentConfig(), rule),
    "phase_sweep": lambda rule: phase_sweep(ExperimentConfig(), [0.0, 1.0], rule),
    # The classical path weighs no amplitude, yet it takes a rule too.
    "simulate-blocked-upper": lambda rule: simulate(
        ExperimentConfig(blocked_arm="upper"), rule),
    "simulate-blocked-lower": lambda rule: simulate(
        ExperimentConfig(blocked_arm="lower"), rule),
    "simulate-classical-mixture": lambda rule: simulate(
        ExperimentConfig(composition="classical_mixture"), rule),
    "phase_sweep-classical-mixture": lambda rule: phase_sweep(
        ExperimentConfig(composition="classical_mixture"), [0.0, 1.0], rule),
    "check_global_phase_invariance": lambda rule: check_global_phase_invariance(
        rule, 5, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", list(_RULE_ENTRY_POINTS))
@pytest.mark.parametrize("rule, kind", [
    (lambda a: -1.0, "function"), (lambda a: math.nan, "function"),
    (None, "NoneType"), ("squared-norm", "str")],
    ids=["negative", "nan", "none", "name"])
def test_entry_points_refuse_a_rule_that_is_not_a_probability_rule(
        entry, rule, kind):
    with pytest.raises(AmplitudeError) as info:
        _RULE_ENTRY_POINTS[entry](rule)
    assert type(info.value) is AmplitudeError
    assert str(info.value) == f"rule: must be a ProbabilityRule, got {kind}"


def test_custom_probability_rule_is_used_by_simulate():
    config = ExperimentConfig(splitter1=0.3, phase=0.7)
    doubled = ProbabilityRule("test-doubled", lambda a: 2.0 * norm_squared(a))
    assert simulate(config, doubled) == simulate(config)
    negative = ProbabilityRule("test-negative", lambda a: -norm_squared(a))
    with pytest.raises(AmplitudeError):
        simulate(config, negative)
    with pytest.raises(AmplitudeError):
        phase_sweep(config, [0.0, 1.0], negative)
    # The classical path weighs no amplitude, so a rule it accepts goes unused.
    blocked = ExperimentConfig(blocked_arm="upper")
    assert simulate(blocked, negative) == simulate(blocked)


def test_phase_sweep_shape_and_empty_guard():
    sweep = phase_sweep(ExperimentConfig(), [0.0])
    assert len(sweep) == 1
    assert sweep[0][0] == 0.0
    assert tuple(sweep[0][1]) == tuple(simulate(ExperimentConfig()))
    with pytest.raises(ConfigError):
        phase_sweep(ExperimentConfig(), [])


def _bits(dist):
    return [None if v is None else v.hex() for v in tuple(dist)]


# The phase-free graph parts are cached by the stored splitter floats: 0.0
# and -0.0 share an entry, and a Fraction is stored as its float.
_CACHED_SPLITTERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, Fraction(1, 3)]), st.floats(0.0, 1.0))
_GRAPH_PATH_CONFIGS = st.builds(
    ExperimentConfig, splitter1=_CACHED_SPLITTERS, splitter2=_CACHED_SPLITTERS,
    phase=st.floats(allow_nan=False, allow_infinity=False),
    detector_model=st.sampled_from(list(DetectorModel)))


@settings(max_examples=300, deadline=None)
@given(_GRAPH_PATH_CONFIGS, _GRAPH_PATH_CONFIGS)
def test_cached_parts_give_the_bits_of_fresh_parts_and_of_the_oracle(a, b):
    cached = [_bits(simulate(config)) for config in (a, b, a)]
    for config, got in zip((a, b, a), cached):
        interference._fixed_parts.cache_clear()
        assert _bits(simulate(config)) == got
        assert _bits(oracle.simulate_amplitude(config, SQUARED_NORM)) == got


def test_cached_parts_do_not_depend_on_which_zero_filled_the_entry():
    # Recorded, the upper arm's zero amplitude reaches the rule as a component
    # of its own, and this rule reads the sign of its real part.
    signed = ProbabilityRule("sign-reading", lambda a: (
        norm_squared(a) + 0.5 * (math.copysign(1.0, a.re) < 0.0)))
    zero, minus_zero = (
        ExperimentConfig(splitter1=z, phase=0.3,
                         detector_model=DetectorModel.NON_DEMOLISHING_RECORDING)
        for z in (0.0, -0.0))
    seen = set()
    for order in ((zero, minus_zero), (minus_zero, zero)):
        interference._fixed_parts.cache_clear()
        seen.update(tuple(_bits(simulate(c, signed))) for c in order)
    assert len(seen) == 1



# Reads each component's magnitude and sign bits, so any amplitude handed to
# it that differs from the full graph's, a zero's sign included, shows.
_SIGN_READING = ProbabilityRule("sign-reading", lambda a: (
    abs(a.re) + 2.0 * abs(a.im)
    + 0.5 * (math.copysign(1.0, a.re) < 0.0 or math.copysign(1.0, a.im) < 0.0)))


@settings(max_examples=300, deadline=None)
@given(st.builds(
    ExperimentConfig, splitter1=_CACHED_SPLITTERS, splitter2=_CACHED_SPLITTERS,
    phase=st.floats(-1e300, 1e300),
    detector_model=st.sampled_from(list(DetectorModel))))
def test_rules_see_the_amplitudes_of_the_full_graph(config):
    # The reduced lower arm and the unchecked plate and nodes hand a rule the
    # amplitudes the oracle's full graph does, bit for bit.
    assert (_bits(simulate(config, _SIGN_READING))
            == _bits(oracle.simulate_amplitude(config, _SIGN_READING)))

@pytest.mark.parametrize("model", [DetectorModel.NONE,
                                   DetectorModel.NON_DEMOLISHING_RECORDING])
def test_a_graph_path_phase_builds_no_checked_node_and_walks_four_nodes(
        monkeypatch, model):
    # Each outcome is a Branch over the upper arm, one three-leg Sequence
    # built per phase without its checks, and the cached lower arm, reduced
    # to one leaf.  Walking an outcome visits its Branch and the upper arm;
    # leaves are read in place.
    config = ExperimentConfig(splitter1=0.3, splitter2=0.6, detector_model=model)
    expected = simulate(config)  # fills the _fixed_parts entry
    counts = {"Sequence": 0, "_pairs": 0}
    build, walk = amplitudes.Sequence.__post_init__, amplitudes._pairs

    def counted_build(self):
        counts["Sequence"] += 1
        build(self)

    def counted_walk(g):
        counts["_pairs"] += 1
        return walk(g)

    monkeypatch.setattr(amplitudes.Sequence, "__post_init__", counted_build)
    monkeypatch.setattr(amplitudes, "_pairs", counted_walk)
    assert simulate(config) == expected
    assert counts == {"Sequence": 0, "_pairs": 4}


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
    assert tuple(simulate(fast)) == tuple(simulate(slow))


def _reference_classical(config):
    # The classical path before its tuple kernel: a generator over
    # the zipped per-path splits, normalized into the frozen dataclass
    # through its own constructor.
    T1, T2 = config.splitter1, config.splitter2
    if config.mixture_weights is not None:
        w_upper, w_lower = config.mixture_weights
    else:
        w_upper, w_lower = T1, 1.0 - T1
    R2 = 1.0 - T2
    p_upper, p_lower = (R2, T2, 0.0), (T2, R2, 0.0)
    if config.blocked_arm is BlockedArm.UPPER:
        p_upper = (0.0, 0.0, 1.0)
    elif config.blocked_arm is BlockedArm.LOWER:
        p_lower = (0.0, 0.0, 1.0)
    w_d0, w_d1, w_absorbed = tuple(w_upper * u + w_lower * v
                                   for u, v in zip(p_upper, p_lower))
    total = w_d0 + w_d1 + w_absorbed
    p0, p1, pa = w_d0 / total, w_d1 / total, w_absorbed / total
    detected = p0 + p1
    if detected > 0.0:
        cond0, cond1 = p0 / detected, p1 / detected
    else:
        cond0 = cond1 = None
    return OutcomeDistribution(p0, p1, pa, cond0, cond1)


@settings(max_examples=400, deadline=None)
@given(valid_configs(), st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_classical_kernel_matches_the_generator_formula_bit_for_bit(config, p, q):
    config = _at_phase(config, p)
    expected = _reference_classical(config)
    if (config.composition is Composition.CLASSICAL_MIXTURE
            or config.blocked_arm is not BlockedArm.NONE):
        got = simulate(config)
        assert type(got) is OutcomeDistribution
        assert got == expected
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(tuple(got)) == repr(tuple(expected))
    # The tuple kernel, handed the resolved scalars, at the config's phase
    # and at an unrelated one.
    T1 = config.splitter1
    weights = config.mixture_weights
    w_upper, w_lower = (T1, 1.0 - T1) if weights is None else weights
    for phase in (config.phase, q):
        got = _classical_outcome(w_upper, w_lower, config.splitter2,
                                 config.blocked_arm, phase)
        assert repr(got) == repr(tuple(expected))


@dataclasses.dataclass(frozen=True)
class _OldOutcome:
    # OutcomeDistribution as the frozen dataclass it was before it became
    # the named tuple its kernels return.
    p_d0: float
    p_d1: float
    p_absorbed: float
    p_d0_given_detected: float | None
    p_d1_given_detected: float | None


def _every_bit(values) -> list:
    # Each field's eight bytes, so a nan keeps its sign and payload.
    return [None if v is None else struct.pack("<d", v) for v in values]


_PROBABILITY = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan]))
_CONDITIONAL = st.one_of(st.none(), _PROBABILITY)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_PROBABILITY, _PROBABILITY, _PROBABILITY, _CONDITIONAL,
                 _CONDITIONAL))
def test_outcome_keeps_the_dataclass_behaviours(fields):
    names = [f.name for f in dataclasses.fields(_OldOutcome)]
    assert list(OutcomeDistribution._fields) == names
    d, old = OutcomeDistribution(*fields), _OldOutcome(*fields)
    by_name = OutcomeDistribution(**dict(zip(names, fields)))
    assert _every_bit(by_name) == _every_bit(d) == _every_bit(fields)
    # A nan equals itself only as the same object, in both types.
    fresh = tuple(None if v is None else v + 0.0 for v in fields)
    assert (d == by_name) is (old == _OldOutcome(*fields)) is True
    assert (d == OutcomeDistribution(*fresh)) is (old == _OldOutcome(*fresh))
    assert hash(d) == hash(old)
    assert repr(d) == repr(old).replace("_OldOutcome", "OutcomeDistribution")
    with pytest.raises(AttributeError):
        d.p_d0 = 0.5
    for copied in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert type(copied) is OutcomeDistribution
        assert _every_bit(copied) == _every_bit(d)
    with pytest.raises(TypeError):
        OutcomeDistribution._make(fields[:4])


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_simulate_returns_the_kernel_tuple_it_wraps(config):
    # On either path the outcome is the kernel's own tuple, field for field.
    kernels = ("_classical_outcome", "_normalized")
    returned = []

    def recording(kernel):
        def wrapper(*args):
            returned.append(kernel(*args))
            return returned[-1]
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in kernels:
            patch.setattr(interference, name,
                          recording(getattr(interference, name)))
        got = simulate(config)
    assert type(got) is OutcomeDistribution
    assert type(returned[-1]) is tuple and _bits(got) == _bits(returned[-1])


@settings(max_examples=200, deadline=None)
@given(valid_configs(), st.one_of(st.none(), st.floats(1e-3, 1e300)),
       st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=2, max_size=5))
def test_normalized_is_handed_only_finite_nonnegative_floats(config, scale, phis):
    # Why _normalized tests only the sum: every weight it is handed, on
    # either path, under the default rule or a scaled one, in a sweep and in
    # a no-go search, is already a finite float >= 0.
    rule = SQUARED_NORM if scale is None else ProbabilityRule(
        "scaled", lambda a: scale * norm_squared(a))
    normalized, seen = interference._normalized, []

    def recording(*weights):
        seen.append(weights)
        return normalized(*weights)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(interference, "_normalized", recording)
        simulate(config, rule)
        phase_sweep(config, phis, rule)
        no_go_search(phis, 2)
    assert len(seen) == 1 + len(phis) + 25 * len(phis)
    assert all(type(w) is float and 0.0 <= w < math.inf
               for weights in seen for w in weights)


_BIG = 10 ** 400

# One row per entry point: the call of one bad value, the exact error class
# and the exact message, formatted with the value.  Every row runs on each
# value of _NONFINITE; the 10**400 case keeps the row's bare id.
_ENTRY_POINTS = [
    ("phase_sweep", lambda v: phase_sweep(ExperimentConfig(), [v]),
     ConfigError, "phase: must be finite"),
    ("no_go_search", lambda v: no_go_search([v, 0.0], 3),
     ConfigError, "phase: must be finite"),
    ("check_O1_robustness", lambda v: check_O1_robustness([0.0, v]),
     ConfigError, "phase: must be finite"),
    ("carrier_minimality_check", lambda v: carrier_minimality_check([v]),
     AmplitudeError, "phase grid must be finite"),
    ("lorentz_boost", lambda v: lorentz_boost(SpacetimePoint(0.0, 0.0), v),
     SpeedDomainError, "V: must be finite"),
    ("velocity_addition", lambda v: velocity_addition(v, 0.1),
     SpeedDomainError, "V: must be finite"),
    ("boost_matrix", lambda v: boost_matrix(v),
     SpeedDomainError, "V: must be finite"),
    ("superluminal_matrix", lambda v: superluminal_matrix(v, 1),
     SpeedDomainError, "V: must be finite"),
    ("classify_cone_preserver",
     lambda v: classify_cone_preserver([[1.0, v], [0.0, 1.0]]),
     KinematicsError, "linear_part: must be a 2x2 (1+1) or 4x4 (1+3) "
     "matrix of finite numbers"),
    ("classify_cone_preserver.c",
     lambda v: classify_cone_preserver(np.eye(2), v), KinematicsError,
     "c: must be positive with a finite nonzero square, got {!r}"),
    ("SpacetimePoint.t", lambda v: SpacetimePoint(v, 0.0),
     KinematicsError, "event coordinates must be finite"),
    ("SpacetimePoint.x", lambda v: SpacetimePoint(0.0, v),
     KinematicsError, "event coordinates must be finite"),
    ("Worldline.taus", lambda v: Worldline(
        [SpacetimePoint(0.0, 0.0), SpacetimePoint(1.0, 0.0)], [0.0, v]),
     KinematicsError, "tau labels must be finite"),
    ("Amplitude", lambda v: Amplitude(0.3, v),
     AmplitudeError, "amplitude components must be finite"),
    ("phase", lambda v: phase(v), AmplitudeError, "phase must be finite"),
    ("FrameMap.boost", lambda v: FrameMap.boost(v),
     SpeedDomainError, "V: must be finite"),
    ("check_O3_frame_invariance",
     lambda v: check_O3_frame_invariance(ExperimentConfig(), [0.3, v]),
     SpeedDomainError, "V: must be finite"),
    ("interferometer_events", lambda v: interferometer_events(v),
     KinematicsError,
     "c: must be positive with a finite nonzero square, got {!r}"),
]

_NONFINITE = [(_BIG, None), (-_BIG, "-10**400"), (math.nan, "nan"),
              (math.inf, "inf"), (-math.inf, "-inf")]


@pytest.mark.parametrize("call, value, error, message", [
    pytest.param(call, value, error, message,
                 id=name if suffix is None else f"{name}-{suffix}")
    for name, call, error, message in _ENTRY_POINTS
    for value, suffix in _NONFINITE])
def test_entry_points_name_an_int_too_large_for_a_float(call, value, error,
                                                        message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


# A str or a bool is not a number: each row names it with its finiteness
# error, except the sites that tell a non-number from a nonfinite number.
_NOT_A_NUMBER = {
    "SpacetimePoint.t": (KinematicsError, "event coordinates must be numbers"),
    "SpacetimePoint.x": (KinematicsError, "event coordinates must be numbers"),
    "FrameMap.boost": (KinematicsError, "V: must be a number"),
    "check_O3_frame_invariance": (KinematicsError, "V: must be a number"),
}


@pytest.mark.parametrize("call, value, error, message", [
    pytest.param(call, value, *_NOT_A_NUMBER.get(name, (error, message)),
                 id=f"{name}-{suffix}")
    for name, call, error, message in _ENTRY_POINTS
    for value, suffix in (("0.5", "str"), (True, "bool"))])
def test_entry_points_name_a_non_number(call, value, error, message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


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



@pytest.mark.parametrize("T1, T2", [(0.3, 0.7), (0.2, 0.9)])
def test_visibility_between_its_extremes(T1, T2):
    # Unbalanced splitters: p_d0 swings between (sqrt(a) -+ sqrt(b))**2, so
    # the contrast is 2*sqrt(a*b)/(a+b), neither 0 nor 1.
    a, b = T1 * (1.0 - T2), (1.0 - T1) * T2
    sweep = phase_sweep(ExperimentConfig(splitter1=T1, splitter2=T2),
                        uniform_phase_grid(64))
    expected = 2.0 * math.sqrt(a * b) / (a + b)
    assert abs(visibility(sweep) - expected) <= REL_TOL_ALGEBRA

def test_visibility_of_an_empty_sweep_is_an_error():
    with pytest.raises(ConfigError) as info:
        visibility([])
    assert str(info.value) == "visibility needs a nonempty sweep"


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



@pytest.mark.parametrize("resolution", [2, 11])
def test_no_go_weight_grid_reaches_both_ends(monkeypatch, resolution):
    seen = collections.Counter()
    phased = []
    kernel = interference._classical_outcome

    def recording(w_upper, w_lower, T2, blocked, phase):
        args = (w_upper, w_lower, T2, blocked, phase)
        # An argument with a phase field could hand the kernel a stale phase.
        phased.extend(a for a in args if hasattr(a, "phase"))
        seen[(w_upper, w_lower), phase] += 1
        return kernel(*args)

    monkeypatch.setattr(interference, "_classical_outcome", recording)
    phis = uniform_phase_grid(8)
    no_go_search(phis, resolution)
    assert phased == []
    steps = resolution - 1
    weights = {(k / steps, 1.0 - k / steps) for k in range(resolution)}
    assert {(0.0, 1.0), (1.0, 0.0)} <= weights
    # Each weight with its 12 blocking and detector variants, at every phase.
    assert seen == {(w, p): 12 for w in weights for p in phis}


def _old_no_go_search(phis, resolution):
    # no_go_search as it ran before rows were compared: every configuration's
    # row of kernel tuples goes through zip and max - min, column by column.
    phis = [float(p) for p in phis]
    steps = resolution - 1
    var_d0 = var_d1 = var_abs = 0.0
    count = 0
    for k in range(resolution):
        w = k / steps
        for blocked in BlockedArm:
            for model in DetectorModel:
                config = ExperimentConfig(
                    composition=Composition.CLASSICAL_MIXTURE,
                    mixture_weights=(w, 1.0 - w), blocked_arm=blocked,
                    detector_model=model)
                count += 1
                w_upper, w_lower = config.mixture_weights
                d0, d1, ab, _, _ = zip(*[
                    interference._classical_outcome(
                        w_upper, w_lower, config.splitter2, config.blocked_arm, p)
                    for p in phis])
                var_d0 = max(var_d0, max(d0) - min(d0))
                var_d1 = max(var_d1, max(d1) - min(d1))
                var_abs = max(var_abs, max(ab) - min(ab))
    overall = max(var_d0, var_d1, var_abs)
    vis = visibility(phase_sweep(ExperimentConfig(), phis))
    independent = overall == 0.0
    return interference.NoGoReport(
        resolution=resolution, phase_count=len(phis),
        classical_config_count=count, max_variation_d0=var_d0,
        max_variation_d1=var_d1, max_variation_absorbed=var_abs,
        max_classical_variation=overall, amplitude_visibility=vis,
        classical_phase_independent=independent,
        passed=independent and vis >= 1.0 - REL_TOL_ALGEBRA)


_NOGO_PHIS = uniform_phase_grid(32)


def _nudged_at(where):
    # The real kernel, with p_d0 moved by one part in 2**30 at one phase only.
    def kernel(w_upper, w_lower, T2, blocked, phase):
        p0, p1, pa, c0, c1 = _classical_outcome(w_upper, w_lower, T2, blocked, phase)
        return (p0 + 2.0 ** -30 if phase == where else p0), p1, pa, c0, c1
    return kernel


def _conditionals_reading(w_upper, w_lower, T2, blocked, phase):
    # Only the two conditional columns, which the search does not reduce,
    # follow the phase.
    p0, p1, pa, _, _ = _classical_outcome(w_upper, w_lower, T2, blocked, phase)
    return p0, p1, pa, phase, -phase


def _absorbed_as(make, where=None):
    # The real kernel, with p_absorbed replaced by make() at one phase, or at
    # every phase when where is None.
    def kernel(w_upper, w_lower, T2, blocked, phase):
        p0, p1, pa, c0, c1 = _classical_outcome(w_upper, w_lower, T2, blocked, phase)
        return p0, p1, (make() if where in (None, phase) else pa), c0, c1
    return kernel


_SPECIALS = {"shared-nan": lambda: math.nan, "fresh-nan": lambda: float("nan"),
             "inf": lambda: math.inf, "-inf": lambda: -math.inf,
             "-0.0": lambda: -0.0}
_NOGO_KERNELS = {
    "real": _classical_outcome,
    "phase-reading": _phase_reading_classical,
    "last-phase": _nudged_at(_NOGO_PHIS[-1]),
    "middle-phase": _nudged_at(_NOGO_PHIS[16]),
    "conditionals": _conditionals_reading,
    **{f"absorbed-{name}-everywhere": _absorbed_as(make)
       for name, make in _SPECIALS.items()},
    **{f"absorbed-{name}-at-middle": _absorbed_as(make, _NOGO_PHIS[16])
       for name, make in _SPECIALS.items()},
}


def _fields(report):
    # repr tells -0.0 from 0.0 and shows nan.
    return {f.name: repr(getattr(report, f.name)) for f in dataclasses.fields(report)}


@pytest.mark.parametrize("kernel, resolution",
                         [("real", 2), ("real", 11), ("real", 101)]
                         + [(name, 11) for name in _NOGO_KERNELS if name != "real"])
def test_no_go_report_is_the_old_row_reduction(monkeypatch, kernel, resolution):
    monkeypatch.setattr(interference, "_classical_outcome", _NOGO_KERNELS[kernel])
    assert (_fields(no_go_search(_NOGO_PHIS, resolution))
            == _fields(_old_no_go_search(_NOGO_PHIS, resolution)))


@pytest.mark.parametrize("kernel", ["last-phase", "middle-phase"])
def test_no_go_search_sees_a_phase_leak_in_any_tuple_of_a_row(monkeypatch, kernel):
    # The old reduction finds these one-phase leaks too, so the report above
    # cannot match it by reading 0.0 for both.
    monkeypatch.setattr(interference, "_classical_outcome", _NOGO_KERNELS[kernel])
    report = no_go_search(_NOGO_PHIS, 11)
    assert report.max_variation_d0 > 0.0
    assert not report.classical_phase_independent and not report.passed


def test_no_go_search_input_guards():
    with pytest.raises(ConfigError):
        no_go_search([0.0], weight_grid_resolution=11)
    with pytest.raises(ConfigError):
        no_go_search(uniform_phase_grid(4), weight_grid_resolution=1)


@pytest.mark.parametrize("bad", [3.0, 2.5, True, "3"])
def test_grid_sizes_must_be_integers(bad):
    with pytest.raises(ConfigError) as info:
        no_go_search(uniform_phase_grid(4), bad)
    assert str(info.value) == "weight grid resolution must be an integer"
    with pytest.raises(ConfigError) as info:
        uniform_phase_grid(bad)
    assert str(info.value) == "phase grid size must be an integer"
    assert uniform_phase_grid(np.int64(4)) == uniform_phase_grid(4)


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


def test_O1_report_needs_two_phases():
    with pytest.raises(ConfigError) as info:
        check_O1_robustness([0.0])
    assert str(info.value) == "robustness check needs at least two phases"


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


@pytest.mark.parametrize("c", [1.0, 0.0, -1.0])
def test_O3_rejects_an_empty_boost_list_for_any_c(c):
    with pytest.raises(ConfigError,
                       match="frame invariance check needs at least one boost"):
        check_O3_frame_invariance(ExperimentConfig(), [], c=c)


@pytest.mark.parametrize("c", [0.0, -1.0, 1e-200])
def test_event_table_applies_the_frame_map_rule_for_c(c):
    message = f"c: must be positive with a finite nonzero square, got {c!r}"
    with pytest.raises(KinematicsError) as bench:
        interferometer_events(c)
    with pytest.raises(KinematicsError) as frame:
        FrameMap.identity(c)
    assert str(bench.value) == str(frame.value) == message


def test_a_numpy_integer_count_is_used_as_the_int_it_names():
    grid = uniform_phase_grid(np.int64(4))
    assert all(type(phi) is float for phi in grid)
    report = no_go_search(uniform_phase_grid(8), np.int64(5))
    assert type(report.resolution) is int
    assert dump_json(dataclasses.asdict(report)) == dump_json(
        dataclasses.asdict(no_go_search(uniform_phase_grid(8), 5)))
