"""Unit tests for the planar amplitude carrier, graphs, and probability rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amplitude_oracle as oracle

from fringelab.amplitudes import (
    UNIT,
    ZERO,
    Amplitude,
    AmplitudeError,
    Branch,
    CarrierMinimalityReport,
    DegenerateOutcomesError,
    GraphStructureError,
    ProbabilityRule,
    SQUARED_NORM,
    Sequence,
    carrier_minimality_check,
    check_global_phase_invariance,
    components,
    concat,
    evaluate,
    evaluate_outcomes,
    norm_squared,
    phase,
    sum_alternatives,
)
from fringelab.interference import ExperimentConfig, simulate

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def amp(re, im=0.0):
    return Amplitude(re, im)


def test_amplitude_rejects_nonfinite_components():
    with pytest.raises(AmplitudeError):
        Amplitude(math.nan, 0.0)
    with pytest.raises(AmplitudeError):
        Amplitude(0.0, math.inf)


def test_amplitude_rejects_an_int_too_large_for_a_float():
    with pytest.raises(AmplitudeError, match="must be finite"):
        Amplitude(10 ** 400)
    with pytest.raises(AmplitudeError, match="must be finite"):
        Amplitude(0.0, -10 ** 400)


def test_phase_rejects_an_int_too_large_for_a_float():
    with pytest.raises(AmplitudeError, match="must be finite"):
        phase(10 ** 400)


def test_phase_endpoints():
    assert phase(0.0) == Amplitude(1.0, 0.0)
    p = phase(math.pi)
    assert p.re == -1.0
    assert abs(p.im) < 1e-15
    with pytest.raises(AmplitudeError):
        phase(math.inf)


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_phase_group_law(a, b):
    lhs = concat(phase(a), phase(b))
    rhs = phase(a + b)
    assert abs(lhs.re - rhs.re) <= 1e-12
    assert abs(lhs.im - rhs.im) <= 1e-12


def test_phase_action_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = Amplitude(*rng.uniform(-3, 3, 2))
        phi = rng.uniform(0, 2 * math.pi)
        assert abs(norm_squared(concat(phase(phi), a)) - norm_squared(a)) <= 1e-12


def test_sum_is_commutative_with_zero_identity():
    a, b = amp(0.3, -0.2), amp(-1.1, 0.9)
    assert sum_alternatives(a, b) == sum_alternatives(b, a)
    assert sum_alternatives(a, ZERO) == a


def test_opposite_phases_cancel_exactly():
    s = sum_alternatives(phase(0.0), Amplitude(-1.0, -0.0))
    assert s.re == 0.0 and s.im == 0.0


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_concat_associative(ar, ai, br, bi, cr, ci):
    a, b, c = Amplitude(ar, ai), Amplitude(br, bi), Amplitude(cr, ci)
    lhs = concat(concat(a, b), c)
    rhs = concat(a, concat(b, c))
    scale = 1.0 + abs(lhs.re) + abs(lhs.im)
    assert abs(lhs.re - rhs.re) <= 1e-12 * scale
    assert abs(lhs.im - rhs.im) <= 1e-12 * scale


def test_concat_unit_identity():
    a = amp(0.6, 0.8)
    assert concat(a, UNIT) == a
    assert concat(UNIT, a) == a


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_concat_distributes_over_sum(ar, ai, br, bi, cr, ci):
    a, b, c = Amplitude(ar, ai), Amplitude(br, bi), Amplitude(cr, ci)
    lhs = concat(c, sum_alternatives(a, b))
    rhs = sum_alternatives(concat(c, a), concat(c, b))
    scale = 1.0 + abs(lhs.re) + abs(lhs.im)
    assert abs(lhs.re - rhs.re) <= 1e-12 * scale
    assert abs(lhs.im - rhs.im) <= 1e-12 * scale


def test_graph_node_validation():
    with pytest.raises(GraphStructureError):
        Sequence(())
    with pytest.raises(GraphStructureError):
        Branch((UNIT,), distinguishable=False)
    with pytest.raises(GraphStructureError,
                       match="^expected a graph node, got str$"):
        Sequence((UNIT, "junk"))
    with pytest.raises(GraphStructureError,
                       match="^expected a graph node, got NoneType$"):
        Branch((UNIT, None), True)


def test_an_amplitude_is_a_graph_leaf():
    assert evaluate(UNIT) == 1.0
    assert components(phase(0.5)) == (phase(0.5),)


def test_components_of_plain_shapes():
    assert components(amp(0.6, 0.8)) == (amp(0.6, 0.8),)
    seq = Sequence((phase(0.5), phase(0.25)))
    (got,) = components(seq)
    want = phase(0.75)
    assert abs(got.re - want.re) <= 1e-12 and abs(got.im - want.im) <= 1e-12


def test_indistinguishable_branch_sums_amplitudes():
    g = Branch((phase(0.0), phase(math.pi)), distinguishable=False)
    (total,) = components(g)
    assert abs(total.re) <= 1e-15 and abs(total.im) <= 1e-15
    assert evaluate(g) <= 1e-30


def test_distinguishable_branch_adds_weights():
    g = Branch((phase(0.0), phase(math.pi)), distinguishable=True)
    assert components(g) == (phase(0.0), phase(math.pi))
    assert evaluate(g) == 2.0


def test_single_leaf_weight():
    assert evaluate(amp(0.6, 0.8)) == pytest.approx(1.0, rel=1e-15)


def test_sequence_distributes_across_distinguishable_children():
    recorded = Branch((phase(0.0), phase(math.pi)),
                      distinguishable=True)
    g = Sequence((amp(0.5), recorded))
    comps = components(g)
    assert len(comps) == 2
    assert evaluate(g) == pytest.approx(0.5, rel=1e-12)


def test_summing_over_recorded_alternatives_is_rejected():
    recorded = Branch((UNIT, UNIT), distinguishable=True)
    g = Branch((recorded, UNIT), distinguishable=False)
    with pytest.raises(GraphStructureError):
        components(g)


def test_evaluate_outcomes_normalizes():
    out = evaluate_outcomes({
        "a": amp(1.0),
        "b": amp(1.0, 1.0),
        "c": amp(1.0, math.sqrt(2.0)),
    })
    assert math.isclose(sum(out.values()), 1.0, rel_tol=1e-12)
    assert out["a"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert out["b"] == pytest.approx(2.0 / 6.0, rel=1e-12)


def test_evaluate_outcomes_degenerate_error():
    cancel = Branch((phase(0.0), Amplitude(-1.0, 0.0)),
                    distinguishable=False)
    with pytest.raises(DegenerateOutcomesError):
        evaluate_outcomes({"only": cancel})
    with pytest.raises(GraphStructureError):
        evaluate_outcomes({})


_BIG = ProbabilityRule("big", lambda a: 1e308)


@pytest.mark.parametrize("call", [
    lambda: evaluate(Branch((UNIT, UNIT), True), _BIG),
    lambda: evaluate_outcomes({"a": UNIT, "b": UNIT}, _BIG),
], ids=["evaluate", "evaluate_outcomes"])
def test_a_weight_sum_past_the_largest_float_is_named(call):
    with pytest.raises(AmplitudeError) as info:
        call()
    assert type(info.value) is AmplitudeError
    assert str(info.value) == "rule weights sum past the largest float"


def test_classical_mixture_differs_from_coherent_sum():
    # Two unit paths with relative phase pi: coherent weight 0, while every
    # convex mixture of the per-path weights equals 1.
    coherent = Branch((phase(0.0), phase(math.pi)),
                      distinguishable=False)
    per_path = [evaluate(phase(0.0)), evaluate(phase(math.pi))]
    for w in np.linspace(0.0, 1.0, 11):
        mixture = w * per_path[0] + (1 - w) * per_path[1]
        assert abs(evaluate(coherent) - mixture) > 0.5


def test_classical_mixture_is_blind_to_single_leaf_phase():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = Amplitude(*rng.uniform(-2, 2, 2))
        b = Amplitude(*rng.uniform(-2, 2, 2))
        phi = rng.uniform(0, 2 * math.pi)
        plain = Branch((a, b), distinguishable=True)
        shifted = Branch((Sequence((phase(phi), a)), b),
                         distinguishable=True)
        assert abs(evaluate(plain) - evaluate(shifted)) <= 1e-12


def test_rule_rejects_negative_or_nonfinite_weights():
    bad = ProbabilityRule("test-bad", lambda a: -1.0)
    with pytest.raises(AmplitudeError):
        bad(UNIT)


@pytest.mark.parametrize("weight, shown", [
    (-1.0, "-1.0"), (-2, "-2.0"), (math.nan, "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (np.float64("nan"), "nan"),
    (10 ** 400, "too large for a float"), (-10 ** 400, "too large for a float"),
], ids=["negative", "negative-int", "nan", "inf", "-inf", "numpy-nan",
        "10**400", "-10**400"])
def test_rule_names_every_invalid_weight(weight, shown):
    rule = ProbabilityRule("big", lambda a: weight)
    with pytest.raises(AmplitudeError) as info:
        rule(UNIT)
    assert type(info.value) is AmplitudeError
    assert str(info.value) == f"rule 'big' produced an invalid weight {shown}"


@pytest.mark.parametrize("weight", ["0.5", True, None, [0.5]])
def test_rule_names_a_weight_that_is_not_a_number(weight):
    rule = ProbabilityRule("odd", lambda a: weight)
    with pytest.raises(AmplitudeError) as info:
        rule(UNIT)
    assert type(info.value) is AmplitudeError
    assert str(info.value) == (
        f"rule 'odd' produced an invalid weight {weight!r}")


def _evaluate_with_numpy_raising(rule):
    # Under errstate(divide="raise") a numpy division by zero raises
    # FloatingPointError, the third kind of ArithmeticError.
    with np.errstate(divide="raise"):
        return evaluate(UNIT, rule)


@pytest.mark.parametrize("run, cause", [
    (lambda: evaluate(UNIT, ProbabilityRule(
        "exp", lambda a: math.exp(1000.0))), OverflowError),
    (lambda: simulate(ExperimentConfig(), ProbabilityRule(
        "exp", lambda a: 1 / 0)), ZeroDivisionError),
    (lambda: _evaluate_with_numpy_raising(ProbabilityRule(
        "exp", lambda a: np.float64(1.0) / np.float64(0.0))),
     FloatingPointError),
], ids=["evaluate-overflow", "simulate-zero-division",
        "evaluate-floating-point"])
def test_rule_names_an_arithmetic_error_of_its_weight(run, cause):
    with pytest.raises(AmplitudeError) as info:
        run()
    assert type(info.value) is AmplitudeError
    assert type(info.value.__cause__) is cause
    assert str(info.value) == (
        f"rule 'exp' raised {info.value.__cause__!r}")


def test_rule_leaves_other_errors_of_its_weight_alone():
    rule = ProbabilityRule("key", lambda a: {}["k"])
    with pytest.raises(KeyError):
        rule(UNIT)


def test_rule_returns_a_float_for_a_valid_weight():
    for weight in (0, 1, 0.25, np.float64(0.5), 10 ** 300):
        value = ProbabilityRule("ok", lambda a: weight)(UNIT)
        assert type(value) is float and value == float(weight)


def test_global_phase_invariance_of_default_rule():
    assert check_global_phase_invariance(SQUARED_NORM, 1000,
                                         np.random.default_rng(0))


def test_global_phase_invariance_of_plain_norm():
    rule = ProbabilityRule("test-norm", lambda a: math.sqrt(norm_squared(a)))
    assert check_global_phase_invariance(rule, 500, np.random.default_rng(1))


def test_real_part_squared_rule_is_not_phase_invariant():
    rule = ProbabilityRule("test-re2", lambda a: a.re * a.re)
    assert not check_global_phase_invariance(rule, 500,
                                             np.random.default_rng(2))


def test_carrier_minimality_report():
    phis = [2.0 * math.pi * k / 16 for k in range(16)]
    report = carrier_minimality_check(phis)
    assert isinstance(report, CarrierMinimalityReport)
    assert report.passed
    assert not report.one_dimensional_success
    assert report.two_dimensional_invariant
    assert report.two_dimensional_alters
    by_s = {rec.exponent: rec for rec in report.actions}
    assert 0.0 in by_s
    trivial = by_s[0.0]
    assert trivial.phase_invariant and not trivial.alters_recombination
    stretch = by_s[1.0]
    assert not stretch.phase_invariant and stretch.alters_recombination
    assert not any(rec.satisfies_both for rec in report.actions)


def test_carrier_check_scaling_example():
    # Exponent 1 at phi = ln 2 scales a unit amplitude's squared weight by 4.
    a = 1.0
    acted = math.exp(1.0 * math.log(2.0)) * a
    assert math.isclose(acted * acted / (a * a), 4.0, rel_tol=1e-12)
    report = carrier_minimality_check([0.0, math.log(2.0)])
    rec = {r.exponent: r for r in report.actions}[1.0]
    assert not rec.phase_invariant


def test_carrier_check_rejects_empty_grid():
    with pytest.raises(AmplitudeError):
        carrier_minimality_check([])


@pytest.mark.parametrize("edge", [178.0, -178.0, 1e6])
def test_carrier_check_overflow_names_the_phase_grid(edge):
    # (1 + exp(2*phi))**2 overflows a float once |phi| passes about 177.4.
    with pytest.raises(AmplitudeError, match=r"phase grid spanning .* overflows"):
        carrier_minimality_check([0.0, edge])
    assert carrier_minimality_check([0.0, math.copysign(177.0, edge)]).actions


@pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
def test_global_phase_invariance_refuses_a_non_integer_trial_count(trials):
    with pytest.raises(AmplitudeError) as info:
        check_global_phase_invariance(SQUARED_NORM, trials,
                                      np.random.default_rng(0))
    assert str(info.value) == "trials must be an integer"


@pytest.mark.parametrize("flag", ["false", "", None, [], 0, 1, np.bool_(True)],
                         ids=["'false'", "''", "None", "[]", "0", "1", "np.bool_"])
def test_branch_distinguishable_must_be_a_bool(flag):
    children = (UNIT, Amplitude(-1.0, 0.0))
    with pytest.raises(GraphStructureError) as info:
        Branch(children, flag)
    assert str(info.value) == f"distinguishable: must be True or False, got {flag!r}"
    assert evaluate(Branch(children, True)) == 2.0
    assert evaluate(Branch(children, False)) == 0.0


# -- the pair walker against the Amplitude-based oracle ------------------------

# Signed zeros, subnormals, and magnitudes whose products (near 1e154) or
# sums (near 1e308) overflow, beside ordinary values.
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.5,
    1e154, -1e154, 1.5e154, 1e308, -1e308, 1.7976931348623157e308])
_FLOATS = st.one_of(_EDGE_FLOATS,
                    st.floats(-4.0, 4.0),
                    st.floats(allow_nan=False, allow_infinity=False))
_LEAVES = st.builds(Amplitude, _FLOATS, _FLOATS)
_GRAPHS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Sequence, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        st.builds(Branch, st.lists(kids, min_size=2, max_size=3).map(tuple),
                  st.booleans())),
    max_leaves=10)

# Reads the sign bits too, so a -0.0 handed over as 0.0 changes the weight.
_SIGNED_L1 = ProbabilityRule("signed-l1", lambda a: (
    abs(a.re) + abs(a.im) + 0.25 * (math.copysign(1.0, a.re) < 0.0)
    + 0.5 * (math.copysign(1.0, a.im) < 0.0)))


def _bits(x):
    if isinstance(x, float):
        return x.hex()
    return [(a.re.hex(), a.im.hex()) for a in x]


def _outcome(fn, *args):
    """fn's result as float bits, or the class and message of its error."""
    try:
        return _bits(fn(*args))
    except AmplitudeError as err:
        return type(err), str(err)


@given(_GRAPHS)
@example(Branch((Amplitude(-0.0, -0.0), Amplitude(-0.0, 0.0)),
                False))
@example(Sequence((Amplitude(1e154, 1e154),
                   Branch((UNIT, UNIT), True),
                   Branch((UNIT, UNIT), True))))
@example(Branch((Amplitude(1e308), Amplitude(1e308),
                 Branch((UNIT, UNIT), True)), False))
@settings(max_examples=400, deadline=None)
def test_pair_walker_matches_the_oracle_bit_for_bit(g):
    assert _outcome(components, g) == _outcome(oracle.components, g)
    for rule in (SQUARED_NORM, _SIGNED_L1):
        assert (_outcome(evaluate, g, rule)
                == _outcome(oracle.evaluate, g, rule))


@pytest.mark.parametrize("root", ["junk", None])
def test_a_root_that_is_not_a_graph_node_is_named(root):
    for call in (components, evaluate, oracle.components):
        with pytest.raises(GraphStructureError) as info:
            call(root)
        assert str(info.value) == (
            f"expected a graph node, got {type(root).__name__}")
