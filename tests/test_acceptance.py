"""Acceptance gate: one test per advertised guarantee, stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions, so a green run doubles as a checklist of the package-level
claims: exact blocked-arm probabilities, the interval flip, the classical
no-go contrast, cone-preserver classification, no-branching, the amplitude
axioms, byte-level determinism, and mutation sensitivity of the flip suite
and of every check in the mutation table.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import fringelab.amplitudes as amplitudes
import fringelab.checks as checks
import fringelab.interference as interference
import fringelab.kinematics as kinematics
from fringelab.amplitudes import (
    Amplitude,
    ProbabilityRule,
    SQUARED_NORM,
    carrier_minimality_check,
    check_global_phase_invariance,
    concat,
    phase,
    sum_alternatives,
)
from fringelab.checks import (
    CheckContext,
    perturbed_noncone_map,
    random_conformal_lorentz_4d,
    random_invertible_frame_map,
    random_simple_worldline,
    run_checks,
)
from fringelab.cli import main
from fringelab.interference import (
    BlockedArm,
    ExperimentConfig,
    OutcomeDistribution,
    no_go_search,
    simulate,
    uniform_phase_grid,
)
from fringelab.kinematics import (
    ConeClass,
    FrameMap,
    SpacetimePoint,
    Worldline,
    check_no_branching,
    classify_cone_preserver,
    event_interval,
    lorentz_boost,
    superluminal_map,
)


def test_criterion_1_blocked_arm_probabilities_exact():
    start = time.perf_counter()
    for arm in (BlockedArm.UPPER, BlockedArm.LOWER):
        for phi in uniform_phase_grid(64):
            d = simulate(ExperimentConfig(blocked_arm=arm, phase=phi))
            assert d.p_d0 == 0.25
            assert d.p_d1 == 0.25
            assert d.p_absorbed == 0.5
            assert d.p_d0_given_detected == 0.5
            assert d.p_d1_given_detected == 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS  criterion 1: blocked-arm probabilities exactly "
          f"(1/4, 1/4, 1/2) with 1/2 conditionals over 64 phases, both arms "
          f"({elapsed:.2f}s)")


def test_criterion_2_interval_flip_ten_thousand_events():
    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    worst_flip = 0.0
    worst_keep = 0.0
    for _ in range(10_000):
        t, x = rng.normal(size=2) * 5.0
        p = SpacetimePoint(float(t), float(x))
        scale = t * t + x * x
        interval = event_interval(p)
        V = float(np.exp(rng.uniform(np.log(1.001), np.log(100.0))))
        if rng.random() < 0.5:
            V = -V
        for eta in (1, -1):
            q = superluminal_map(p, V, eta)
            worst_flip = max(worst_flip,
                             abs(event_interval(q) + interval) / scale)
        u = float(rng.uniform(-0.99, 0.99))
        b = lorentz_boost(p, u)
        worst_keep = max(worst_keep,
                         abs(event_interval(b) - interval) / scale)
    elapsed = time.perf_counter() - start
    assert worst_flip <= 1e-12
    assert worst_keep <= 1e-12
    assert elapsed < 1.0
    print(f"PASS  criterion 2: interval negated for 10000 events, both "
          f"signs, worst rel err {worst_flip:.2e} (flip) / {worst_keep:.2e} "
          f"(subluminal), ({elapsed:.2f}s)")


def test_criterion_3_no_go_contrast():
    start = time.perf_counter()
    report = no_go_search(uniform_phase_grid(32), weight_grid_resolution=101)
    elapsed = time.perf_counter() - start
    assert report.max_classical_variation == 0.0
    assert report.amplitude_visibility >= 1.0 - 1e-12
    assert report.passed
    assert elapsed < 5.0
    print(f"PASS  criterion 3: classical variation exactly 0 over "
          f"{report.classical_config_count} configs, amplitude visibility "
          f"{report.amplitude_visibility:.15f} ({elapsed:.2f}s)")


def test_criterion_4_cone_preserver_classification():
    rng = np.random.default_rng(41)
    misclassified = 0
    for _ in range(1000):
        lin, _ = random_conformal_lorentz_4d(rng)
        if classify_cone_preserver(lin).kind is not ConeClass.CONFORMAL_LORENTZ:
            misclassified += 1
    for _ in range(100):
        V = float(np.exp(rng.uniform(np.log(1.001), np.log(100.0))))
        if rng.random() < 0.5:
            V = -V
        for eta in (1, -1):
            fm = FrameMap.superluminal(V, eta)
            if classify_cone_preserver(fm.linear_part).kind is not ConeClass.SIGN_FLIP:
                misclassified += 1
    for _ in range(100):
        fm = perturbed_noncone_map(rng)
        if (classify_cone_preserver(fm.linear_part).kind
                is not ConeClass.NOT_CONE_PRESERVING):
            misclassified += 1
    assert misclassified == 0
    print("PASS  criterion 4: 1000 conformal + 200 sign-flip + 100 "
          "perturbed maps, zero misclassifications")


def test_criterion_5_no_branching_under_invertible_maps():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        line = random_simple_worldline(rng)
        fm = random_invertible_frame_map(rng)
        assert check_no_branching(line, fm)
    crossing = Worldline(
        [SpacetimePoint(0.0, 0.0), SpacetimePoint(1.0, 1.0),
         SpacetimePoint(1.0, 0.0), SpacetimePoint(0.0, 1.0)],
        check_simple=False)
    assert not check_no_branching(crossing, FrameMap.identity())
    print("PASS  criterion 5: 1000 simple worldlines stay simple under "
          "random invertible maps; the crossing fixture is rejected")


def test_criterion_6_amplitude_axioms_and_carrier():
    rng = np.random.default_rng(61)

    def draw():
        return Amplitude(float(rng.uniform(-2.0, 2.0)),
                         float(rng.uniform(-2.0, 2.0)))

    def close(a, b):
        return abs(a.re - b.re) <= 1e-12 and abs(a.im - b.im) <= 1e-12

    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        assert close(concat(a, sum_alternatives(b, c)),
                     sum_alternatives(concat(a, b), concat(a, c)))
        assert close(concat(concat(a, b), c), concat(a, concat(b, c)))
        u = float(rng.uniform(0.0, 2.0 * math.pi))
        v = float(rng.uniform(0.0, 2.0 * math.pi))
        assert close(concat(phase(u), phase(v)), phase(u + v))
    assert check_global_phase_invariance(SQUARED_NORM, trials=1000,
                                         rng=np.random.default_rng(62))
    report = carrier_minimality_check(uniform_phase_grid(32))
    assert not report.one_dimensional_success
    assert not any(rec.satisfies_both for rec in report.actions)
    assert report.two_dimensional_invariant
    assert report.two_dimensional_alters
    assert report.passed
    print("PASS  criterion 6: distributivity, associativity, phase group "
          "law, and global-phase invariance hold on 1000 trials at 1e-12; "
          "no 1D exponential action works")


def test_criterion_7_check_reports_are_byte_identical(tmp_path):
    first = tmp_path / "report_a.json"
    second = tmp_path / "report_b.json"
    assert main(["check", "--seed", "42", "--out", str(first)]) == 0
    assert main(["check", "--seed", "42", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    print(f"PASS  criterion 7: two 'check --seed 42' runs wrote "
          f"{first.stat().st_size} identical bytes")


def test_criterion_8_flip_suite_catches_sign_mutation(monkeypatch):
    baseline = run_checks(CheckContext(seed=8, trials=60), "interval-flip")
    assert all(r.passed for r in baseline)

    def mutated_matrix(V, eta, c=1.0):
        # same map but with the sign of the V/c^2 coupling flipped
        g = 1.0 / math.sqrt(V * V / (c * c) - 1.0)
        return eta * g * np.array([[1.0, V / (c * c)], [-V, 1.0]])

    monkeypatch.setattr(kinematics, "superluminal_matrix", mutated_matrix)
    p = SpacetimePoint(0.3, 1.7)
    q = superluminal_map(p, 2.0, 1)
    violation = abs(event_interval(q) + event_interval(p)) / (0.3**2 + 1.7**2)
    assert violation > 1e-6
    mutated = run_checks(CheckContext(seed=8, trials=60), "interval-flip")
    failed = [r.id for r in mutated if not r.passed]
    assert "superluminal-interval-flip" in failed
    print(f"PASS  criterion 8: sign mutation drives flip residual to "
          f"{violation:.3f} and fails {failed}")


# Mutation table, keyed by check id: the module and the name of the function
# the check guards, and a mutant of it under which the check must FAIL.

def _squared_root_splits(T2):
    # Each split as the square of its square root: 0.5 -> 0.5000000000000001.
    T, R = math.sqrt(T2) ** 2, math.sqrt(1.0 - T2) ** 2
    return (R, T, 0.0), (T, R, 0.0)


_classical = interference._simulate_classical


def _phase_reading_classical(config):
    d = _classical(config)
    return OutcomeDistribution.from_weights(
        d.p_d0 + 1e-3 * (1.0 + math.sin(config.phase)), d.p_d1, d.p_absorbed)


def _x_dropping_no_branching(w, m):
    # The image with its x column zeroed: the worldline folds onto the t axis.
    pts = w.points_array() @ m.linear_part.T + m.translation
    pts[:, 1] = 0.0
    return kinematics.polyline_is_simple(pts)


def _gamma_free_boost(p, V, c=1.0):
    # The boost without its gamma factor: it scales every interval by 1/g^2.
    return SpacetimePoint(p.t - V * p.x / (c * c), p.x - V * p.t)


_superluminal_matrix = kinematics.superluminal_matrix


def _eta_blind_superluminal_matrix(V, eta, c=1.0):
    # Always the eta = +1 branch, which still negates every interval.
    return _superluminal_matrix(V, 1, c)


def _past_segment_with_the_event(w, e_index):
    # The prefix through the event's own vertex, not strictly before it.
    return Worldline(w.vertices[:e_index + 1], w.taus[:e_index + 1])


def _always(kind):
    return lambda m: kinematics.ConeClassification(kind, 1.0)


def _magnitude_weight_evaluate(g, rule=SQUARED_NORM):
    # Each component weighted by |a| instead of the rule's |a|^2.
    return math.fsum(math.hypot(a.re, a.im) for a in amplitudes.components(g))


_concat = amplitudes.concat


def _im_skewed_concat(a, b):
    # The carrier product plus 1e-3*a.re on its imaginary part.
    p = _concat(a, b)
    return Amplitude(p.re, p.im + 1e-3 * a.re)


def _re_shifted_concat(a, b):
    # The carrier product plus 1e-3 on its real part.
    p = _concat(a, b)
    return Amplitude(p.re + 1e-3, p.im)


def _raw_evaluate_outcomes(outcomes, rule=SQUARED_NORM):
    # Each outcome's raw weight, never divided by the total.
    return {name: amplitudes.evaluate(g, rule) for name, g in outcomes.items()}


def _time_order_classify_interval(a, b, c=1.0):
    # Classes read off coordinate-time order, which a boost can change.
    return (kinematics.IntervalKind.TIMELIKE if b.t != a.t
            else kinematics.IntervalKind.SPACELIKE)


_search_calls = itertools.count(1)


def _drifting_no_go_search(phis, resolution):
    # Hidden state: each call's report counts one config more than the last.
    report = interference.no_go_search(phis, resolution)
    return dataclasses.replace(report, classical_config_count=(
        report.classical_config_count + next(_search_calls)))


MUTATIONS = {
    "blocked-arm-exact": (interference, "_per_path_splits", _squared_root_splits),
    "classical-no-go": (interference, "_simulate_classical",
                        _phase_reading_classical),
    "velocity-addition-consistency": (checks, "velocity_addition",
                                      lambda V1, V2, c=1.0: V1 + V2),
    "superluminal-composition-closure": (checks, "compose", lambda f, g: f),
    "worldline-no-branching": (checks, "check_no_branching",
                               _x_dropping_no_branching),
    "phase-group-law": (checks, "phase", lambda phi: Amplitude(
        math.cos(phi), math.sin(phi) * (1.0 + 1e-9))),
    "carrier-minimality": (amplitudes, "sum_alternatives", lambda a, b: a),
    "causal-past-boost-invariance": (checks, "in_causal_past",
                                     lambda e, cand, c=1.0: cand.t <= e.t),
    "boost-interval-invariance": (checks, "lorentz_boost", _gamma_free_boost),
    "cone-preserver-classification": (checks, "classify_cone_preserver",
                                      _always(ConeClass.CONFORMAL_LORENTZ)),
    "no-sign-flip-in-four-dimensions": (checks, "classify_cone_preserver",
                                        _always(ConeClass.SIGN_FLIP)),
    "null-line-sampling-agreement": (checks, "preserves_null_lines",
                                     lambda m, rng: True),
    "past-segment-prefix": (checks, "past_worldline_segment",
                            _past_segment_with_the_event),
    "superluminal-interval-flip": (kinematics, "superluminal_matrix",
                                   _eta_blind_superluminal_matrix),
    "detector-model-robustness": (interference.DetectorModel, "records_which_way",
                                  property(lambda self: False)),
    "fringe-law": (interference, "evaluate", _magnitude_weight_evaluate),
    "alternative-sum-cancellation": (checks, "sum_alternatives", lambda a, b:
                                     Amplitude(a.re + b.re, a.im)),
    "concatenation-associativity": (checks, "concat", _im_skewed_concat),
    "concatenation-distributivity": (checks, "concat", _re_shifted_concat),
    "interference-witness": (checks, "Branch", lambda children, distinguishable:
                             amplitudes.Branch(children, True)),
    "global-phase-invariance": (checks, "SQUARED_NORM", ProbabilityRule(
        "re-squared", lambda a: a.re * a.re)),
    "outcome-normalization": (checks, "evaluate_outcomes",
                              _raw_evaluate_outcomes),
    "frame-invariant-statistics": (checks, "classify_interval",
                                   _time_order_classify_interval),
    "seed-repeatability": (checks, "no_go_search", _drifting_no_go_search),
}


@pytest.mark.parametrize("check_id", list(MUTATIONS))
def test_criterion_8_checks_fail_under_their_mutations(monkeypatch, check_id):
    module, target, mutant = MUTATIONS[check_id]
    ctx = CheckContext(seed=8, trials=20, resolution=11)
    [baseline] = run_checks(ctx, check_id)
    assert baseline.id == check_id and baseline.passed
    monkeypatch.setattr(module, target, mutant)
    [mutated] = run_checks(ctx, check_id)
    assert not mutated.passed
    print(f"PASS  criterion 8: mutating {module.__name__}.{target} fails "
          f"{check_id}: {mutated.detail}")


def test_carrier_minimality_detail_names_the_planar_requirement(monkeypatch):
    ctx = CheckContext(seed=8, trials=20, resolution=11)
    [baseline] = run_checks(ctx, "carrier-minimality")
    assert baseline.detail.endswith("; planar carrier satisfied both")
    module, target, mutant = MUTATIONS["carrier-minimality"]
    monkeypatch.setattr(module, target, mutant)
    [mutated] = run_checks(ctx, "carrier-minimality")
    assert not mutated.passed
    assert mutated.detail == (
        "7 one-dimensional exponential actions scanned, 0 satisfied both "
        "phase requirements; planar carrier failed phase-sensitive "
        "recombination")


def test_mutation_table_covers_every_check():
    assert set(MUTATIONS) == {spec.id for spec in checks.REGISTRY}


@pytest.mark.parametrize("check_id, passed, failed", [
    ("global-phase-invariance",
     "default rule invariant under global phase on 20 random amplitudes",
     "default rule 're-squared' not invariant under global phase on 20 "
     "random amplitudes"),
    ("frame-invariant-statistics",
     "interval classes and statistics unchanged under 5 boosts up to "
     "|V|=0.99c",
     "interval classes changed under V=0.29999999999999999; interval "
     "classes changed under V=-0.59999999999999998; interval classes "
     "changed under V=0.90000000000000002; interval classes changed under "
     "V=-0.98999999999999999"),
])
def test_fail_details_name_what_broke(monkeypatch, check_id, passed, failed):
    ctx = CheckContext(seed=8, trials=20, resolution=11)
    [baseline] = run_checks(ctx, check_id)
    assert baseline.passed and baseline.detail == passed
    module, target, mutant = MUTATIONS[check_id]
    monkeypatch.setattr(module, target, mutant)
    [mutated] = run_checks(ctx, check_id)
    assert not mutated.passed and mutated.detail == failed


def test_criterion_8_nogo_command_fails_under_the_phase_reading_mutant(
        monkeypatch, capsys):
    # The nogo command must send every (config, phase) pair through the
    # classical kernel: a kernel that reads the phase turns its verdict.
    assert main(["nogo", "--resolution", "11"]) == 0
    assert "no-go contrast: PASS" in capsys.readouterr().out
    monkeypatch.setattr(interference, "_simulate_classical",
                        _phase_reading_classical)
    assert main(["nogo", "--resolution", "11"]) == 1
    out = capsys.readouterr().out
    assert "no-go contrast: FAIL" in out
    print("PASS  criterion 8: mutating interference._simulate_classical "
          "makes 'nogo --resolution 11' exit 1")
