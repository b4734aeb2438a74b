"""Registered invariant checks behind the ``check`` command.

Each check is a pure function of a context (seed, trial count, no-go
resolution) and reports one pass/fail line; tolerances come from
``constants``.  Checks never raise: an exception inside a
check body becomes a failed line.  Randomness is deterministic per check:
check number i draws from ``default_rng([seed, i])`` with i being the
position in the full registry, so a filtered run reproduces exactly the
same numbers as a full run.

The ``paper_ref`` on each entry names the postulate or behaviour the check
exercises (O1/O2/O3 for the operational interferometer postulates, A1-A4
for the amplitude rules, and behaviour slugs for the kinematic identities);
selectors match case-insensitive substrings of either the id or that label.

This module joins the layers, so the O3 frame report, which boosts the
bench's events with ``kinematics``, lives here beside its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .amplitudes import (
    Amplitude,
    Branch,
    DegenerateOutcomesError,
    SQUARED_NORM,
    carrier_minimality_check,
    check_global_phase_invariance,
    concat,
    evaluate,
    evaluate_outcomes,
    norm_squared,
    phase,
    sum_alternatives,
)
from .constants import (
    DEFAULT_C,
    DEFAULT_RESOLUTION,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    REL_TOL_ALGEBRA,
    REL_TOL_SAMPLED,
    is_count,
    is_seed,
    np,
)
from .interference import (
    BlockedArm,
    Composition,
    ConfigError,
    DetectorModel,
    ExperimentConfig,
    OutcomeDistribution,
    check_O1_robustness,
    no_go_search,
    phase_sweep,
    simulate,
    uniform_phase_grid,
)
from .kinematics import (
    ConeClass,
    FrameMap,
    SpacetimePoint,
    Worldline,
    _require_light_speed,
    boost_matrix,
    check_no_branching,
    classify_cone_preserver,
    classify_interval,
    compose,
    event_interval,
    in_causal_past,
    lorentz_boost,
    past_worldline_segment,
    preserves_null_lines,
    superluminal_map,
    velocity_addition,
)
from .schemas import format_float


class NoMatchingChecksError(ValueError):
    """Selector matched nothing in the registry."""


@dataclass(frozen=True)
class CheckContext:
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        if not is_seed(self.seed):
            raise ConfigError(f"seed: must be an integer in [0, 2**64), got {self.seed!r}")
        counts = {"trials": self.trials, "resolution": self.resolution}
        for name, value in counts.items():
            if not is_count(value):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        # No trials would test nothing; the no-go check fails resolution 1 itself.
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name}: must be at least 1, got {value!r}")


@dataclass(frozen=True)
class CheckResult:
    id: str
    paper_ref: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"id": self.id, "paper_ref": self.paper_ref,
                "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CheckSpec:
    id: str
    paper_ref: str
    run: Callable[[CheckContext, np.random.Generator], tuple[bool, str]]


# ---------------------------------------------------------------------------
# randomized fixtures shared with the acceptance suite
# ---------------------------------------------------------------------------


def random_event(rng: np.random.Generator) -> SpacetimePoint:
    t, x = rng.normal(size=2) * 5.0
    return SpacetimePoint(float(t), float(x))


def random_simple_worldline(rng: np.random.Generator) -> Worldline:
    """Monotone-in-t walk of 2 to 20 vertices; advancing time keeps it simple."""
    n = int(rng.integers(2, 21))
    xs = np.cumsum(rng.uniform(-0.9, 0.9, size=n))
    verts = [SpacetimePoint(float(i), float(x)) for i, x in enumerate(xs)]
    return Worldline(verts)


def random_invertible_frame_map(rng: np.random.Generator) -> FrameMap:
    """A 1+1 map drawn across all branches, with a random offset."""
    translation = rng.normal(size=2) * 2.0
    kind = rng.integers(0, 4)
    if kind == 0:
        return FrameMap.boost(float(rng.uniform(-0.95, 0.95)),
                              translation=translation)
    if kind == 1:
        V = float(rng.uniform(1.1, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        eta = 1 if rng.random() < 0.5 else -1
        return FrameMap.superluminal(V, eta, translation=translation)
    if kind == 2:
        scale = float(np.exp(rng.uniform(-1.0, 1.0)))
        return FrameMap.general_linear(scale * boost_matrix(float(rng.uniform(-0.9, 0.9))),
                                       translation=translation)
    while True:
        lin = rng.normal(size=(2, 2))
        if abs(np.linalg.det(lin)) >= 0.1:
            return FrameMap.general_linear(lin, translation=translation)


def _random_rotation_4d(rng: np.random.Generator) -> np.ndarray:
    """A 1+3 spatial rotation: two Householder reflections I - 2uu^T of x, y, z."""
    r = np.eye(4)
    for _ in range(2):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        r[1:, 1:] = (np.eye(3) - 2.0 * np.outer(u, u)) @ r[1:, 1:]
    return r


def random_conformal_lorentz_4d(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """(lambda R1 B R2, lambda): rotations on both sides of an x boost, 1+3."""
    b = np.eye(4)
    b[:2, :2] = boost_matrix(float(rng.uniform(-0.95, 0.95)))
    lam = float(rng.uniform(0.1, 10.0))
    return lam * (_random_rotation_4d(rng) @ b @ _random_rotation_4d(rng)), lam


def perturbed_noncone_map(rng: np.random.Generator) -> FrameMap:
    """A cone-preserving matrix spoiled by an anisotropic stretch."""
    base = boost_matrix(float(rng.uniform(-0.9, 0.9)))
    stretch = np.diag([1.0, float(rng.uniform(1.2, 3.0))])
    return FrameMap.general_linear(stretch @ base)


# ---------------------------------------------------------------------------
# kinematics checks
# ---------------------------------------------------------------------------


def _check_boost_interval(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        p = random_event(rng)
        V = float(rng.uniform(-0.999, 0.999))
        q = lorentz_boost(p, V)
        scale = p.x ** 2 + p.t ** 2
        worst = max(worst, abs(event_interval(q) - event_interval(p)) / scale)
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"|V|<c preserves the interval; worst relative drift "
                f"{format_float(worst)} over {ctx.trials} trials")


def _check_interval_flip(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        p = random_event(rng)
        V = float(rng.uniform(1.001, 100.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        eta = 1 if rng.random() < 0.5 else -1
        q = superluminal_map(p, V, eta)
        # The two signs of eta differ by the total inversion, exactly.
        r = superluminal_map(p, V, -eta)
        if (r.t, r.x) != (-q.t, -q.x):
            return False, (f"the two signs of eta are not each other's total "
                           f"inversion at V={format_float(V)}")
        scale = p.x ** 2 + p.t ** 2
        worst = max(worst, abs(event_interval(q) + event_interval(p)) / scale)
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"|V|>c negates the interval for both eta; worst relative "
                f"defect {format_float(worst)} over {ctx.trials} trials")


def _check_velocity_addition(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        V1 = float(rng.uniform(-0.99, 0.99))
        V2 = float(rng.uniform(-0.99, 0.99))
        h = compose(FrameMap.boost(V1), FrameMap.boost(V2))
        expected = boost_matrix(velocity_addition(V1, V2))
        # np.allclose's test, which on finite arrays is this comparison.
        atol = REL_TOL_SAMPLED * np.max(np.abs(expected))
        if not (abs(h.linear_part - expected)
                <= atol + REL_TOL_SAMPLED * abs(expected)).all():
            return False, "two subluminal boosts failed to compose to one"
        p = random_event(rng)
        direct = lorentz_boost(lorentz_boost(p, V2), V1)
        via = h.apply(p)
        scale = abs(p.t) + abs(p.x) + 1.0
        worst = max(worst,
                    max(abs(via.t - direct.t), abs(via.x - direct.x)) / scale)
    w = velocity_addition(0.5, 0.5)
    if w != 0.8:
        return False, f"0.5c plus 0.5c gave {format_float(w)}, expected 0.8"
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"compose(boost,boost) matches the velocity-addition boost; "
                f"worst deviation {format_float(worst)}")


def _check_superluminal_composition(ctx: CheckContext, rng) -> tuple[bool, str]:
    for _ in range(max(1, ctx.trials // 10)):
        V1 = float(rng.uniform(1.1, 20.0))
        V2 = float(rng.uniform(1.1, 20.0))
        eta1 = 1 if rng.random() < 0.5 else -1
        eta2 = 1 if rng.random() < 0.5 else -1
        double = compose(FrameMap.superluminal(V1, eta1),
                         FrameMap.superluminal(V2, eta2))
        if (classify_cone_preserver(double.linear_part).kind
                is not ConeClass.CONFORMAL_LORENTZ):
            return False, ("two interval-flipping maps should compose to an "
                           "interval preserver")
        mixed = compose(FrameMap.superluminal(V1, eta1),
                        FrameMap.boost(float(rng.uniform(-0.9, 0.9))))
        if classify_cone_preserver(mixed.linear_part).kind is not ConeClass.SIGN_FLIP:
            return False, "boost then superluminal map should still flip intervals"
    return True, ("superluminal∘superluminal preserves intervals, mixed "
                  "compositions flip them")


def _check_cone_classification(ctx: CheckContext, rng) -> tuple[bool, str]:
    flips = max(10, ctx.trials // 10)
    bad = max(10, ctx.trials // 10)
    for _ in range(ctx.trials):
        lin, _lam = random_conformal_lorentz_4d(rng)
        if classify_cone_preserver(lin).kind is not ConeClass.CONFORMAL_LORENTZ:
            return False, "a scaled 1+3 Lorentz map misclassified"
    for _ in range(flips):
        V = float(rng.uniform(1.001, 50.0))
        eta = 1 if rng.random() < 0.5 else -1
        cls = classify_cone_preserver(FrameMap.superluminal(V, eta).linear_part)
        if cls.kind is not ConeClass.SIGN_FLIP:
            return False, f"superluminal V={format_float(V)} failed to classify sign-flip"
    for _ in range(bad):
        if (classify_cone_preserver(perturbed_noncone_map(rng).linear_part).kind
                is not ConeClass.NOT_CONE_PRESERVING):
            return False, "an anisotropic stretch classified as cone-preserving"
    return True, (f"{ctx.trials} conformal, {flips} sign-flip, {bad} spoiled "
                  f"maps all classified correctly")


def _check_null_sampling_agreement(ctx: CheckContext, rng) -> tuple[bool, str]:
    n = max(10, ctx.trials // 10)
    for _ in range(n):
        m = random_invertible_frame_map(rng)
        sampled = preserves_null_lines(m)
        algebraic = (classify_cone_preserver(m.linear_part).kind
                     is not ConeClass.NOT_CONE_PRESERVING)
        if sampled != algebraic:
            return False, "sampled null-ray test disagreed with the pullback algebra"
        spoiled = perturbed_noncone_map(rng)
        if preserves_null_lines(spoiled):
            return False, "a spoiled map slipped past the sampled null-ray test"
    return True, (f"sampled null-cone test agreed with pullback classification "
                  f"on {n} random maps")


def _check_no_4d_sign_flip(ctx: CheckContext, rng) -> tuple[bool, str]:
    n = max(10, ctx.trials // 5)
    for _ in range(n):
        lin = rng.normal(size=(4, 4))
        if abs(np.linalg.det(lin)) <= 1e-6:
            continue
        if classify_cone_preserver(lin).kind is ConeClass.SIGN_FLIP:
            return False, "a 1+3 map classified as an interval sign-flip"
    return True, (f"no sign-flip verdict across {n} random 1+3 maps "
                  f"(the form and its negative differ in signature)")


def _check_causal_past_invariance(ctx: CheckContext, rng) -> tuple[bool, str]:
    for _ in range(ctx.trials):
        e = random_event(rng)
        candidate = random_event(rng)
        V = float(rng.uniform(-0.99, 0.99))
        before = in_causal_past(e, candidate)
        m = FrameMap.boost(V)
        after = in_causal_past(m.apply(e), m.apply(candidate))
        if before != after:
            return False, ("causal-past membership changed under a common "
                           f"boost V={format_float(V)}")
    return True, (f"in_causal_past invariant under common subluminal boosts, "
                  f"{ctx.trials} random pairs")


def _check_no_branching(ctx: CheckContext, rng) -> tuple[bool, str]:
    for _ in range(ctx.trials):
        w = random_simple_worldline(rng)
        m = random_invertible_frame_map(rng)
        if not check_no_branching(w, m):
            return False, "a simple worldline image was flagged as branching"
    crossing = Worldline(
        [SpacetimePoint(0.0, 0.0), SpacetimePoint(2.0, 2.0),
         SpacetimePoint(1.0, 3.0), SpacetimePoint(3.0, -1.0)],
        check_simple=False)
    if check_no_branching(crossing, FrameMap.identity()):
        return False, "the self-intersecting fixture was not flagged"
    return True, (f"{ctx.trials} simple worldlines stayed simple under random "
                  f"invertible maps; crossing fixture flagged")


def _check_past_segment(ctx: CheckContext, rng) -> tuple[bool, str]:
    flip = FrameMap.superluminal(2.0, 1)
    for _ in range(max(10, ctx.trials // 10)):
        w = random_simple_worldline(rng)
        idx = int(rng.integers(0, len(w)))
        past = past_worldline_segment(w, idx)
        # Worldline keeps w.taus strictly increasing, so its prefix lies
        # strictly before the event's label.
        if past.vertices != w.vertices[:idx] or past.taus != w.taus[:idx]:
            return False, "past segment is not the strict prefix before the event"
        # Every chord of a drawn worldline is timelike, so the prefix is also
        # the causal past along it; the formal branch negates every interval,
        # so along the image no other vertex is in the causal past.
        e, others = w.vertices[idx], w.vertices[:idx] + w.vertices[idx + 1:]
        if tuple(v for v in others if in_causal_past(e, v)) != past.vertices:
            return False, "the causal past along a worldline is not its proper-time prefix"
        image = flip.apply(e)
        if any(in_causal_past(image, flip.apply(v)) for v in others):
            return False, "a vertex keeps a causal past along its superluminal image"
    return True, "past worldline segments are strict proper-time prefixes"


# ---------------------------------------------------------------------------
# amplitude checks
# ---------------------------------------------------------------------------


def _check_phase_group_law(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        a = float(rng.uniform(-10.0, 10.0))
        b = float(rng.uniform(-10.0, 10.0))
        lhs = concat(phase(a), phase(b))
        rhs = phase(a + b)
        worst = max(worst, abs(lhs.re - rhs.re), abs(lhs.im - rhs.im))
    ident = phase(0.0)
    if (ident.re, ident.im) != (1.0, 0.0):
        return False, "phase(0) is not the multiplicative identity"
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"phase(a)*phase(b)=phase(a+b); worst component error "
                f"{format_float(worst)} over {ctx.trials} trials")


def _check_sum_alternatives(ctx: CheckContext, rng) -> tuple[bool, str]:
    for _ in range(ctx.trials):
        a = Amplitude(*rng.uniform(-3.0, 3.0, 2))
        b = Amplitude(*rng.uniform(-3.0, 3.0, 2))
        if sum_alternatives(a, b) != sum_alternatives(b, a):
            return False, "alternative summation is not commutative"
        if sum_alternatives(a, Amplitude(0.0, 0.0)) != a:
            return False, "zero amplitude is not a summation identity"
    cancel = sum_alternatives(phase(0.0), Amplitude(-1.0, 0.0))
    if norm_squared(cancel) != 0.0:
        return False, "opposite unit amplitudes failed to cancel exactly"
    return True, ("summation over indistinguishable alternatives is "
                  "commutative with exact cancellation at relative phase pi")


def _check_concat_associativity(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        a, b, c = (Amplitude(*rng.uniform(-2.0, 2.0, 2)) for _ in range(3))
        lhs = concat(concat(a, b), c)
        rhs = concat(a, concat(b, c))
        scale = 1.0 + abs(lhs.re) + abs(lhs.im)
        worst = max(worst, abs(lhs.re - rhs.re) / scale, abs(lhs.im - rhs.im) / scale)
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"leg concatenation associative; worst relative error "
                f"{format_float(worst)} over {ctx.trials} trials")


def _check_distributivity(ctx: CheckContext, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(ctx.trials):
        a, b, c = (Amplitude(*rng.uniform(-2.0, 2.0, 2)) for _ in range(3))
        lhs = concat(c, sum_alternatives(a, b))
        rhs = sum_alternatives(concat(c, a), concat(c, b))
        scale = 1.0 + abs(lhs.re) + abs(lhs.im)
        worst = max(worst, abs(lhs.re - rhs.re) / scale, abs(lhs.im - rhs.im) / scale)
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"concatenation distributes over alternative sums; worst "
                f"relative error {format_float(worst)}")


def _check_interference_witness(ctx: CheckContext, rng) -> tuple[bool, str]:
    coherent = Branch((phase(0.0), phase(math.pi)), distinguishable=False)
    w_coherent = evaluate(coherent, SQUARED_NORM)
    per_path = [evaluate(phase(0.0)), evaluate(phase(math.pi))]
    gap = min(abs(w_coherent - (w * per_path[0] + (1.0 - w) * per_path[1]))
              for w in np.linspace(0.0, 1.0, 101))
    ok = w_coherent <= 1e-30 and gap > 0.5
    return ok, (f"coherent weight {format_float(w_coherent)} sits at least "
                f"{format_float(gap)} from every classical mixture of the "
                f"per-path weights")


def _check_global_phase_invariance(ctx: CheckContext, rng) -> tuple[bool, str]:
    ok = check_global_phase_invariance(SQUARED_NORM, ctx.trials, rng)
    claim = "invariant" if ok else f"{SQUARED_NORM.name!r} not invariant"
    return ok, (f"default rule {claim} under global phase on {ctx.trials} "
                f"random amplitudes")


def _check_outcome_normalization(ctx: CheckContext, rng) -> tuple[bool, str]:
    for _ in range(max(10, ctx.trials // 10)):
        graphs = {
            f"out{i}": Amplitude(*rng.uniform(-2.0, 2.0, 2))
            for i in range(int(rng.integers(2, 5)))}
        try:
            out = evaluate_outcomes(graphs, SQUARED_NORM)
        except DegenerateOutcomesError:
            continue
        if abs(math.fsum(out.values()) - 1.0) > REL_TOL_ALGEBRA:
            return False, "normalized outcome weights do not sum to 1"
        recorded = Branch(tuple(graphs.values()), distinguishable=True)
        total = evaluate(recorded, SQUARED_NORM)
        parts = math.fsum(evaluate(g, SQUARED_NORM) for g in graphs.values())
        if abs(total - parts) > REL_TOL_ALGEBRA * (1.0 + parts):
            return False, "distinguishable branch weight is not additive"
    cancel = Branch((phase(0.0), Amplitude(-1.0, 0.0)), distinguishable=False)
    try:
        evaluate_outcomes({"only": cancel}, SQUARED_NORM)
        return False, "all-zero outcomes did not raise the degenerate error"
    except DegenerateOutcomesError:
        pass
    return True, ("outcome normalization sums to 1, distinguishable weights "
                  "add, and the all-zero case raises instead of dividing")


def _check_carrier_minimality(ctx: CheckContext, rng) -> tuple[bool, str]:
    report = carrier_minimality_check(uniform_phase_grid(16))
    both = sum(1 for rec in report.actions if rec.satisfies_both)
    failed = [name for name, ok in (
        ("weight invariance", report.two_dimensional_invariant),
        ("phase-sensitive recombination", report.two_dimensional_alters))
        if not ok]
    planar = ("satisfied both" if not failed
              else "failed " + " and ".join(failed))
    return report.passed, (f"{len(report.actions)} one-dimensional exponential "
                           f"actions scanned, {both} satisfied both phase "
                           f"requirements; planar carrier {planar}")


# ---------------------------------------------------------------------------
# interference checks
# ---------------------------------------------------------------------------


def _check_blocked_arm(ctx: CheckContext, rng) -> tuple[bool, str]:
    for arm in (BlockedArm.UPPER, BlockedArm.LOWER):
        for phi in uniform_phase_grid(64):
            d = simulate(ExperimentConfig(blocked_arm=arm, phase=phi))
            if (d.p_d0, d.p_d1, d.p_absorbed) != (0.25, 0.25, 0.5):
                return False, (f"blocked {arm.value} arm at phase "
                               f"{format_float(phi)} gave inexact probabilities")
            if (d.p_d0_given_detected, d.p_d1_given_detected) != (0.5, 0.5):
                return False, "blocked-arm conditionals are not exactly 1/2"
    return True, ("blocking either arm gives exactly (1/4, 1/4, 1/2) with "
                  "conditionals 1/2, for all 64 phases")


def _check_fringe_law(ctx: CheckContext, rng) -> tuple[bool, str]:
    grid = uniform_phase_grid(64)
    sweep = phase_sweep(ExperimentConfig(), grid)
    worst = 0.0
    for phi, d in sweep:
        worst = max(worst, abs(d.p_d0 - math.cos(phi / 2.0) ** 2))
        opposite = simulate(ExperimentConfig(phase=phi + math.pi))
        worst = max(worst, abs(d.p_d0 + opposite.p_d0 - 1.0))
    step = 2.0 * math.pi / 64
    for (_, a), (_, b) in zip(sweep, sweep[1:]):
        if abs(b.p_d0 - a.p_d0) > 0.5 * step + REL_TOL_ALGEBRA:
            return False, "fringe moved faster than its slope bound"
    ok = worst <= REL_TOL_ALGEBRA
    return ok, (f"p_d0 follows the half-angle cosine law; worst error "
                f"{format_float(worst)} over 64 phases")


def _check_detector_robustness(ctx: CheckContext, rng) -> tuple[bool, str]:
    report = check_O1_robustness(uniform_phase_grid(32))
    parts = ", ".join(f"{e.model}={format_float(e.visibility)}"
                      for e in report.entries)
    return report.passed, f"visibility by detector model: {parts}"


def _check_classical_no_go(ctx: CheckContext, rng) -> tuple[bool, str]:
    report = no_go_search(uniform_phase_grid(32), ctx.resolution)
    # Read backwards: where nothing recombines, under a recording detector
    # or with the second splitter at 0 or 1, the bench is the mixture with
    # weights (T1, 1 - T1).  The two sides round differently, so not ==.
    # A failed search keeps its own line, so the draws follow only a pass.
    for _ in range(max(10, ctx.trials // 10) if report.passed else 0):
        T1, T2 = (float(t) for t in rng.uniform(0.0, 1.0, 2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        # The search reduces one row for the four detector models of a
        # (weights, blocking) pair, which holds only while the model leaves
        # a mixture bit for bit as it is.
        mixed = [simulate(ExperimentConfig(
            T1, T2, phi, detector_model=m,
            composition=Composition.CLASSICAL_MIXTURE)) for m in DetectorModel]
        for m, d in zip(DetectorModel, mixed):
            if not d == mixed[0]:
                return False, (f"the classical mixture moved under the "
                               f"{m.value} detector model")
        recording = [(m.value, T2, m)
                     for m in (DetectorModel.NON_DEMOLISHING_RECORDING,
                               DetectorModel.ABSORB_AND_REEMIT_RECORDING)]
        open_loops = [(f"T2={t2:g}", t2, DetectorModel.NONE) for t2 in (0.0, 1.0)]
        for label, t2, model in recording + open_loops:
            bench = simulate(ExperimentConfig(T1, t2, phi, detector_model=model))
            mixture = simulate(ExperimentConfig(
                T1, t2, phi, composition=Composition.CLASSICAL_MIXTURE))
            gap = max(abs(a - b) for a, b in zip(bench[:3], mixture[:3]))
            if gap > REL_TOL_ALGEBRA:
                return False, (f"without recombination ({label}) the bench is "
                               f"{format_float(gap)} from the classical mixture")
    return report.passed, (
        f"max classical variation {format_float(report.max_classical_variation)} "
        f"across {report.classical_config_count} configurations; amplitude "
        f"visibility {format_float(report.amplitude_visibility)}")


_EVENT_TABLE: tuple[tuple[str, float, float], ...] = (
    # The interferometer's marker events on a light-speed skeleton: photon
    # legs are null, the two mirror reflections are mutually spacelike.
    ("source", 0.0, -1.0),
    ("splitter1", 1.0, 0.0),
    ("mirror_upper", 2.0, 1.0),
    ("mirror_lower", 2.0, -1.0),
    ("splitter2", 3.0, 0.0),
    ("detector_d0", 4.0, 1.0),
    ("detector_d1", 4.0, -1.0),
)


def interferometer_events(c: float = DEFAULT_C) -> dict[str, SpacetimePoint]:
    """Canonical-frame marker events of the bench layout, scaled by c."""
    c = _require_light_speed(c)  # FrameMap's rule for c, and its message
    return {name: SpacetimePoint(t, c * x) for name, t, x in _EVENT_TABLE}


@dataclass(frozen=True)
class FrameInvarianceEntry:
    velocity: float
    interval_kinds_preserved: bool
    statistics_identical: bool


@dataclass(frozen=True)
class FrameInvarianceReport:
    baseline: OutcomeDistribution
    entries: tuple[FrameInvarianceEntry, ...]
    passed: bool


def check_O3_frame_invariance(config: ExperimentConfig,
                              boosts: Sequence[float],
                              c: float = DEFAULT_C) -> FrameInvarianceReport:
    """Observed statistics and causal relations under subluminal boosts.

    The experiment description (splitter ratios, relative phase, blocking,
    detector model) contains no frame-dependent quantity, so simulate must
    return bit-identical numbers in every frame; the geometric content is
    that boosting the bench's marker events never changes any pair's
    interval classification.  An empty ``boosts`` raises ConfigError.
    """
    boosts = list(boosts)
    if not boosts:
        raise ConfigError("frame invariance check needs at least one boost")
    events = interferometer_events(c)
    names = list(events)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    baseline_kinds = {
        (a, b): classify_interval(events[a], events[b], c)
        for a, b in pairs}
    baseline = simulate(config)
    entries = []
    for V in boosts:
        m = FrameMap.boost(V, c)  # rejects |V| >= c and a V that is not finite
        moved = {name: m.apply(p) for name, p in events.items()}
        kinds_ok = all(
            classify_interval(moved[a], moved[b], c) is baseline_kinds[a, b]
            for a, b in pairs)
        again = simulate(config)
        stats_ok = again == baseline
        entries.append(FrameInvarianceEntry(m.V, kinds_ok, stats_ok))
    return FrameInvarianceReport(
        baseline=baseline,
        entries=tuple(entries),
        passed=all(e.interval_kinds_preserved and e.statistics_identical
                   for e in entries),
    )


def _check_frame_invariance(ctx: CheckContext, rng) -> tuple[bool, str]:
    report = check_O3_frame_invariance(ExperimentConfig(phase=0.7),
                                       [0.0, 0.3, -0.6, 0.9, -0.99])
    broken = [f"{what} changed under V={format_float(e.velocity)}"
              for e in report.entries
              for what, kept in (("interval classes", e.interval_kinds_preserved),
                                 ("statistics", e.statistics_identical))
              if not kept]
    return report.passed, "; ".join(broken) or (
        f"interval classes and statistics unchanged under "
        f"{len(report.entries)} boosts up to |V|=0.99c")


def _check_repeatability(ctx: CheckContext, rng) -> tuple[bool, str]:
    # Looked up by id, not by identity: a wrapped registry keeps the ids.
    index = [spec.id for spec in REGISTRY].index("seed-repeatability")
    expected = np.random.default_rng([ctx.seed, index]).normal(size=64)
    if not np.array_equal(rng.normal(size=64), expected):
        return False, "this check was not seeded by its registry position"
    grid = uniform_phase_grid(8)
    if no_go_search(grid, 11) != no_go_search(grid, 11):
        return False, "re-running the search changed its report"
    if (phase_sweep(ExperimentConfig(), grid)
            != phase_sweep(ExperimentConfig(), grid)):
        return False, "re-running a sweep changed its numbers"
    return True, "seeded streams, sweeps, and search reports repeat bit-identically"


REGISTRY: tuple[CheckSpec, ...] = (
    CheckSpec("boost-interval-invariance", "interval-invariance",
              _check_boost_interval),
    CheckSpec("superluminal-interval-flip", "interval-flip",
              _check_interval_flip),
    CheckSpec("velocity-addition-consistency", "velocity-addition",
              _check_velocity_addition),
    CheckSpec("superluminal-composition-closure", "interval-flip",
              _check_superluminal_composition),
    CheckSpec("cone-preserver-classification", "cone-preservation",
              _check_cone_classification),
    CheckSpec("null-line-sampling-agreement", "cone-preservation",
              _check_null_sampling_agreement),
    CheckSpec("no-sign-flip-in-four-dimensions", "cone-preservation",
              _check_no_4d_sign_flip),
    CheckSpec("causal-past-boost-invariance", "causal-past",
              _check_causal_past_invariance),
    CheckSpec("worldline-no-branching", "no-branching",
              _check_no_branching),
    CheckSpec("past-segment-prefix", "causal-past",
              _check_past_segment),
    CheckSpec("phase-group-law", "A4", _check_phase_group_law),
    CheckSpec("alternative-sum-cancellation", "A1", _check_sum_alternatives),
    CheckSpec("concatenation-associativity", "A2", _check_concat_associativity),
    CheckSpec("concatenation-distributivity", "A1+A2", _check_distributivity),
    CheckSpec("interference-witness", "A3", _check_interference_witness),
    CheckSpec("global-phase-invariance", "probability-rule",
              _check_global_phase_invariance),
    CheckSpec("outcome-normalization", "probability-rule",
              _check_outcome_normalization),
    CheckSpec("carrier-minimality", "minimal-carrier",
              _check_carrier_minimality),
    CheckSpec("blocked-arm-exact", "blocked-arm", _check_blocked_arm),
    CheckSpec("fringe-law", "O2", _check_fringe_law),
    CheckSpec("detector-model-robustness", "O1", _check_detector_robustness),
    CheckSpec("classical-no-go", "O2 no-go", _check_classical_no_go),
    CheckSpec("frame-invariant-statistics", "O3", _check_frame_invariance),
    CheckSpec("seed-repeatability", "determinism", _check_repeatability),
)


def select_checks(selector: str | None) -> list[tuple[int, CheckSpec]]:
    """Registry entries whose id or label contains the selector substring."""
    indexed = list(enumerate(REGISTRY))
    needle = "" if selector is None else selector.strip().lower()
    if needle in ("", "all"):
        return indexed
    picked = [(i, spec) for i, spec in indexed
              if needle in spec.id.lower() or needle in spec.paper_ref.lower()]
    if not picked:
        known = ", ".join(spec.id for spec in REGISTRY)
        raise NoMatchingChecksError(
            f"selector {selector!r} matches no checks; ids: {known}")
    return picked


def run_checks(ctx: CheckContext,
               selector: str | None = None) -> list[CheckResult]:
    results = []
    for index, spec in select_checks(selector):
        rng = np.random.default_rng([ctx.seed, index])
        try:
            passed, detail = spec.run(ctx, rng)
        except Exception as err:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(spec.id, spec.paper_ref, bool(passed),
                                   str(detail)))
    return results
