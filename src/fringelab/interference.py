"""Mach-Zehnder benchmark with swappable composition rules.

Layout: a first beam splitter opens two arms (upper and lower), the upper
arm carries a tunable phase plate, mirrors steer both arms into a second
splitter, and two detectors D0 and D1 watch its output ports.  Either arm
can be blocked by a total absorber, and a detector model on the arms may or
may not record which path was taken.

Splitter convention (needed to fix which port is bright): a symmetric
splitter with transmissivity T transmits with amplitude sqrt(T) and
reflects with amplitude i*sqrt(1-T).  The upper arm is the transmitted one
at the first splitter, and D0 is the port reached by reflecting the upper
arm at the second splitter.  With 50/50 splitters this puts
p_d0 = cos^2(phi/2), bright at phi = 0.

Two composition rules are implemented.  ``amplitude`` builds the two-path
alternative graph and evaluates it with a probability rule; when a detector
records which-way information the branch is marked distinguishable and the
fringes die.  ``classical_mixture`` combines fixed per-path outcome
distributions with convex weights; that map never reads the phase, which
is the structural point the no-go search documents.

Exactness notes: with one arm blocked nothing recombines, so under either
composition the outcome is the classical mixture of the live arm.  Those
probabilities, like every classical one, are products of transmissivities,
never squared amplitude norms, so 50/50 values like 1/4 and 1/2 come out as
exact binary floats.

This layer imports only ``amplitudes`` and ``constants``.  The O3 frame
report, which boosts the bench's events with ``kinematics``, is in ``checks``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .amplitudes import (
    Amplitude,
    Branch,
    DegenerateOutcomesError,
    ProbabilityRule,
    SQUARED_NORM,
    Sequence as SequenceNode,
    _require_rule,
    concat,
    evaluate,
)
from .constants import (
    DEFAULT_RESOLUTION,
    REL_TOL_ALGEBRA,
    REL_TOL_SAMPLED,
    enum_member,
    finite_float,
    is_count,
    is_real,
)


class ConfigError(ValueError):
    """Experiment description violates its invariants."""


class BlockedArm(str, Enum):
    NONE = "none"
    UPPER = "upper"
    LOWER = "lower"


class DetectorModel(str, Enum):
    NONE = "none"
    NON_DEMOLISHING_RECORDING = "non_demolishing_recording"
    NON_DEMOLISHING_SILENT = "non_demolishing_silent"
    ABSORB_AND_REEMIT_RECORDING = "absorb_and_reemit_recording"

    @property
    def records_which_way(self) -> bool:
        return self in _RECORDING_MODELS


# A set lookup, not the member's string: read once per graph-path phase.
_RECORDING_MODELS = frozenset({DetectorModel.NON_DEMOLISHING_RECORDING,
                               DetectorModel.ABSORB_AND_REEMIT_RECORDING})


class Composition(str, Enum):
    AMPLITUDE = "amplitude"
    CLASSICAL_MIXTURE = "classical_mixture"


# Members read once per phase, bound as globals: a global read is about a
# tenth of the cost of an Enum class attribute's.
_CLASSICAL_MIXTURE = Composition.CLASSICAL_MIXTURE
_UNBLOCKED, _UPPER, _LOWER = BlockedArm.NONE, BlockedArm.UPPER, BlockedArm.LOWER


_ENUM_FIELDS = (("blocked_arm", BlockedArm),
                ("detector_model", DetectorModel),
                ("composition", Composition))

_PHASE_NOT_FINITE = "phase: must be finite"


@dataclass(frozen=True)
class ExperimentConfig:
    """Operational description of one interferometer run.

    ``mixture_weights`` gives the classical path weights (upper, lower); it
    is meaningful only for classical composition and defaults there to the
    first splitter's (T, 1-T).
    """

    splitter1: float = 0.5
    splitter2: float = 0.5
    phase: float = 0.0
    blocked_arm: BlockedArm = BlockedArm.NONE
    detector_model: DetectorModel = DetectorModel.NONE
    composition: Composition = Composition.AMPLITUDE
    mixture_weights: tuple[float, float] | None = None

    def __post_init__(self):
        # Each field is checked once and stored as the value it was checked
        # as; an enum field also accepts the string that names a member.
        problems, fields = [], {}
        for name in ("splitter1", "splitter2"):
            value = getattr(self, name)
            fields[name] = finite_float(value)
            if not is_real(value):
                problems.append(f"{name}: must be a number")
            elif not 0.0 <= value <= 1.0:  # as given: exact for a Fraction
                problems.append(f"{name}: transmissivity must lie in [0, 1], got {value!r}")
        fields["phase"] = finite_float(self.phase)
        if not is_real(self.phase):
            problems.append("phase: must be a number")
        elif fields["phase"] is None:
            problems.append(_PHASE_NOT_FINITE)
        for name, kind in _ENUM_FIELDS:
            fields[name] = enum_member(kind, getattr(self, name), name, problems)
        w = self.mixture_weights
        if w is not None:
            if (not isinstance(w, (tuple, list)) or len(w) != 2
                    or not all(is_real(v) for v in w)):
                problems.append("mixture_weights: must be two numbers (upper, lower)")
            else:
                w = upper, lower = tuple(map(finite_float, w))
                if upper is None or lower is None or min(upper, lower) < 0.0:
                    problems.append("mixture_weights: weights must be finite and nonnegative")
                else:
                    # Two floats' sum is rounded once, as math.fsum rounds it,
                    # but past the largest float it is inf instead of raising.
                    total = upper + lower
                    if abs(total - 1.0) > REL_TOL_ALGEBRA:
                        problems.append(f"mixture_weights: must sum to 1, got {total!r}")
            if fields["composition"] is Composition.AMPLITUDE:
                problems.append("mixture_weights: only meaningful for "
                                "classical_mixture composition")
        if problems:
            raise ConfigError("; ".join(problems))
        fields["mixture_weights"] = w
        self.__dict__.update(fields)


class OutcomeDistribution(NamedTuple):
    """Probabilities of the three exclusive outcomes plus port conditionals.

    Conditionals are defined only when some photon reaches a detector
    (p_d0 + p_d1 > 0); otherwise they are None.
    """

    p_d0: float
    p_d1: float
    p_absorbed: float
    p_d0_given_detected: float | None
    p_d1_given_detected: float | None


def _normalized(w_d0: float, w_d1: float, w_absorbed: float) -> tuple:
    """(p_d0, p_d1, p_absorbed, p_d0|detected, p_d1|detected) of three
    outcome weights: the fields of their OutcomeDistribution, in order."""
    total = w_d0 + w_d1 + w_absorbed
    # Each weight is a finite float >= 0: a sum of weights a ProbabilityRule
    # checked, or a product of checked transmissivities.  Only their sum can
    # fail, by passing the largest float.
    if total == math.inf:
        raise ConfigError("outcome weights must be nonnegative with a finite sum")
    if total == 0.0:
        raise DegenerateOutcomesError(
            "all outcome weights are zero; nothing to normalize")
    p0, p1, pa = w_d0 / total, w_d1 / total, w_absorbed / total
    detected = p0 + p1
    cond0, cond1 = (p0 / detected, p1 / detected) if detected > 0.0 else (None, None)
    return p0, p1, pa, cond0, cond1


def simulate(config: ExperimentConfig,
             rule: ProbabilityRule = SQUARED_NORM) -> OutcomeDistribution:
    """Outcome distribution of one configured run."""
    if rule is not SQUARED_NORM:
        _require_rule(rule)
    if (config.composition is _CLASSICAL_MIXTURE
            or config.blocked_arm is not _UNBLOCKED):
        T1 = config.splitter1
        w_upper, w_lower = config.mixture_weights or (T1, 1.0 - T1)
        return OutcomeDistribution._make(_classical_outcome(
            w_upper, w_lower, config.splitter2, config.blocked_arm, config.phase))
    return _simulate_amplitude(config, rule)


def _classical_outcome(w_upper: float, w_lower: float, T2: float,
                       blocked: BlockedArm, phase: float) -> tuple:
    # _normalized convex mixture of per-path outcomes.  An arm's (d0, d1,
    # absorbed) weights are fixed by the second splitter (upper reaches D0 by
    # reflection), and a blocked arm sends its whole weight to the absorber,
    # whatever the composition.  The phase comes only as this scalar, never
    # on an object with a phase field, and the classical map never reads it:
    # the no-go search hands it every phase of its grid, so a kernel that did
    # read it would show there.
    R2 = 1.0 - T2
    u0, u1, u2 = (0.0, 0.0, 1.0) if blocked is _UPPER else (R2, T2, 0.0)
    v0, v1, v2 = (0.0, 0.0, 1.0) if blocked is _LOWER else (T2, R2, 0.0)
    return _normalized(w_upper * u0 + w_lower * v0,
                       w_upper * u1 + w_lower * v1,
                       w_upper * u2 + w_lower * v2)


@functools.lru_cache(maxsize=64)
def _fixed_parts(T1: float, T2: float) -> tuple[Amplitude, ...]:
    """The parts of both outcome graphs that no phase changes.

    The legs t1, r2 and t2, then the lower arm to D0 (r1, t2) and to D1
    (r1, r2), each as the carrier product of its two legs: the one
    Amplitude its two-leg Sequence walks to.
    Keyed by the stored splitter floats, so 0.0 and -0.0 share an entry;
    both are taken as 0.0, so the entry does not depend on which came
    first.  The sign of a zero leg cannot reach a squared-norm weight.
    """
    T1, T2 = T1 + 0.0, T2 + 0.0  # -0.0 + 0.0 is 0.0; any other value stays
    t1, r1 = math.sqrt(T1), math.sqrt(1.0 - T1)
    t2, r2 = math.sqrt(T2), math.sqrt(1.0 - T2)
    lower_in = Amplitude(0.0, r1)
    leg_r2, leg_t2 = Amplitude(0.0, r2), Amplitude(t2, 0.0)
    return (Amplitude(t1, 0.0), leg_r2, leg_t2,
            concat(lower_in, leg_t2), concat(lower_in, leg_r2))


def _unchecked(kind, **fields):
    """A ``kind(**fields)`` graph node built without its __post_init__."""
    out = object.__new__(kind)
    out.__dict__.update(fields)
    return out


def _simulate_amplitude(config: ExperimentConfig,
                        rule: ProbabilityRule) -> OutcomeDistribution:
    # Every node below is built from checked parts: config.phase was checked
    # when config was built, and the cos and sin of a finite float are finite.
    t1, r2, t2, lower_d0, lower_d1 = _fixed_parts(config.splitter1,
                                                  config.splitter2)
    recorded = config.detector_model.records_which_way
    plate = _unchecked(Amplitude, re=math.cos(config.phase),
                       im=math.sin(config.phase))
    to_d0 = _unchecked(Branch, distinguishable=recorded, children=(
        _unchecked(SequenceNode, children=(t1, plate, r2)), lower_d0))
    to_d1 = _unchecked(Branch, distinguishable=recorded, children=(
        _unchecked(SequenceNode, children=(t1, plate, t2)), lower_d1))
    return OutcomeDistribution._make(_normalized(
        evaluate(to_d0, rule), evaluate(to_d1, rule), 0.0))


def _at_phase(config: ExperimentConfig, p: float) -> ExperimentConfig:
    """``config`` with phase ``p``, checking nothing.

    ``p`` is a float from a phase grid that _phase_floats checked once, on
    entry, and __post_init__ checked and stored the other fields when
    ``config`` was built, so the result, equal to
    ``dataclasses.replace(config, phase=p)`` field for field, is made
    without re-running __post_init__.
    """
    out = object.__new__(ExperimentConfig)
    out.__dict__.update(config.__dict__, phase=p)
    return out


def _phase_floats(phis: Sequence[float]) -> list[float]:
    phis = [finite_float(p) for p in phis]
    if None in phis:
        raise ConfigError(_PHASE_NOT_FINITE)
    return phis


def phase_sweep(config: ExperimentConfig, phis: Sequence[float],
                rule: ProbabilityRule = SQUARED_NORM
                ) -> list[tuple[float, OutcomeDistribution]]:
    """simulate at each phase in turn, keeping everything else fixed.

    ``config`` is validated once, when it is built, and the phase grid
    once, on entry.  Every (config, phase) pair still goes through
    simulate, so a kernel that leaked the phase, or ignored it, would show
    in the sweep.
    """
    phis = _phase_floats(phis)
    if not phis:
        raise ConfigError("phase sweep needs at least one phase")
    return [(p, simulate(_at_phase(config, p), rule)) for p in phis]


def visibility(sweep: Sequence[tuple[float, OutcomeDistribution]]) -> float:
    """Fringe contrast (max-min)/(max+min) of p_d0 over a sweep; 0/0 is 0."""
    if not sweep:
        raise ConfigError("visibility needs a nonempty sweep")
    values = [dist.p_d0 for _, dist in sweep]
    hi, lo = max(values), min(values)
    denom = hi + lo
    return 0.0 if denom == 0.0 else (hi - lo) / denom


def uniform_phase_grid(n: int) -> list[float]:
    """n phases 2*pi*k/n, k = 0..n-1; for even n the grid hits pi exactly."""
    if not is_count(n):
        raise ConfigError("phase grid size must be an integer")
    if (n := int(n)) < 1:  # a numpy integer as the int it names
        raise ConfigError("phase grid needs at least one point")
    return [2.0 * math.pi * k / n for k in range(n)]


# ---------------------------------------------------------------------------
# no-go search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoGoReport:
    """Brute-force contrast between classical mixtures and amplitudes.

    ``max_classical_variation`` is the largest max - min, over the phase
    grid, of any outcome probability of any enumerated classical mixture;
    the classical map never reads the phase, so anything but exactly 0
    would expose a leak.  ``amplitude_visibility`` is the fringe contrast
    of the default amplitude configuration on the same phase grid.
    """

    resolution: int
    phase_count: int
    classical_config_count: int
    max_variation_d0: float
    max_variation_d1: float
    max_variation_absorbed: float
    max_classical_variation: float
    amplitude_visibility: float
    classical_phase_independent: bool
    passed: bool


def no_go_search(phis: Sequence[float],
                 weight_grid_resolution: int = DEFAULT_RESOLUTION) -> NoGoReport:
    """Exhaustive phase-sensitivity scan of classical-mixture configurations.

    Enumerates path weights (w, 1-w) over a uniform grid at the requested
    resolution, crossed with every blocking and detector-model variant, all
    in classical composition with the default second splitter; records the
    worst phase variation of each outcome probability.  The kernel is not
    handed the detector model, so the resolution x 3 x 4 configurations are
    evaluated as 3 x resolution rows, one per (weights, blocking) pair; the
    classical-no-go check confirms that the model does not move a mixture.
    The phase grid is checked once, on entry, and every row calls the kernel
    at every phase, which it gets as its own argument, so a kernel that read
    the phase would show here.  The companion number is the amplitude-mode
    fringe visibility on the same phases, which should be maximal when the
    grid spans a full period.
    """
    phis = _phase_floats(phis)
    if len(phis) < 2:
        raise ConfigError("no-go search needs at least two phases")
    if not is_count(weight_grid_resolution):
        raise ConfigError("weight grid resolution must be an integer")
    if (weight_grid_resolution := int(weight_grid_resolution)) < 2:
        raise ConfigError("weight grid resolution must be at least 2")
    steps = weight_grid_resolution - 1
    T2 = ExperimentConfig.splitter2
    var_d0 = var_d1 = var_abs = 0.0
    for k in range(weight_grid_resolution):
        w = k / steps
        for blocked in BlockedArm:
            row = [_classical_outcome(w, 1.0 - w, T2, blocked, p) for p in phis]
            # A row of equal tuples varies by 0.0 in every column, which
            # leaves each running maximum as it is.
            if row.count(row[0]) == len(row):
                continue
            d0, d1, ab, _, _ = zip(*row)
            var_d0 = max(var_d0, max(d0) - min(d0))
            var_d1 = max(var_d1, max(d1) - min(d1))
            var_abs = max(var_abs, max(ab) - min(ab))
    overall = max(var_d0, var_d1, var_abs)
    vis = visibility(phase_sweep(ExperimentConfig(), phis))
    independent = overall == 0.0
    return NoGoReport(
        resolution=weight_grid_resolution,
        phase_count=len(phis),
        classical_config_count=(weight_grid_resolution * len(BlockedArm)
                                * len(DetectorModel)),
        max_variation_d0=var_d0,
        max_variation_d1=var_d1,
        max_variation_absorbed=var_abs,
        max_classical_variation=overall,
        amplitude_visibility=vis,
        classical_phase_independent=independent,
        passed=independent and vis >= 1.0 - REL_TOL_ALGEBRA,
    )


# ---------------------------------------------------------------------------
# detector-robustness report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorVisibilityEntry:
    model: str
    records_which_way: bool
    visibility: float
    ok: bool


@dataclass(frozen=True)
class DetectorRobustnessReport:
    entries: tuple[DetectorVisibilityEntry, ...]
    passed: bool


# O1's expectation per detector model, stated apart from the records_which_way
# it tests: True where the model records the path and the fringes must flatten.
_O1_RECORDS_WHICH_WAY = {
    DetectorModel.NONE: False, DetectorModel.NON_DEMOLISHING_SILENT: False,
    DetectorModel.NON_DEMOLISHING_RECORDING: True,
    DetectorModel.ABSORB_AND_REEMIT_RECORDING: True}


def check_O1_robustness(phis: Sequence[float]) -> DetectorRobustnessReport:
    """Fringe visibility under each detector model, amplitude composition.

    Any model that records which way the photon went must flatten the
    fringes (visibility at the rounding floor); any silent model must leave
    them at full contrast.
    """
    phis = _phase_floats(phis)
    if len(phis) < 2:
        raise ConfigError("robustness check needs at least two phases")
    entries = []
    for model in DetectorModel:
        records = _O1_RECORDS_WHICH_WAY[model]
        config = ExperimentConfig(detector_model=model)
        vis = visibility(phase_sweep(config, phis))
        if records:
            ok = vis <= REL_TOL_ALGEBRA
        else:
            ok = vis >= 1.0 - REL_TOL_SAMPLED
        entries.append(DetectorVisibilityEntry(model.value, records, vis, ok))
    return DetectorRobustnessReport(tuple(entries),
                                    passed=all(e.ok for e in entries))
