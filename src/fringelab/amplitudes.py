"""Minimal amplitude calculus on a two-real-dimension carrier.

The carrier is the standard complex plane written as pairs ``(re, im)``.
Four structural rules drive everything here: amplitudes of indistinguishable
alternatives add; amplitudes of consecutive legs multiply; recombination of
distinguishable alternatives adds outcome weights instead (a classical
mixture); and a continuous one-parameter multiplicative phase action
``phase(a) * phase(b) = phase(a + b)`` supplies the tunable relative phase.

Probability is deliberately not hard-wired to the squared norm.  Any
functional from amplitudes to nonnegative weights can be wrapped as a
ProbabilityRule and passed to evaluate or simulate, which refuse anything
else; the squared norm is only the default realization, and the tests
assert just the minimal requirements (global-phase invariance,
normalization, additivity over distinguishable outcomes).

carrier_minimality_check probes why two real dimensions are needed: on a
one-dimensional real carrier the only continuous multiplicative phase
actions are u_s(phi) = exp(s*phi), and no choice of s both leaves a
norm-based weight invariant and lets relative phase move recombination
statistics, while the planar rotation action does both.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence as SequenceType, Union

from .constants import REL_TOL_ALGEBRA, finite_float, is_count, is_real


class AmplitudeError(ValueError):
    """Invalid amplitude value or composition."""


class GraphStructureError(AmplitudeError):
    """Malformed alternative graph."""


class DegenerateOutcomesError(AmplitudeError):
    """Every declared outcome has weight zero; normalization is undefined."""


# ---------------------------------------------------------------------------
# carrier
# ---------------------------------------------------------------------------


_NOT_FINITE = "amplitude components must be finite"


@dataclass(frozen=True)
class Amplitude:
    """One process amplitude: a point (re, im) of the planar carrier."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        re, im = finite_float(self.re), finite_float(self.im)
        if re is None or im is None:
            raise AmplitudeError(_NOT_FINITE)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)


ZERO = Amplitude(0.0, 0.0)
UNIT = Amplitude(1.0, 0.0)


def phase(phi: float) -> Amplitude:
    """Unit-norm carrier element u(phi) = (cos phi, sin phi)."""
    phi = finite_float(phi)
    if phi is None:
        raise AmplitudeError("phase must be finite")
    return Amplitude(math.cos(phi), math.sin(phi))


def sum_alternatives(a: Amplitude, b: Amplitude) -> Amplitude:
    """Amplitude of 'path a or path b' when nothing records which one."""
    return Amplitude(a.re + b.re, a.im + b.im)


def concat(a: Amplitude, b: Amplitude) -> Amplitude:
    """Amplitude of leg a followed by leg b: the carrier product."""
    return Amplitude(a.re * b.re - a.im * b.im,
                     a.re * b.im + a.im * b.re)


def norm_squared(a: Amplitude) -> float:
    return a.re * a.re + a.im * a.im


# ---------------------------------------------------------------------------
# probability rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityRule:
    """Named functional sending an amplitude to a nonnegative weight.

    Rules are passed as objects wherever a weight is needed.  They are
    expected to be invariant under a global phase and to produce weights
    that normalize additively over distinguishable outcomes;
    check_global_phase_invariance tests the first property.  ``name`` must
    be a str and ``weight`` callable, or construction raises AmplitudeError.
    Every weight a rule returns is checked to be finite and nonnegative, and
    an arithmetic error its function raises becomes an AmplitudeError naming
    the rule.
    """

    name: str
    weight: Callable[[Amplitude], float]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise AmplitudeError(
                f"name: must be a str, got {type(self.name).__name__}")
        if not callable(self.weight):
            raise AmplitudeError(
                f"weight: must be callable, got {type(self.weight).__name__}")

    def __call__(self, a: Amplitude) -> float:
        try:
            weight = self.weight(a)
        except ArithmeticError as err:
            raise AmplitudeError(f"rule {self.name!r} raised {err!r}") from err
        value = finite_float(weight)
        if value is None:
            # not a number; a rational (an int, say) too large for a float;
            # or nan or ±inf
            if not is_real(weight):
                shown = repr(weight)
            elif isinstance(weight, numbers.Rational):
                shown = "too large for a float"
            else:
                shown = repr(float(weight))
        elif value < 0.0:
            shown = repr(value)
        else:
            return value
        raise AmplitudeError(
            f"rule {self.name!r} produced an invalid weight {shown}")


SQUARED_NORM = ProbabilityRule("squared-norm", norm_squared)


def _require_rule(rule) -> None:
    # Only a ProbabilityRule checks the weights it returns, so a weight
    # enters through one or not at all.
    if not isinstance(rule, ProbabilityRule):
        raise AmplitudeError(
            f"rule: must be a ProbabilityRule, got {type(rule).__name__}")


# ---------------------------------------------------------------------------
# alternative graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sequence:
    """Consecutive legs of one path; amplitudes multiply."""

    children: tuple

    def __post_init__(self):
        children = tuple(self.children)
        if not children:
            raise GraphStructureError("sequence node needs at least one child")
        for ch in children:
            _require_graph(ch)
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Branch:
    """Parallel alternatives; ``distinguishable`` must be True or False.

    ``False`` means no which-way record exists at recombination, so the
    alternatives keep one joint amplitude (the sum).  ``True`` means a
    record exists and the alternatives are mutually exclusive outcomes whose
    weights add.  Any other value ("false", None) raises GraphStructureError.
    """

    children: tuple
    distinguishable: bool

    def __post_init__(self):
        children = tuple(self.children)
        if len(children) < 2:
            raise GraphStructureError("branch node needs at least two children")
        for ch in children:
            _require_graph(ch)
        if not isinstance(self.distinguishable, bool):
            raise GraphStructureError("distinguishable: must be True or False, "
                                      f"got {self.distinguishable!r}")
        object.__setattr__(self, "children", children)


# A leaf of a graph is its Amplitude: one leg.
AlternativeGraph = Union[Amplitude, Sequence, Branch]


def _require_graph(g) -> None:
    if not isinstance(g, (Amplitude, Sequence, Branch)):
        raise GraphStructureError(
            f"expected a graph node, got {type(g).__name__}")


def _pairs(g: AlternativeGraph) -> list[tuple[float, float]]:
    """components(g) as (re, im) float pairs, with the same arithmetic.

    A sequence left-folds the carrier product over its children, first
    child slowest, as ``functools.reduce(concat, ...)`` over each
    ``itertools.product`` combination does; a coherent branch adds each
    child's one pair to ``0.0, 0.0``, as ``sum_alternatives`` from ``ZERO``
    does.  Each product and sum is checked as building its Amplitude would
    check it.
    """
    if isinstance(g, Amplitude):
        return [(g.re, g.im)]
    children = g.children
    if isinstance(g, Sequence):
        for ch in children:
            if not isinstance(ch, Amplitude):
                break
        else:  # all leaves: the fold below, on two floats
            re, im = children[0].re, children[0].im
            for b in children[1:]:
                re, im = re * b.re - im * b.im, re * b.im + im * b.re
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise AmplitudeError(_NOT_FINITE)
            return [(re, im)]
    parts = []
    for ch in children:
        if isinstance(ch, Amplitude):  # read in place: one call fewer per leaf
            parts.append([(ch.re, ch.im)])
        else:
            parts.append(_pairs(ch))
    if isinstance(g, Sequence):
        out = parts[0]
        for nxt in parts[1:]:
            folded = []
            for are, aim in out:
                for bre, bim in nxt:
                    re, im = are * bre - aim * bim, are * bim + aim * bre
                    if not (math.isfinite(re) and math.isfinite(im)):
                        raise AmplitudeError(_NOT_FINITE)
                    folded.append((re, im))
            out = folded
        return out
    if g.distinguishable:
        return list(itertools.chain.from_iterable(parts))
    re = im = 0.0
    for pairs in parts:
        if len(pairs) != 1:
            raise GraphStructureError(
                "cannot coherently sum a child that already carries "
                "distinguishable components")
        (bre, bim), = pairs
        re, im = re + bre, im + bim
        if not (math.isfinite(re) and math.isfinite(im)):
            raise AmplitudeError(_NOT_FINITE)
    return [(re, im)]


def components(g: AlternativeGraph) -> tuple[Amplitude, ...]:
    """Mutually exclusive amplitude components of a process graph.

    A graph with no distinguishable branching reduces to a single amplitude.
    Each distinguishable branch multiplies the component count; a sequence
    forms the cross product of its children's components.  Summing a branch
    whose child still carries several distinguishable components would erase
    recorded which-way information, so that shape is rejected.
    """
    # Sequence and Branch checked their children; only a root can be a non-node.
    _require_graph(g)
    return tuple(Amplitude(re, im) for re, im in _pairs(g))


def _weight_sum(weights: Iterable[float]) -> float:
    try:
        return math.fsum(weights)
    except OverflowError:
        raise AmplitudeError("rule weights sum past the largest float") from None


def evaluate(g: AlternativeGraph, rule: ProbabilityRule = SQUARED_NORM) -> float:
    """Raw (unnormalized) outcome weight of one process graph.

    Under SQUARED_NORM each pair weighs ``re*re + im*im``, as norm_squared
    computes it; a weight past the largest float goes to the rule, which
    names it.  Any other rule is handed an Amplitude.
    """
    _require_graph(g)
    if rule is not SQUARED_NORM:
        _require_rule(rule)
    weights = []
    for re, im in _pairs(g):
        w = re * re + im * im if rule is SQUARED_NORM else math.inf
        weights.append(w if w < math.inf else rule(Amplitude(re, im)))
    return _weight_sum(weights)


def evaluate_outcomes(outcomes: Mapping[str, AlternativeGraph],
                      rule: ProbabilityRule = SQUARED_NORM) -> dict[str, float]:
    """Normalized weights over a set of declared, mutually exclusive outcomes.

    Raises DegenerateOutcomesError when every outcome weighs zero (for
    example full destructive cancellation with no alternative port); silent
    renormalization of 0/0 would hide modeling mistakes.
    """
    if not outcomes:
        raise GraphStructureError("need at least one declared outcome")
    raw = {name: evaluate(g, rule) for name, g in outcomes.items()}
    total = _weight_sum(raw.values())
    if total <= 0.0:
        raise DegenerateOutcomesError(
            "all declared outcomes have zero weight; nothing to normalize")
    return {name: w / total for name, w in raw.items()}


# ---------------------------------------------------------------------------
# rule and carrier diagnostics
# ---------------------------------------------------------------------------


def check_global_phase_invariance(rule: ProbabilityRule, trials: int, rng) -> bool:
    """True iff P(u(phi) A) == P(A) over random trials.

    The two weights may differ by REL_TOL_ALGEBRA times the larger one, so
    the verdict does not depend on the rule's units.  ``rng``, a
    ``numpy.random.Generator``, draws each trial's A and phi.
    """
    if rule is not SQUARED_NORM:
        _require_rule(rule)
    if not is_count(trials):
        raise AmplitudeError("trials must be an integer")
    if trials < 1:
        raise AmplitudeError("trials must be at least 1")
    for _ in range(trials):
        a = Amplitude(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        w_turned, w_a = rule(concat(phase(phi), a)), rule(a)
        if abs(w_turned - w_a) > REL_TOL_ALGEBRA * max(w_turned, w_a):
            return False
    return True


@dataclass(frozen=True)
class CarrierActionRecord:
    """Behaviour of the 1D action u_s(phi) = exp(s*phi) for one exponent."""

    exponent: float
    phase_invariant: bool
    alters_recombination: bool

    @property
    def satisfies_both(self) -> bool:
        return self.phase_invariant and self.alters_recombination


@dataclass(frozen=True)
class CarrierMinimalityReport:
    actions: tuple[CarrierActionRecord, ...]
    one_dimensional_success: bool
    two_dimensional_invariant: bool
    two_dimensional_alters: bool
    passed: bool


_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def carrier_minimality_check(phis: SequenceType[float]
                             ) -> CarrierMinimalityReport:
    """Probe whether a 1D real carrier can host a workable phase action.

    Continuity plus the multiplicative group law force any one-parameter
    action on the positive reals into the family u_s(phi) = exp(s*phi), so
    scanning a sign-representative exponent grid (with s=0 included) covers
    the 1D options.  For each s the report records whether a norm-squared
    weight is invariant under the action and whether the recombined weight
    of two unit paths with relative phase phi depends on phi.  The planar
    rotation action is measured the same way for contrast; it is the one
    that achieves both.  A grid with |phi| beyond about 177.4 overflows a
    float in (1 + exp(s*phi))**2 for s = ±2 and raises AmplitudeError.
    """
    phis = [finite_float(p) for p in phis]
    if not phis:
        raise AmplitudeError("phase grid must be nonempty")
    if None in phis:
        raise AmplitudeError("phase grid must be finite")
    probes = (1.0, 0.7, -1.3)
    records = []
    try:
        for s in _EXPONENTS:
            acted = ((math.exp(s * p) * a, a) for a in probes for p in phis)
            invariant = all(abs(u * u - a * a) <= REL_TOL_ALGEBRA
                            for u, a in acted)
            recombined = [(1.0 + math.exp(s * p)) ** 2 for p in phis]
            alters = (max(recombined) - min(recombined)) > REL_TOL_ALGEBRA
            records.append(CarrierActionRecord(s, invariant, alters))
    except OverflowError:
        raise AmplitudeError(f"phase grid spanning [{min(phis)!r}, "
                             f"{max(phis)!r}] overflows a float") from None
    two_invariant = all(
        abs(norm_squared(concat(phase(p), Amplitude(a, 0.3))) -
            norm_squared(Amplitude(a, 0.3))) <= REL_TOL_ALGEBRA
        for a in probes for p in phis)
    two_recombined = [norm_squared(sum_alternatives(UNIT, phase(p)))
                      for p in phis]
    two_alters = (max(two_recombined) - min(two_recombined)) > REL_TOL_ALGEBRA
    one_success = any(rec.satisfies_both for rec in records)
    return CarrierMinimalityReport(
        actions=tuple(records),
        one_dimensional_success=one_success,
        two_dimensional_invariant=two_invariant,
        two_dimensional_alters=two_alters,
        passed=(not one_success) and two_invariant and two_alters,
    )
