"""The amplitude calculus as it ran before it ran on float pairs: the oracle.

``components`` is the recursive walker that builds a frozen ``Amplitude``
for every product and sum, with ``functools.reduce(concat, ...)`` over each
``itertools.product`` combination and ``sum_alternatives`` from ``ZERO``.
``simulate_amplitude`` builds both Mach-Zehnder outcome graphs from scratch,
every leaf included, weighs them through the oracle and normalizes the
weights itself.  The package's pair walker, fixed-leg cache and normalizer
must agree with these bit for bit.
"""

import functools
import itertools
import math

from fringelab.amplitudes import (
    ZERO,
    Amplitude,
    Branch,
    GraphStructureError,
    Sequence,
    _weight_sum,
    concat,
    phase,
    sum_alternatives,
)
from fringelab.interference import OutcomeDistribution


def components(g):
    if isinstance(g, Amplitude):
        return (g,)
    if isinstance(g, Sequence):
        parts = [components(ch) for ch in g.children]
        return tuple(functools.reduce(concat, combo)
                     for combo in itertools.product(*parts))
    if not isinstance(g, Branch):
        raise GraphStructureError(
            f"expected a graph node, got {type(g).__name__}")
    child_components = [components(ch) for ch in g.children]
    if g.distinguishable:
        return tuple(itertools.chain.from_iterable(child_components))
    total = ZERO
    for comps in child_components:
        if len(comps) != 1:
            raise GraphStructureError(
                "cannot coherently sum a child that already carries "
                "distinguishable components")
        total = sum_alternatives(total, comps[0])
    return (total,)


def evaluate(g, rule):
    return _weight_sum([rule(a) for a in components(g)])


def outcome_graphs(config):
    """The two outcome graphs (to D0, to D1), every leaf built anew.

    The bench takes a -0.0 splitter as 0.0 (see
    ``interference._fixed_parts``), and so does the oracle.
    """
    T1, T2 = config.splitter1 + 0.0, config.splitter2 + 0.0
    t1, r1 = math.sqrt(T1), math.sqrt(1.0 - T1)
    t2, r2 = math.sqrt(T2), math.sqrt(1.0 - T2)
    recorded = config.detector_model.records_which_way
    upper_in = Sequence((Amplitude(t1, 0.0), phase(config.phase)))
    lower_in = Amplitude(0.0, r1)
    to_d0 = Branch((Sequence((upper_in, Amplitude(0.0, r2))),
                    Sequence((lower_in, Amplitude(t2, 0.0)))),
                   distinguishable=recorded)
    to_d1 = Branch((Sequence((upper_in, Amplitude(t2, 0.0))),
                    Sequence((lower_in, Amplitude(0.0, r2)))),
                   distinguishable=recorded)
    return to_d0, to_d1


def simulate_amplitude(config, rule):
    # Normalized with the expressions of test_interference's
    # _reference_classical, not by the bench's own normalizer.
    to_d0, to_d1 = outcome_graphs(config)
    w_d0, w_d1, w_absorbed = evaluate(to_d0, rule), evaluate(to_d1, rule), 0.0
    total = w_d0 + w_d1 + w_absorbed
    p0, p1, pa = w_d0 / total, w_d1 / total, w_absorbed / total
    detected = p0 + p1
    if detected > 0.0:
        cond0, cond1 = p0 / detected, p1 / detected
    else:
        cond0 = cond1 = None
    return OutcomeDistribution(p0, p1, pa, cond0, cond1)
