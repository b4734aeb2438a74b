"""Desk-scale verification lab for extended boosts, interference, and amplitudes.

Three layers: ``kinematics`` holds the 1+1 boost pair (subluminal and the
formal faster-than-light branch), interval classification, and worldline
topology checks; ``amplitudes`` holds the planar amplitude calculus with
pluggable probability rules; ``interference`` runs the Mach-Zehnder
benchmark under amplitude or classical-mixture composition from
``amplitudes`` and ``constants`` alone: neither imports ``kinematics`` or
numpy.  ``checks`` joins the layers: the suite behind ``fringelab check``
and the O3 frame report live there.  ``schemas`` pins the JSON/CSV formats.
"""

from .amplitudes import (
    Amplitude,
    Branch,
    ProbabilityRule,
    SQUARED_NORM,
    Sequence,
    carrier_minimality_check,
    check_global_phase_invariance,
    components,
    concat,
    evaluate,
    evaluate_outcomes,
    phase,
    sum_alternatives,
)
from .checks import check_O3_frame_invariance
from .interference import (
    BlockedArm,
    Composition,
    DetectorModel,
    ExperimentConfig,
    OutcomeDistribution,
    check_O1_robustness,
    no_go_search,
    phase_sweep,
    simulate,
    uniform_phase_grid,
    visibility,
)
from .kinematics import (
    BranchKind,
    ConeClass,
    FrameMap,
    IntervalKind,
    SpacetimePoint,
    Worldline,
    check_no_branching,
    classify_cone_preserver,
    classify_interval,
    compose,
    in_causal_past,
    lorentz_boost,
    past_worldline_segment,
    preserves_null_lines,
    superluminal_map,
)

__version__ = "0.1.0"
