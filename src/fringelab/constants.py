"""Shared numerical policy.

Tolerances are stated once here and read everywhere else; no function, check
or command takes one as a parameter or flag, so no caller can loosen a
verdict.  REL_TOL_ALGEBRA (closed-form identities) bounds the null band of
classify_interval, the pullback residual of classify_cone_preserver, the
FrameMap singularity test, check_global_phase_invariance,
carrier_minimality_check, mixture-weight sums, the no-go and which-way
visibilities, and the check suite's numeric checks.  REL_TOL_SAMPLED
(sampled and geometric tests) bounds polyline_is_simple (so Worldline and
check_no_branching), preserves_null_lines, the FrameMap boost-matrix match
and the silent-detector visibility of check_O1_robustness.
"""

# Speed of light in natural units; every formula keeps c explicit so other
# unit systems work by passing c.
DEFAULT_C = 1.0

# Relative tolerance for closed-form algebraic identities.
REL_TOL_ALGEBRA = 1e-12

# Relative tolerance for sampled / geometric checks.
REL_TOL_SAMPLED = 1e-9

# Velocities within this relative band of c are rejected for both boost
# branches: the stretch factors diverge and no limiting map is defined.
SPEED_GUARD_BAND = 1e-12

# Default seed for randomized property trials (overridable per run).
DEFAULT_SEED = 1234

# Default iteration count for randomized property trials.
DEFAULT_TRIALS = 1000
