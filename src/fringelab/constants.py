"""Shared numerical policy.

Tolerances are stated once here and read everywhere else; no function, check
or command takes one as a parameter or flag, so no caller can loosen a
verdict.  REL_TOL_ALGEBRA (closed-form identities) bounds the null band of
classify_interval, the pullback residual of classify_cone_preserver, the
FrameMap singularity test, check_global_phase_invariance,
carrier_minimality_check, mixture-weight sums, the no-go and which-way
visibilities, and the check suite's numeric checks.  REL_TOL_SAMPLED bounds
the geometric tests polyline_is_simple (so Worldline and check_no_branching)
and preserves_null_lines, which maps the two null rays once each, and the
sampled ones: the composed-boost comparison of the velocity-addition check
and the silent-detector visibility of check_O1_robustness.

is_real is the one number test and finite_float the one finiteness test:
a number is a real (int, float, Fraction or numpy scalar) that is not a
bool, so a str, a bool, None or a Decimal is not one.  Every entry point
computes with the float finite_float returns, so a float32 input is
computed in float64, and raises its own named error for a non-number, nan,
±inf or an int too large for a float.  kinematics' _finite_array tests a
float64 numpy array whole, with one np.isfinite, which gives finite_float's
verdict on every entry at once; any other array-like is walked entry by
entry through finite_float.  is_count is the matching test for
an integer count (trials, grid sizes): an int or numpy integer, not a bool.
is_seed adds the one range of a seed, [0, 2**64).  enum_member reads an enum.

np is the one binding of numpy: kinematics, checks and cli take it from here.
numpy is imported at the first attribute read, so a command that computes on
plain floats (interfere, nogo) never loads it.  import_module holds numpy's
import lock, so two threads that read first both get the loaded module.
"""

import importlib
import math
import numbers

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

# Default path-weight grid resolution of the classical no-go search.
DEFAULT_RESOLUTION = 101


class _Numpy:
    """numpy, imported at the first attribute read; each read is kept."""

    def __getattr__(self, name):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)
        return value


np = _Numpy()


def is_real(value) -> bool:
    """True for a real number: a numbers.Real that is not a bool."""
    # An exact float or int answers without the ABC walk; a bool, a subclass
    # and a numpy scalar take the numbers.Real test.
    kind = type(value)
    if kind is float or kind is int:
        return True
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def is_count(value) -> bool:
    """True for an integer count: an int or numpy integer, not a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def is_seed(value) -> bool:
    """True for a seed: a count (see is_count) that fits an unsigned 64-bit int."""
    return is_count(value) and 0 <= int(value) < 2 ** 64


def finite_float(value) -> float | None:
    """float(value) for a finite real number (see is_real), else None."""
    if type(value) is float:  # an exact float is its own value
        return value if math.isfinite(value) else None
    # A numpy float64 skips the slow Real test, and is_real answers an int
    # by its type.
    if not (isinstance(value, float) or is_real(value)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        return None
    return value if math.isfinite(value) else None


def enum_member(kind, value, name: str, problems: list):
    """``value`` as a member of the Enum ``kind``; else None, after appending
    the problem of field ``name`` to ``problems``."""
    if type(value) is kind:  # only a non-member pays for the Enum lookup
        return value
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(m.value for m in kind)
        problems.append(f"{name}: {value!r} is not one of [{allowed}]")
