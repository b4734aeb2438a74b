"""Extended 1+1 Lorentz kinematics and worldline topology checks.

Events are ordered ``(t, x)`` and represented internally as vectors
``[t, x1, ...]`` with the metric ``diag(-c^2, 1, ...)``, so the signed
interval of a displacement is ``|dx|^2 - c^2 dt^2`` (negative: timelike,
positive: spacelike, zero: null).

Two boost branches are provided.  The standard subluminal boost,

    t' = g (t - V x / c^2),   x' = g (x - V t),   g = 1/sqrt(1 - V^2/c^2),

is an isometry of the interval.  The formal faster-than-light branch,
defined for |V| > c,

    t' = eta gt (t - V x / c^2),   x' = eta gt (x - V t),
    gt = 1/sqrt(V^2/c^2 - 1),      eta in {+1, -1},

negates the interval (an anti-isometry, valid as a map only in 1+1).  The
sign ``eta`` is a free choice: no continuity argument from small velocities
fixes it, so callers must always supply it explicitly.

All values here are immutable and all operations are pure functions; the
module is safe for arbitrary parallel use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .constants import (
    DEFAULT_C,
    REL_TOL_ALGEBRA,
    REL_TOL_SAMPLED,
    SPEED_GUARD_BAND,
)


class KinematicsError(ValueError):
    """Invalid kinematic construction or operation."""


class SpeedDomainError(KinematicsError):
    """Velocity outside the domain of the requested branch."""


class SingularMapError(KinematicsError):
    """Linear part is not invertible within tolerance."""


def _is_number(v) -> bool:
    # A bool is not a number, and neither is an int too large for a float.
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _finite_array(value) -> np.ndarray | None:
    """``value`` as a float array, or None unless every entry is a finite number."""
    try:
        entries = np.array(value, dtype=object)
    except ValueError:  # nesting that numpy cannot shape
        return None
    if all(_is_number(v) and math.isfinite(v) for v in entries.flat):
        return entries.astype(float)
    return None


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacetimePoint:
    """An event ``(t, x)`` with 1 or 3 spatial coordinates.

    ``x`` may be given as a bare float (1+1) or a length-1 or length-3
    sequence; it is stored as a tuple.
    """

    t: float
    x: tuple[float, ...]

    def __post_init__(self):
        t = float(self.t)
        x = self.x
        if isinstance(x, (int, float)):
            x = (float(x),)
        else:
            x = tuple(float(v) for v in x)
        if len(x) not in (1, 3):
            raise KinematicsError(
                f"spatial part must have 1 or 3 components, got {len(x)}")
        if not math.isfinite(t) or not all(math.isfinite(v) for v in x):
            raise KinematicsError("event coordinates must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def spatial_dim(self) -> int:
        return len(self.x)

    def to_vector(self) -> np.ndarray:
        return np.array((self.t,) + self.x, dtype=float)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "SpacetimePoint":
        vec = np.asarray(vec, dtype=float)
        return cls(vec[0], vec[1:])


def event_interval(p: SpacetimePoint, c: float = DEFAULT_C) -> float:
    """Signed interval of ``p`` relative to the origin: |x|^2 - c^2 t^2."""
    try:
        value = math.fsum(v * v for v in p.x) - (c * p.t) ** 2
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise KinematicsError(f"interval: not a finite float for {p}")
    return value


# ---------------------------------------------------------------------------
# interval classification and causal structure
# ---------------------------------------------------------------------------


class IntervalKind(str, Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"


def classify_interval(a: SpacetimePoint, b: SpacetimePoint,
                      c: float = DEFAULT_C) -> IntervalKind:
    """Classify the separation of two events by the sign of |dx|^2 - c^2 dt^2.

    The null band is relative: |value| <= REL_TOL_ALGEBRA * (|dx|^2 +
    c^2 dt^2), so classification is invariant under rescaling all coordinates.
    An interval that does not fit a float raises KinematicsError.
    """
    if a.spatial_dim != b.spatial_dim:
        raise KinematicsError("events have different dimensions")
    try:
        space = math.fsum((xb - xa) ** 2 for xa, xb in zip(a.x, b.x))
        time = (c * (b.t - a.t)) ** 2
        value = space - time
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise KinematicsError(f"interval: not a finite float from {a} to {b}")
    if abs(value) <= REL_TOL_ALGEBRA * (space + time):
        return IntervalKind.NULL
    return IntervalKind.TIMELIKE if value < 0.0 else IntervalKind.SPACELIKE


def in_causal_past(e: SpacetimePoint, candidate: SpacetimePoint,
                   c: float = DEFAULT_C) -> bool:
    """True iff ``candidate`` lies in the causal past of ``e``.

    Membership uses the standard lightcone only: timelike-or-null separation
    and coordinate time not after ``e`` in the canonical frame.  The
    faster-than-light maps play no role here.
    """
    return (classify_interval(e, candidate, c) is not IntervalKind.SPACELIKE
            and candidate.t <= e.t)


# ---------------------------------------------------------------------------
# boost matrices
# ---------------------------------------------------------------------------


def _require_light_speed(c: float):
    # The boost formulas divide by c*c, so the square must be a positive
    # finite float too (a tiny c underflows it to zero, a huge one to inf).
    if not (_is_number(c) and c > 0.0 and 0.0 < float(c) * float(c) < math.inf):
        raise KinematicsError(
            f"c: must be positive with a finite nonzero square, got {c!r}")


def _require_subluminal(V: float, c: float):
    _require_light_speed(c)
    if not math.isfinite(V):
        raise SpeedDomainError("V: must be finite")
    if abs(V) >= c * (1.0 - SPEED_GUARD_BAND):
        raise SpeedDomainError(
            f"V: subluminal branch needs |V| < c, got V={V!r} with c={c!r}")


def _require_superluminal(V: float, c: float):
    _require_light_speed(c)
    if not math.isfinite((V / c) * (V / c)):  # superluminal_gamma squares V/c
        raise SpeedDomainError(
            f"V: (V/c)^2 must be a finite float, got V={V!r} with c={c!r}")
    if abs(V) <= c * (1.0 + SPEED_GUARD_BAND):
        raise SpeedDomainError(
            f"V: superluminal branch needs |V| > c, got V={V!r} with c={c!r}")


def lorentz_gamma(V: float, c: float = DEFAULT_C) -> float:
    """Stretch factor 1/sqrt(1 - V^2/c^2) for |V| < c."""
    _require_subluminal(V, c)
    return 1.0 / math.sqrt(1.0 - (V / c) ** 2)


def superluminal_gamma(V: float, c: float = DEFAULT_C) -> float:
    """Stretch factor 1/sqrt(V^2/c^2 - 1) for |V| > c."""
    _require_superluminal(V, c)
    return 1.0 / math.sqrt((V / c) ** 2 - 1.0)


def boost_matrix(V: float, c: float = DEFAULT_C,
                 spatial_dim: int = 1) -> np.ndarray:
    """Matrix of an x-axis boost acting on (t, x[, y, z]) vectors."""
    g = lorentz_gamma(V, c)
    m = np.eye(spatial_dim + 1)
    m[0, 0] = g
    m[0, 1] = -g * V / (c * c)
    m[1, 0] = -g * V
    m[1, 1] = g
    return m


def superluminal_matrix(V: float, eta: int, c: float = DEFAULT_C) -> np.ndarray:
    """Matrix of the formal |V| > c map on (t, x) vectors, 1+1 only.

    Negates the interval exactly: the pullback of diag(-c^2, 1) is its own
    negative for either sign of eta.
    """
    if isinstance(eta, bool) or eta not in (1, -1):
        raise KinematicsError(f"eta: must be +1 or -1, got {eta!r}")
    g = superluminal_gamma(V, c)
    return eta * g * np.array([[1.0, -V / (c * c)],
                               [-V, 1.0]])


def general_boost_matrix(v: Sequence[float], c: float = DEFAULT_C) -> np.ndarray:
    """1+3 boost along an arbitrary 3-velocity, acting on (t, x, y, z)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise KinematicsError("velocity must be a 3-vector")
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        return np.eye(4)
    g = lorentz_gamma(speed, c)
    m = np.eye(4)
    m[0, 0] = g
    m[0, 1:] = -g * v / (c * c)
    m[1:, 0] = -g * v
    m[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(v, v) / (speed * speed)
    return m


def rotation_matrix(axis: Sequence[float], angle: float) -> np.ndarray:
    """1+3 spatial rotation about ``axis`` (Rodrigues form), time untouched."""
    a = np.asarray(axis, dtype=float)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise KinematicsError("rotation axis must be nonzero")
    a = a / n
    k = np.array([[0.0, -a[2], a[1]],
                  [a[2], 0.0, -a[0]],
                  [-a[1], a[0], 0.0]])
    r3 = (math.cos(angle) * np.eye(3) + math.sin(angle) * k
          + (1.0 - math.cos(angle)) * np.outer(a, a))
    m = np.eye(4)
    m[1:, 1:] = r3
    return m


# ---------------------------------------------------------------------------
# frame maps
# ---------------------------------------------------------------------------


class BranchKind(str, Enum):
    SUBLUMINAL = "subluminal"
    SUPERLUMINAL = "superluminal"
    GENERAL_LINEAR = "general-linear"


@dataclass(frozen=True, eq=False)
class FrameMap:
    """An affine map between coordinate descriptions.

    ``branch`` (a BranchKind or its value) records how the map was built:
    the boost branches carry their velocity (and, for the faster-than-light
    branch, the mandatory sign ``eta``), build their linear part from it and
    check a given one against it; anything else is ``general-linear`` and
    needs ``linear_part``.  Every branch needs ``c`` positive with a finite
    nonzero square.  Construction is the one validator of a map's fields:
    it names every field problem in one KinematicsError, then raises
    SpeedDomainError or SingularMapError for a value outside its domain.
    """

    branch: BranchKind
    V: float | None = None
    eta: int | None = None
    linear_part: np.ndarray | None = None
    translation: np.ndarray | None = None
    c: float = DEFAULT_C

    def __post_init__(self):
        branch, V, eta, lin, tr, c = (self.branch, self.V, self.eta,
                                      self.linear_part, self.translation, self.c)
        problems = []
        try:
            branch = BranchKind(branch)
        except ValueError:
            allowed = ", ".join(m.value for m in BranchKind)
            problems.append(f"branch: {branch!r} is not one of [{allowed}]")
            branch = None
        boost = branch in (BranchKind.SUBLUMINAL, BranchKind.SUPERLUMINAL)
        if V is None:
            if boost:
                problems.append(f"V: required for the {branch.value} branch")
        elif branch is BranchKind.GENERAL_LINEAR:
            problems.append("V: not allowed for the general-linear branch")
        elif not _is_number(V):
            problems.append("V: must be a number")
        if eta is None:
            if branch is BranchKind.SUPERLUMINAL:
                problems.append("eta: required for the superluminal branch "
                                "(no default; both signs are admissible)")
        elif branch in (BranchKind.SUBLUMINAL, BranchKind.GENERAL_LINEAR):
            problems.append(f"eta: not allowed for the {branch.value} branch")
        elif isinstance(eta, bool) or eta not in (1, -1):
            problems.append("eta: must be 1 or -1")
        dim = 2 if boost else None
        if lin is not None:
            lin = _finite_array(lin)
            if lin is None or lin.shape not in ((2, 2), (4, 4)):
                problems.append("linear_part: must be a 2x2 (1+1) or 4x4 (1+3) "
                                "matrix of finite numbers")
                lin = dim = None
            else:
                dim = len(lin)
        elif branch is BranchKind.GENERAL_LINEAR:
            problems.append("linear_part: required for the general-linear branch")
        tr = np.zeros(dim or 2) if tr is None else _finite_array(tr)
        if tr is None or tr.ndim != 1:
            problems.append("translation: must be a list of finite numbers")
        elif dim is not None and len(tr) != dim:
            problems.append(f"translation: must have {dim} components")
        try:
            _require_light_speed(c)
        except KinematicsError as err:
            problems.append(str(err))
        if problems:
            raise KinematicsError("; ".join(problems))
        if branch is BranchKind.GENERAL_LINEAR:
            # |det L| over the product of its row lengths (Hadamard's bound)
            # lies in [0, 1] and is unchanged when L is scaled.  Each row is
            # first divided by its largest entry, so nothing over- or underflows.
            peaks = np.max(np.abs(lin), axis=1, keepdims=True)
            rows = lin / np.where(peaks > 0.0, peaks, 1.0)
            lengths = np.linalg.norm(rows, axis=1)
            if abs(np.linalg.det(rows)) <= REL_TOL_ALGEBRA * np.prod(lengths):
                raise SingularMapError("linear_part: singular within tolerance, "
                                       "relative to its row lengths")
        else:
            V = float(V)
            if branch is BranchKind.SUBLUMINAL:
                expected = boost_matrix(V, c, dim - 1)
            else:
                eta = int(eta)
                expected = superluminal_matrix(V, eta, c)
            if lin is None:
                lin = expected
            elif lin.shape != expected.shape or not np.allclose(
                    lin, expected, rtol=REL_TOL_SAMPLED,
                    atol=REL_TOL_SAMPLED * np.max(np.abs(expected))):
                raise KinematicsError(
                    f"linear_part: does not match the {branch.value} matrix "
                    f"for V={V!r}, eta={eta!r}")
        lin.setflags(write=False)
        tr.setflags(write=False)
        for name, value in (("branch", branch), ("V", V), ("eta", eta),
                            ("linear_part", lin), ("translation", tr), ("c", float(c))):
            object.__setattr__(self, name, value)

    # -- constructors -------------------------------------------------------

    @classmethod
    def boost(cls, V: float, c: float = DEFAULT_C, spatial_dim: int = 1,
              translation: Sequence[float] | None = None) -> "FrameMap":
        lin = None if spatial_dim == 1 else boost_matrix(V, c, spatial_dim)
        return cls(BranchKind.SUBLUMINAL, V, None, lin, translation, c)

    @classmethod
    def superluminal(cls, V: float, eta: int, c: float = DEFAULT_C,
                     translation: Sequence[float] | None = None) -> "FrameMap":
        return cls(BranchKind.SUPERLUMINAL, V, eta, None, translation, c)

    @classmethod
    def general_linear(cls, linear_part: Sequence[Sequence[float]],
                       translation: Sequence[float] | None = None,
                       c: float = DEFAULT_C) -> "FrameMap":
        return cls(BranchKind.GENERAL_LINEAR, None, None, linear_part,
                   translation, c)

    @classmethod
    def identity(cls, spatial_dim: int = 1, c: float = DEFAULT_C) -> "FrameMap":
        return cls.boost(0.0, c, spatial_dim)

    # -- behaviour ----------------------------------------------------------

    @property
    def spatial_dim(self) -> int:
        return self.linear_part.shape[0] - 1

    @property
    def is_identity(self) -> bool:
        n = self.linear_part.shape[0]
        return (np.array_equal(self.linear_part, np.eye(n))
                and not np.any(self.translation))

    def apply(self, p: SpacetimePoint) -> SpacetimePoint:
        if p.spatial_dim != self.spatial_dim:
            raise KinematicsError("event dimension does not match the map")
        return SpacetimePoint.from_vector(
            self.linear_part @ p.to_vector() + self.translation)

    __call__ = apply


# ---------------------------------------------------------------------------
# point operations
# ---------------------------------------------------------------------------


def lorentz_boost(p: SpacetimePoint, V: float, c: float = DEFAULT_C) -> SpacetimePoint:
    """Boost an event along the x axis; preserves every pair interval."""
    m = boost_matrix(V, c, p.spatial_dim)
    return SpacetimePoint.from_vector(m @ p.to_vector())


def superluminal_map(p: SpacetimePoint, V: float, eta: int,
                     c: float = DEFAULT_C) -> SpacetimePoint:
    """Apply the formal |V| > c map; negates every interval (1+1 only)."""
    if p.spatial_dim != 1:
        raise KinematicsError("the superluminal branch exists only in 1+1")
    m = superluminal_matrix(V, eta, c)
    return SpacetimePoint.from_vector(m @ p.to_vector())


def velocity_addition(V1: float, V2: float, c: float = DEFAULT_C) -> float:
    """Relativistic composition of two collinear subluminal velocities."""
    _require_subluminal(V1, c)
    _require_subluminal(V2, c)
    return (V1 + V2) / (1.0 + V1 * V2 / (c * c))


def compose(f: FrameMap, g: FrameMap) -> FrameMap:
    """The affine map applying ``g`` first, then ``f``.

    The branch of the result is re-classified rather than asserted as a
    group product: two subluminal boosts compose to the velocity-addition
    boost when FrameMap accepts that tag; everything else is returned as
    general-linear, with its interval behaviour left to
    classify_cone_preserver (two interval-flipping maps compose to an
    interval-preserving one, a mixed pair flips).
    """
    if f.spatial_dim != g.spatial_dim:
        raise KinematicsError("cannot compose maps of different dimensions")
    if f.c != g.c:
        raise KinematicsError("cannot compose maps with different c")
    if g.is_identity:
        return f
    if f.is_identity:
        return g
    lin = f.linear_part @ g.linear_part
    tr = f.linear_part @ g.translation + f.translation
    if f.branch is BranchKind.SUBLUMINAL and g.branch is BranchKind.SUBLUMINAL:
        V = velocity_addition(f.V, g.V, f.c)
        try:
            return FrameMap(BranchKind.SUBLUMINAL, V, None, lin, tr, f.c)
        except KinematicsError:
            # Near light speed the rounded sum can land on the guard band, or
            # the matrix rebuilt from it can miss the product; stay untagged.
            pass
    return FrameMap(BranchKind.GENERAL_LINEAR, None, None, lin, tr, f.c)


# ---------------------------------------------------------------------------
# null-cone preservation
# ---------------------------------------------------------------------------


class ConeClass(str, Enum):
    CONFORMAL_LORENTZ = "conformal-lorentz"
    SIGN_FLIP = "sign-flip"
    NOT_CONE_PRESERVING = "not-cone-preserving"


@dataclass(frozen=True)
class ConeClassification:
    kind: ConeClass
    scale: float | None  # |multiplier| of the quadratic form, if cone-preserving


def classify_cone_preserver(m: FrameMap) -> ConeClassification:
    """Classify a map by the pullback of the interval form.

    Let G be the metric and L the linear part.  If L^T G L = lam * G with
    lam > 0 the map is a conformal Lorentz transformation; if lam < 0 it is
    an interval sign-flip (possible only in 1+1, where the form and its
    negative have equal signature); anything else does not preserve the
    null cone.  Decided by exact matrix algebra, not sampling, in units
    where c = 1 (time measured as c*t): the residual ||L^T G L - lam G||
    must be at most REL_TOL_ALGEBRA * ||L||^2 ||G|| (Frobenius norms), a
    bound that follows the rounding of the product (it grows with the
    cancelling terms, about gamma^2 for a boost) and scales as s^2 with L.
    """
    lin = m.linear_part.copy()
    lin[0, 1:] *= m.c
    lin[1:, 0] /= m.c
    g = np.eye(m.spatial_dim + 1)
    g[0, 0] = -1.0
    pulled = lin.T @ g @ lin
    lam = float(np.sum(pulled * g) / np.sum(g * g))
    residual = float(np.linalg.norm(pulled - lam * g))
    bound = float(np.linalg.norm(lin)) ** 2 * float(np.linalg.norm(g))
    if residual <= REL_TOL_ALGEBRA * bound:
        if lam > 0.0:
            return ConeClassification(ConeClass.CONFORMAL_LORENTZ, lam)
        return ConeClassification(ConeClass.SIGN_FLIP, -lam)
    return ConeClassification(ConeClass.NOT_CONE_PRESERVING, None)


def preserves_null_lines(m: FrameMap, rng: np.random.Generator) -> bool:
    """Sampled cross-check that the linear part maps null rays to null rays.

    Independent of classify_cone_preserver: draws 50 random null directions,
    applies the linear part, and tests the image against the null band at
    the sampled tolerance.
    """
    c = m.c
    d = m.spatial_dim
    for _ in range(50):
        if d == 1:
            u = np.array([1.0 if rng.random() < 0.5 else -1.0])
        else:
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
        ray = np.concatenate(([1.0], c * u))
        img = m.linear_part @ ray
        value = float(np.dot(img[1:], img[1:]) - (c * img[0]) ** 2)
        scale = float(np.dot(img[1:], img[1:]) + (c * img[0]) ** 2)
        if abs(value) > REL_TOL_SAMPLED * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# worldlines
# ---------------------------------------------------------------------------


class Worldline:
    """A simple piecewise-linear curve with strictly increasing proper-time labels.

    Vertices must be pairwise distinct and the polyline must not touch or
    cross itself (injectivity).  Construction enforces this unless
    ``check_simple=False``, which exists so tests can build deliberately
    broken fixtures.
    """

    def __init__(self, vertices: Iterable[SpacetimePoint],
                 taus: Sequence[float] | None = None, *,
                 check_simple: bool = True):
        verts = tuple(vertices)
        for v in verts:
            if not isinstance(v, SpacetimePoint):
                raise KinematicsError("vertices must be SpacetimePoint values")
        if len({v.spatial_dim for v in verts}) > 1:
            raise KinematicsError("vertices must share one dimension")
        if taus is None:
            taus = tuple(float(i) for i in range(len(verts)))
        else:
            taus = tuple(float(t) for t in taus)
        if len(taus) != len(verts):
            raise KinematicsError("need exactly one tau label per vertex")
        if any(not math.isfinite(t) for t in taus):
            raise KinematicsError("tau labels must be finite")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise KinematicsError("tau labels must strictly increase")
        if check_simple and len(verts) >= 2:
            pts = np.array([v.to_vector() for v in verts])
            if not polyline_is_simple(pts):
                raise KinematicsError("worldline polyline is not simple")
        self._vertices = verts
        self._taus = taus

    @property
    def vertices(self) -> tuple[SpacetimePoint, ...]:
        return self._vertices

    @property
    def taus(self) -> tuple[float, ...]:
        return self._taus

    @property
    def spatial_dim(self) -> int | None:
        return self._vertices[0].spatial_dim if self._vertices else None

    def __len__(self) -> int:
        return len(self._vertices)

    def points_array(self) -> np.ndarray:
        return np.array([v.to_vector() for v in self._vertices]).reshape(
            len(self._vertices), -1)


def past_worldline_segment(w: Worldline, e_index: int) -> Worldline:
    """Restriction of ``w`` to vertices strictly before vertex ``e_index``.

    This is the carrier of the past-worldline data of the event at
    ``e_index``: every vertex with a smaller proper-time label, excluding
    the event itself.
    """
    if not 0 <= e_index < len(w):
        raise IndexError(f"vertex index {e_index} out of range")
    return Worldline(w.vertices[:e_index], w.taus[:e_index], check_simple=False)


# -- polyline geometry ------------------------------------------------------


def _segment_pair_distance(p0, p1, q0, q1) -> float:
    # Minimum distance between segments [p0,p1] and [q0,q1], any dimension.
    d1 = [b - a for a, b in zip(p0, p1)]
    d2 = [b - a for a, b in zip(q0, q1)]
    r = [a - b for a, b in zip(p0, q0)]
    a = sum(v * v for v in d1)
    e = sum(v * v for v in d2)
    f = sum(v * w for v, w in zip(d2, r))
    if a == 0.0 and e == 0.0:
        return math.sqrt(sum(v * v for v in r))
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        s = 0.0
    else:
        cc = sum(v * w for v, w in zip(d1, r))
        if e == 0.0:
            t = 0.0
            s = min(1.0, max(0.0, -cc / a))
        else:
            b = sum(v * w for v, w in zip(d1, d2))
            denom = a * e - b * b
            s = min(1.0, max(0.0, (b * f - cc * e) / denom)) if denom > 0.0 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = min(1.0, max(0.0, -cc / a))
            elif t > 1.0:
                t = 1.0
                s = min(1.0, max(0.0, (b - cc) / a))
    gap = [(pa + s * da) - (qa + t * db)
           for pa, da, qa, db in zip(p0, d1, q0, d2)]
    return math.sqrt(sum(v * v for v in gap))


def polyline_is_simple(points: np.ndarray) -> bool:
    """True iff the open polyline through ``points`` is injective.

    Checks, at REL_TOL_SAMPLED relative to the bounding-box diagonal: no
    repeated vertices, no collinear backtracking between consecutive
    segments, and no contact between non-adjacent segments.
    """
    pts = [tuple(row) for row in np.asarray(points, dtype=float)]
    n = len(pts)
    if n < 2:
        return True
    diag = math.sqrt(sum(
        (max(p[k] for p in pts) - min(p[k] for p in pts)) ** 2
        for k in range(len(pts[0]))))
    tol = REL_TOL_SAMPLED * diag
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(pts[i], pts[j]) <= tol:
                return False
    for i in range(n - 2):
        u = [b - a for a, b in zip(pts[i], pts[i + 1])]
        v = [b - a for a, b in zip(pts[i + 1], pts[i + 2])]
        uu = sum(a * a for a in u)
        vv = sum(a * a for a in v)
        uv = sum(a * b for a, b in zip(u, v))
        area_sq = max(0.0, uu * vv - uv * uv)
        # Collinear turn that reverses direction retraces the previous segment.
        if area_sq <= (REL_TOL_SAMPLED * REL_TOL_SAMPLED) * uu * vv and uv < 0.0:
            return False
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if _segment_pair_distance(pts[i], pts[i + 1], pts[j], pts[j + 1]) <= tol:
                return False
    return True


def check_no_branching(w: Worldline, m: FrameMap) -> bool:
    """True iff the image of ``w`` under ``m`` is still a simple curve.

    An invertible affine map is a homeomorphism, so a genuine worldline can
    never gain a branch point; this verifies the invariant on the image
    polyline with polyline_is_simple.  A branch point needs the image to
    touch itself (two vertices within tolerance, a collinear fold-back or
    contact between non-adjacent segments), and that test rejects each.
    """
    if len(w) == 0:
        return True
    if w.spatial_dim != m.spatial_dim:
        raise KinematicsError("worldline dimension does not match the map")
    pts = w.points_array() @ m.linear_part.T + m.translation
    return polyline_is_simple(pts)
