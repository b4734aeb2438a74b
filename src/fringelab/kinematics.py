"""Extended 1+1 Lorentz kinematics and worldline topology checks.

Events are 1+1 pairs ``(t, x)`` with the metric ``diag(-c^2, 1)``, so the
signed interval of a displacement is ``dx^2 - c^2 dt^2`` (negative:
timelike, positive: spacelike, zero: null); every FrameMap and every
worldline polyline is 1+1 too.  1+3 appears in one function:
classify_cone_preserver also takes a 4x4 matrix, which is where the claim
that no linear map flips the interval in 1+3 is tested.

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
from dataclasses import KW_ONLY, InitVar, dataclass
from enum import Enum
from typing import Sequence

from .constants import (
    DEFAULT_C,
    REL_TOL_ALGEBRA,
    REL_TOL_SAMPLED,
    SPEED_GUARD_BAND,
    enum_member,
    finite_float,
    is_count,
    is_real,
    np,
)


class KinematicsError(ValueError):
    """Invalid kinematic construction or operation."""


class SpeedDomainError(KinematicsError):
    """Velocity outside the domain of the requested branch."""


class SingularMapError(KinematicsError):
    """Linear part is not invertible within tolerance."""


def _finite_array(value) -> np.ndarray | None:
    """``value`` as a float array, or None unless every entry is a finite number."""
    # A float64 array is tested whole, by one np.isfinite (all() over its
    # flat booleans spares a numpy reduction's set-up), and copied, so the
    # caller's array is neither made read-only (FrameMap) nor scaled in place.
    if type(value) is np.ndarray and value.dtype == float:
        return value.copy() if all(np.isfinite(value).flat) else None
    try:
        entries = np.array(value, dtype=object)
        floats = [finite_float(v) for v in entries.flat]
    except (ValueError, RuntimeError):  # nesting numpy cannot shape or walk
        return None
    if None in floats:
        return None
    return np.array(floats).reshape(entries.shape)


def _unit_scaled(a: np.ndarray, axis: int | None = None):
    # a / 2**e, with 2**e the power of two of its largest entry (of each
    # column's for axis=0, of each row's for axis=1; a zero line stays as it
    # is), so every |entry| is < 1.  Exact but for an entry that lands below
    # the normal range and is rounded.
    _, e = np.frexp(np.abs(a).max(axis, keepdims=axis is not None))
    return np.ldexp(a, -e), e


def _require_invertible(lin: np.ndarray, c: float):
    # |det L| over the product of its row lengths (Hadamard's bound) lies in
    # [0, 1] and is unchanged by row scaling.  It is taken with time as c*t,
    # each row unit-scaled before and after: nothing overflows, c = 1 is exact.
    # A pivot below the normal range makes LAPACK flag a division and may
    # leave a det that is not finite; that det is below 2**-1000, so singular.
    rows, _ = _unit_scaled(lin, 1)
    # At c = 1 the division is by 1 and every nonzero row already peaks in
    # [0.5, 1) (a zero row stays zero), so _unit_scaled would divide each row
    # by 2**0: skipping both steps leaves every bit of rows as it is.
    if c != 1.0:
        rows[:, 0] /= c
        rows, _ = _unit_scaled(rows, 1)
    with np.errstate(all="ignore"):
        det = abs(np.linalg.det(rows))
    # The row lengths as np.linalg.norm(rows, axis=1) computes them.
    if not REL_TOL_ALGEBRA * np.sqrt((rows * rows).sum(1)).prod() < det < math.inf:
        raise SingularMapError("linear_part: singular within tolerance, "
                               "relative to its row lengths")


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpacetimePoint:
    """A 1+1 event ``(t, x)``: two finite floats."""

    t: float
    x: float

    def __init__(self, t, x):
        # Each coordinate is checked and stored once.
        ft, fx = finite_float(t), finite_float(x)
        if ft is None or fx is None:
            if is_real(t) and is_real(x):
                raise KinematicsError("event coordinates must be finite")
            raise KinematicsError("event coordinates must be numbers")
        object.__setattr__(self, "t", ft)
        object.__setattr__(self, "x", fx)


def _image(p: SpacetimePoint, coords) -> SpacetimePoint:
    # coords, a map's image of the finite event p, as a pair of Python floats.
    try:
        return SpacetimePoint(*coords)
    except KinematicsError:  # p is finite, so the map overflowed
        raise KinematicsError(f"image of {p} under the map is not finite") from None


def event_interval(p: SpacetimePoint, c: float = DEFAULT_C) -> float:
    """Signed interval of ``p`` relative to the origin: x^2 - c^2 t^2."""
    c = _require_light_speed(c)
    try:
        value = p.x * p.x - (c * p.t) ** 2
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
    """Classify the separation of two events by the sign of dx^2 - c^2 dt^2.

    The null band is relative: |value| <= REL_TOL_ALGEBRA * (dx^2 +
    c^2 dt^2), so classification is invariant under rescaling all coordinates;
    both sides are halved, so the band cannot overflow where the interval fits.
    An interval that does not fit a float raises KinematicsError.
    """
    c = _require_light_speed(c)
    dx, cdt = b.x - a.x, c * (b.t - a.t)
    space, time = dx * dx, cdt * cdt
    value = space - time
    if not math.isfinite(value):
        raise KinematicsError(f"interval: not a finite float from {a} to {b}")
    if 0.5 * abs(value) <= REL_TOL_ALGEBRA * (0.5 * space + 0.5 * time):
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


def _require_light_speed(c: float) -> float:
    """``c`` as a float, once it is positive with a finite nonzero square."""
    # The boost formulas divide by c*c, so the square must be a positive
    # finite float too (a tiny c underflows it to zero, a huge one to inf).
    f = finite_float(c)
    if f is None or not (f > 0.0 and 0.0 < f * f < math.inf):
        raise KinematicsError(
            f"c: must be positive with a finite nonzero square, got {c!r}")
    return f


def _require_sign(eta) -> int:
    """``eta`` as an int, once it is a real number (see is_real) equal to ±1."""
    if not is_real(eta) or eta not in (1, -1):
        raise KinematicsError(f"eta: must be +1 or -1, got {eta!r}")
    return int(eta)


def _boost_entries(V, eta: int | None, c: float) -> tuple[float, tuple]:
    """The one statement of both boost branches: V and four row-major floats.

    c comes from _require_light_speed, eta from _require_sign or None for |V| < c.
    """
    if (v := finite_float(V)) is None:
        raise SpeedDomainError("V: must be finite")
    if eta is None:
        if abs(v) >= c * (1.0 - SPEED_GUARD_BAND):
            raise SpeedDomainError(
                f"V: subluminal branch needs |V| < c, got V={V!r} with c={c!r}")
        g = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
        return v, (g, -g * v / (c * c), -g * v, g)
    if not math.isfinite((v / c) * (v / c)):  # gamma squares V/c
        raise SpeedDomainError(
            f"V: (V/c)^2 must be a finite float, got V={V!r} with c={c!r}")
    if abs(v) <= c * (1.0 + SPEED_GUARD_BAND):
        raise SpeedDomainError(
            f"V: superluminal branch needs |V| > c, got V={V!r} with c={c!r}")
    s = eta * (1.0 / math.sqrt((v / c) ** 2 - 1.0))
    return v, (s, s * (-v / (c * c)), s * -v, s)


def boost_matrix(V: float, c: float = DEFAULT_C) -> np.ndarray:
    """Matrix of the 1+1 boost on (t, x) vectors; c and V are checked once."""
    return np.array(_boost_entries(V, None, _require_light_speed(c))[1]).reshape(2, 2)


def superluminal_matrix(V: float, eta: int, c: float = DEFAULT_C) -> np.ndarray:
    """Matrix of the formal |V| > c map on (t, x) vectors, 1+1 only.

    Negates the interval exactly: the pullback of diag(-c^2, 1) is its own
    negative for either sign of eta.  eta, c and V are checked once each.
    """
    _, entries = _boost_entries(V, _require_sign(eta), _require_light_speed(c))
    return np.array(entries).reshape(2, 2)


# ---------------------------------------------------------------------------
# frame maps
# ---------------------------------------------------------------------------


class BranchKind(str, Enum):
    SUBLUMINAL = "subluminal"
    SUPERLUMINAL = "superluminal"
    GENERAL_LINEAR = "general-linear"


@dataclass(frozen=True, eq=False)
class FrameMap:
    """An affine map of 1+1 events: a 2x2 float array plus a float pair.

    ``branch`` (a BranchKind or its value) records how the map was built.
    The two boost branches are built from their velocity ``V`` (and, for
    the faster-than-light branch, the mandatory sign ``eta``); they take no
    ``linear_part``.  Anything else is ``general-linear`` and needs a 2x2
    ``linear_part``.  Every branch needs ``c`` positive with a finite
    nonzero square.  Construction is the one validator of a map's fields:
    it names every field problem in one KinematicsError, then raises
    SpeedDomainError or SingularMapError for a value outside its domain.
    """

    branch: BranchKind
    V: float | None = None
    eta: int | None = None
    linear_part: np.ndarray | None = None  # stored read-only
    translation: tuple[float, float] | None = None  # the pair apply adds
    c: float = DEFAULT_C

    def __post_init__(self):
        branch, V, eta, lin, tr, c = (self.branch, self.V, self.eta,
                                      self.linear_part, self.translation, self.c)
        problems = []
        branch = enum_member(BranchKind, branch, "branch", problems)
        boost = branch in (BranchKind.SUBLUMINAL, BranchKind.SUPERLUMINAL)
        if V is None:
            if boost:
                problems.append(f"V: required for the {branch.value} branch")
        elif branch is BranchKind.GENERAL_LINEAR:
            problems.append("V: not allowed for the general-linear branch")
        elif not is_real(V):
            problems.append("V: must be a number")
        if eta is None:
            if branch is BranchKind.SUPERLUMINAL:
                problems.append("eta: required for the superluminal branch "
                                "(no default; both signs are admissible)")
        elif branch in (BranchKind.SUBLUMINAL, BranchKind.GENERAL_LINEAR):
            problems.append(f"eta: not allowed for the {branch.value} branch")
        else:
            try:
                eta = _require_sign(eta)
            except KinematicsError as err:
                problems.append(str(err))
        if lin is None:
            if branch is BranchKind.GENERAL_LINEAR:
                problems.append("linear_part: required for the general-linear branch")
        elif boost:
            problems.append(f"linear_part: not allowed for the {branch.value} branch")
        else:
            lin = _finite_array(lin)
            if lin is None or lin.shape != (2, 2):
                problems.append("linear_part: must be a 2x2 matrix of finite numbers")
        tr = np.zeros(2) if tr is None else _finite_array(tr)
        if tr is None or tr.ndim != 1:
            problems.append("translation: must be a list of finite numbers")
        elif len(tr) != 2:
            problems.append("translation: must have 2 components")
        try:
            light = _require_light_speed(c)
        except KinematicsError as err:
            problems.append(str(err))
        if problems:
            raise KinematicsError("; ".join(problems))
        if branch is BranchKind.GENERAL_LINEAR:
            _require_invertible(lin, light)
        else:  # eta is None on the subluminal branch
            V, entries = _boost_entries(V, eta, light)
            lin = np.array(entries).reshape(2, 2)
        lin.setflags(write=False)
        self.__dict__.update(branch=branch, V=V, eta=eta, linear_part=lin,
                             translation=tuple(tr.tolist()), c=light)

    # -- constructors -------------------------------------------------------

    @classmethod
    def boost(cls, V: float, c: float = DEFAULT_C,
              translation: Sequence[float] | None = None) -> "FrameMap":
        return cls(BranchKind.SUBLUMINAL, V, None, None, translation, c)

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
    def identity(cls, c: float = DEFAULT_C) -> "FrameMap":
        return cls.boost(0.0, c)

    # -- behaviour ----------------------------------------------------------

    def apply(self, p: SpacetimePoint) -> SpacetimePoint:
        t, x = self.linear_part.dot((p.t, p.x)).tolist()
        dt, dx = self.translation
        return _image(p, (t + dt, x + dx))

    __call__ = apply


# ---------------------------------------------------------------------------
# point operations
# ---------------------------------------------------------------------------


def _mapped(p: SpacetimePoint, lin: np.ndarray) -> SpacetimePoint:
    # The image of p under the 2x2 matrix lin (of a boost), as _image gives it.
    with np.errstate(over="ignore", invalid="ignore"):  # _image names it
        return _image(p, (lin @ (p.t, p.x)).tolist())


def lorentz_boost(p: SpacetimePoint, V: float, c: float = DEFAULT_C) -> SpacetimePoint:
    """Boost an event along the x axis; preserves every pair interval."""
    return _mapped(p, boost_matrix(V, c))


def superluminal_map(p: SpacetimePoint, V: float, eta: int,
                     c: float = DEFAULT_C) -> SpacetimePoint:
    """Apply the formal |V| > c map; negates every interval."""
    return _mapped(p, superluminal_matrix(V, eta, c))


def velocity_addition(V1: float, V2: float, c: float = DEFAULT_C) -> float:
    """Relativistic composition of two collinear subluminal velocities."""
    c = _require_light_speed(c)
    (V1, _), (V2, _) = _boost_entries(V1, None, c), _boost_entries(V2, None, c)
    return (V1 + V2) / (1.0 + V1 * V2 / (c * c))


def compose(f: FrameMap, g: FrameMap) -> FrameMap:
    """The affine map applying ``g`` first, then ``f``.

    The product is always general-linear, since it is not built from a
    velocity, even when an operand is the identity.  Its interval
    behaviour is left to classify_cone_preserver (two boosts compose to a
    boost, two interval-flipping maps to an interval preserver, and a mixed
    pair flips).  A product that is not finite raises KinematicsError.
    """
    if f.c != g.c:
        raise KinematicsError("cannot compose maps with different c")
    with np.errstate(over="ignore", invalid="ignore"):
        lin = f.linear_part @ g.linear_part
        tr = f.linear_part @ g.translation + f.translation
    if not np.isfinite(np.append(lin, tr)).all():
        raise KinematicsError("composition of the two maps is not finite")
    return FrameMap.general_linear(lin, tr, f.c)


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


def classify_cone_preserver(linear_part, c: float = DEFAULT_C) -> ConeClassification:
    """Classify a 2x2 (1+1) or 4x4 (1+3) matrix by its pullback of the interval.

    Let G be the metric and L the matrix.  If L^T G L = lam * G with lam > 0
    the map is a conformal Lorentz transformation; if lam < 0 it is an
    interval sign-flip (possible only in 1+1, where the form and its
    negative have equal signature); anything else does not preserve the
    null cone.  Decided by exact matrix algebra, not sampling, in units
    where c = 1 (time measured as c*t): the residual ||L^T G L - lam G||
    must be at most REL_TOL_ALGEBRA * ||L||^2 ||G|| (Frobenius norms), a
    bound that follows the rounding of the product (it grows with the
    cancelling terms, about gamma^2 for a boost) and scales as s^2 with L.
    L is divided by the power of two of its largest entry both before and
    after the c-scaling; each division is exact, so neither the scaling
    nor the squares overflow, since c*c is a finite nonzero float.  A
    scale that is not a finite nonzero float raises KinematicsError.
    """
    lin = _finite_array(linear_part)
    if lin is None or lin.shape not in ((2, 2), (4, 4)):
        raise KinematicsError("linear_part: must be a 2x2 (1+1) or 4x4 (1+3) "
                              "matrix of finite numbers")
    c = _require_light_speed(c)
    _require_invertible(lin, c)
    lin, e = _unit_scaled(lin)
    # At c = 1 the two c-steps multiply and divide by 1, and the largest
    # |entry| is already in [0.5, 1), so _unit_scaled would divide by 2**0:
    # skipping all three leaves every bit of lin and e as they are.
    if c != 1.0:
        lin[0, 1:] *= c
        lin[1:, 0] /= c
        lin, e1 = _unit_scaled(lin)
        e += e1
    g = np.eye(n := len(lin))
    g[0, 0] = -1.0
    pulled = lin.T @ g @ lin
    # g has n entries of +-1, so the sum of g * g is n and ||G|| is sqrt(n).
    lam = float((pulled * g).sum() / n)
    residual = float(np.linalg.norm(pulled - lam * g))
    bound = float(np.linalg.norm(lin)) ** 2 * math.sqrt(n)
    if not residual <= REL_TOL_ALGEBRA * bound:
        return ConeClassification(ConeClass.NOT_CONE_PRESERVING, None)
    mantissa, k = math.frexp(abs(lam))
    k += 2 * int(e)
    scale = math.ldexp(mantissa, k) if k <= 1024 else math.inf
    if not 0.0 < scale < math.inf:
        raise KinematicsError("scale: not a finite nonzero float")
    kind = ConeClass.CONFORMAL_LORENTZ if lam > 0.0 else ConeClass.SIGN_FLIP
    return ConeClassification(kind, scale)


def preserves_null_lines(m: FrameMap) -> bool:
    """Cross-check that the linear part maps both null rays to null rays.

    Independent of classify_cone_preserver: the 1+1 cone is the rays (1, c)
    and (1, -c), the columns of ((1, 1), (c, -c)), so one product maps both,
    and each image (c t, x) is tested against the null band at the sampled
    tolerance.  The linear part, then each image, is divided by the power of
    two of its largest entry first, so no image overflows and no square
    over- or underflows.
    """
    lin, _ = _unit_scaled(m.linear_part)
    img = lin @ ((1.0, 1.0), (m.c, -m.c))
    img[0] *= m.c
    ct, x = _unit_scaled(img, 0)[0]
    return not (abs(x * x - ct * ct) > REL_TOL_SAMPLED * (x * x + ct * ct)).any()


# ---------------------------------------------------------------------------
# worldlines
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Worldline:
    """A simple piecewise-linear curve with strictly increasing proper-time labels.

    Vertices must be pairwise distinct and the polyline must not touch or
    cross itself (injectivity).  Construction enforces this unless
    ``check_simple=False``, which builds a prefix of a checked worldline
    (past_worldline_segment; a prefix of a simple polyline is simple) or a
    deliberately broken fixture: the crossing polyline that the
    worldline-no-branching check and the tests must see flagged.
    ``taus`` defaults to the vertex indices.
    """

    vertices: tuple[SpacetimePoint, ...]
    taus: tuple[float, ...] | None = None
    _: KW_ONLY
    check_simple: InitVar[bool] = True

    def __post_init__(self, check_simple: bool):
        verts = tuple(self.vertices)
        for v in verts:
            if not isinstance(v, SpacetimePoint):
                raise KinematicsError("vertices must be SpacetimePoint values")
        taus = tuple(map(finite_float,
                         range(len(verts)) if self.taus is None else self.taus))
        if len(taus) != len(verts):
            raise KinematicsError("need exactly one tau label per vertex")
        if None in taus:
            raise KinematicsError("tau labels must be finite")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise KinematicsError("tau labels must strictly increase")
        self.__dict__.update(vertices=verts, taus=taus)
        if check_simple and not polyline_is_simple(self.points_array()):
            raise KinematicsError("worldline polyline is not simple")

    def __len__(self) -> int:
        return len(self.vertices)

    def points_array(self) -> np.ndarray:
        return np.array([(v.t, v.x) for v in self.vertices]).reshape(-1, 2)


def past_worldline_segment(w: Worldline, e_index: int) -> Worldline:
    """Restriction of ``w`` to vertices strictly before vertex ``e_index``.

    This is the carrier of the past-worldline data of the event at
    ``e_index``: every vertex with a smaller proper-time label, excluding
    the event itself.
    """
    if not is_count(e_index):
        raise KinematicsError(f"e_index: must be an integer, got {e_index!r}")
    if not 0 <= e_index < len(w):
        raise IndexError(f"vertex index {e_index} out of range")
    return Worldline(w.vertices[:e_index], w.taus[:e_index], check_simple=False)


# -- polyline geometry ------------------------------------------------------


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Row-wise dot products of (t, x) pairs, t term first, so each value is
    # the plain scalar sum, whatever numpy's reduction order.
    return x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1]


def _clamp01(x: np.ndarray) -> np.ndarray:
    # min(1.0, max(0.0, x)) elementwise; fmax sends nan to 0.0, as max does.
    return np.fmin(np.fmax(x, 0.0), 1.0)


def polyline_is_simple(points: np.ndarray) -> bool:
    """True iff the open polyline through ``points`` is injective.

    ``points`` is an (n, 2) array of 1+1 ``(t, x)`` finite numbers; any
    other shape or entry raises KinematicsError.  The points are divided by
    the power of two of their largest entry, moved so the first is the
    origin and divided again, so they are in units of their extent: nothing
    over- or underflows, and the verdict is free of scale.  Checks, at
    REL_TOL_SAMPLED relative to the bounding-box diagonal: no repeated
    vertices, no turn that reverses direction with its sine (from the turn's
    2x2 determinant) within tolerance, and no contact between non-adjacent
    segments, the last two in one numpy pass each.  Contact is the distance
    of Ericson's clamped closest points (Real-Time Collision Detection 5.1.9).
    """
    if (pts := _finite_array(points)) is None:
        raise KinematicsError("polyline: points must be finite numbers")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise KinematicsError(f"polyline: need (t, x) points, got shape {pts.shape}")
    n = len(pts)
    if n < 2:
        return True
    pts, _ = _unit_scaled(pts)
    pts, _ = _unit_scaled(pts - pts[0])
    rows = pts.tolist()
    dt, dx = (max(v) - min(v) for v in pts.T.tolist())
    tol = REL_TOL_SAMPLED * math.sqrt(dt * dt + dx * dx)
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(rows[i], rows[j]) <= tol:
                return False
    with np.errstate(all="ignore"):
        d = pts[1:] - pts[:-1]
        sq = _rowdot(d, d)
        # Collinear turn that reverses direction retraces the previous segment.
        u, v = d[:-1], d[1:]
        det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        if ((det * det <= (REL_TOL_SAMPLED * REL_TOL_SAMPLED) * sq[:-1] * sq[1:])
                & (_rowdot(u, v) < 0.0)).any():
            return False
        # Segments i and j >= i + 2 are P_i + s d_i and P_j + t d_j, s, t in [0, 1].
        # np.triu_indices(n - 1, 2)'s pairs, in its order, from one np.nonzero.
        i, j = np.nonzero(np.tri(n - 1, k=-2, dtype=bool).T)
        d1, d2, r = d[i], d[j], pts[i] - pts[j]
        a, e = sq[i], sq[j]
        f, cc, b = _rowdot(d2, r), _rowdot(d1, r), _rowdot(d1, d2)
        denom = a * e - b * b
        s = np.where(denom > 0.0, _clamp01((b * f - cc * e) / denom), 0.0)
        t = (b * s + f) / e
        s = np.where(t < 0.0, _clamp01(-cc / a),
                     np.where(t > 1.0, _clamp01((b - cc) / a), s))
        t = _clamp01(t)
        gap = (pts[i] + s[:, None] * d1) - (pts[j] + t[:, None] * d2)
        dist = np.sqrt(_rowdot(gap, gap))
    return not (dist <= tol).any()


def check_no_branching(w: Worldline, m: FrameMap) -> bool:
    """True iff the image of ``w`` under ``m`` is still a simple curve.

    An invertible affine map is a homeomorphism, so a genuine worldline can
    never gain a branch point; this verifies the invariant on the image
    polyline with polyline_is_simple.  A branch point needs the image to
    touch itself (two vertices within tolerance, a collinear fold-back or
    contact between non-adjacent segments), and that test rejects each.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pts = w.points_array() @ m.linear_part.T + m.translation
    if not np.isfinite(pts).all():  # w is finite, so the map overflowed
        raise KinematicsError("image of the worldline under the map is not finite")
    return polyline_is_simple(pts)
