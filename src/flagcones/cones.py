"""Multicones: half-plane preimages under the plane projection.

A multicone is determined by a reducible-plane frame, a base point of the
model plane and an axis angle.  Internally everything is reduced to the
canonical cone: base at the identity, axis along diag(1,0,-1).  Its
boundary is the preimage of the orthogonal geodesic through the identity
together with the thickenings of that geodesic's two endpoint flags; the
preimage cylinder is covered by ``boundary_chart``.

Membership classification works in a signed plane coordinate (interior
projections) and in the visual angle (boundary projections).  Nestedness
is certified by sampling the boundary of the inner cone, and the
nestedness amount is bounded from below by bisection over the
one-parameter contractions fixing the relevant endpoint flag pair.

Pure operations; sampling is deterministic, so everything is safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .flags import (
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
    act_on_flag,
)
from .plane import (
    AXIS_DIRECTION,
    BoundaryPoint,
    PlanePoint,
    ReduciblePlaneFrame,
    _wrap_angle,
    embedded_rotation,
    plane_sqrt_frame,
    project,
)

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"

#: Forward and backward endpoint flags of the canonical axis geodesic.
MODEL_FORWARD_FLAG = BoundaryPoint(math.pi / 2).flag
MODEL_BACKWARD_FLAG = BoundaryPoint(0.0).flag

#: Endpoint flags of the canonical boundary geodesic (the cone sides).
MODEL_SIDE_FLAGS = (BoundaryPoint(3 * math.pi / 4).flag, BoundaryPoint(math.pi / 4).flag)

_ROT_OFFSET = embedded_rotation(-math.pi / 4)

DEFAULT_TOL = 1e-6
DEFAULT_LAM_CAP = 64.0
DEFAULT_LOGLAM_RANGE = (-6.0, 6.0)
DEFAULT_WEDGE_SAMPLES = 256


@dataclass(frozen=True, eq=False)
class Multicone:
    """The preimage of the open half-plane at (frame, base, axis_angle).

    The half-plane lies in the frame's reducible plane, is bounded by the
    geodesic through the base orthogonal to the axis direction, and
    contains the axis direction.
    """

    frame: ReduciblePlaneFrame
    base: PlanePoint
    axis_angle: float
    total: GroupElem = None  # canonical frame, derived

    def __post_init__(self):
        if not np.isfinite(self.axis_angle):
            raise GeometryError("Multicone: non-finite axis angle")
        g = self.frame.g.mat @ plane_sqrt_frame(self.base).mat
        g = g @ embedded_rotation(self.axis_angle / 2.0).mat
        object.__setattr__(self, "total", GroupElem(g))

    @classmethod
    def model(cls, axis_angle: float = 0.0) -> "Multicone":
        return cls(ReduciblePlaneFrame.identity(), PlanePoint.identity(), axis_angle)

    def transformed(self, g: GroupElem) -> "Multicone":
        """The image cone under g (membership via the flag action of g)."""
        return Multicone(
            ReduciblePlaneFrame(g.compose(self.total)), PlanePoint.identity(), 0.0
        )

    def translated_along_axis(self, t: float) -> "Multicone":
        """Translate by parameter t along the axis geodesic (base moves to exp(t A))."""
        shift = scipy.linalg.expm(0.5 * t * AXIS_DIRECTION)
        return Multicone(
            ReduciblePlaneFrame(GroupElem(self.total.mat @ shift)),
            PlanePoint.identity(),
            0.0,
        )

    def reversed_axis(self) -> "Multicone":
        return Multicone(self.frame, self.base, self.axis_angle + math.pi)


def endpoint_flags(cone: Multicone) -> tuple[Flag, Flag]:
    """The flags at the two ends of the axis geodesic, forward first.

    Forward means the horofunction of the returned flag tends to minus
    infinity along the positive axis direction.
    """
    fwd = act_on_flag(cone.total, MODEL_FORWARD_FLAG)
    bwd = act_on_flag(cone.total, MODEL_BACKWARD_FLAG)
    return fwd, bwd


def side_flags(cone: Multicone) -> tuple[Flag, Flag]:
    """The flags at the two ends of the boundary geodesic."""
    return tuple(act_on_flag(cone.total, f) for f in MODEL_SIDE_FLAGS)


def _position(cone: Multicone, f: Flag):
    """Canonical position of a flag: ('interior', sigma) or ('boundary', angle)."""
    p = project(f, frame=ReduciblePlaneFrame(cone.total))
    if p.is_interior:
        return "interior", p.point.sigma
    return "boundary", p.boundary.direction_angle


def _classify_position(kind: str, value: float, tol: float) -> str:
    if kind == "interior":
        if value > tol:
            return INSIDE
        if value < -tol:
            return OUTSIDE
        return BOUNDARY
    dev = abs(value)
    if dev < math.pi / 2 - tol:
        return INSIDE
    if dev > math.pi / 2 + tol:
        return OUTSIDE
    return BOUNDARY


def contains_flag(cone: Multicone, f: Flag, tol: float = DEFAULT_TOL) -> str:
    """Classify a flag against the cone: 'inside', 'boundary' or 'outside'."""
    kind, value = _position(cone, f)
    return _classify_position(kind, value, tol)


def boundary_chart(cone: Multicone, theta: float, lam: float) -> Flag:
    """Smooth chart of the cone's boundary cylinder.

    In the chart's reference position (axis angle pi/2 at the identity)
    this is ([lam cos t : 1 : sin t / lam], [-cos t / lam : 1 : -lam sin t]);
    for a general cone the flag is transported by the cone's frame.  The
    output always projects onto the cone's boundary geodesic.
    """
    if not (lam > 0) or not np.isfinite(lam):
        raise GeometryError("boundary_chart: lam must be positive")
    c, s = math.cos(theta), math.sin(theta)
    raw = Flag(
        ProjectivePoint([lam * c, 1.0, s / lam]),
        ProjectiveCovector([-c / lam, 1.0, -lam * s]),
    )
    carrier = GroupElem(cone.total.mat @ _ROT_OFFSET.mat)
    return act_on_flag(carrier, raw)


def _wedge_circle_flags(f: Flag, n: int) -> list[Flag]:
    """Sample the two circles of the thickening of f (shared line / shared plane)."""
    x = f.line.coords
    y = f.plane.coords
    out = []
    # covectors orthogonal to the line
    u1 = y
    u2 = np.cross(x, y)
    u2 = u2 / np.linalg.norm(u2)
    for k in range(n):
        psi = 2 * math.pi * (k + 0.31) / n
        w = math.cos(psi) * u1 + math.sin(psi) * u2
        out.append(Flag(ProjectivePoint(x), ProjectiveCovector(w)))
    # lines inside the plane
    v1 = x
    v2 = u2
    for k in range(n):
        psi = 2 * math.pi * (k + 0.47) / n
        v = math.cos(psi) * v1 + math.sin(psi) * v2
        out.append(Flag(ProjectivePoint(v), ProjectiveCovector(y)))
    return out


def boundary_sample_flags(
    cone: Multicone,
    n_grid: int,
    n_wedge: int = DEFAULT_WEDGE_SAMPLES,
    loglam_range: tuple[float, float] = DEFAULT_LOGLAM_RANGE,
) -> list[Flag]:
    """Flags covering the cone's boundary: chart grid, side wedges, side flags."""
    flags = []
    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    loglams = np.linspace(loglam_range[0], loglam_range[1], n_grid)
    for ll in loglams:
        lam = math.exp(ll)
        for th in thetas:
            flags.append(boundary_chart(cone, float(th), lam))
    for f in side_flags(cone):
        flags.append(f)
        flags.extend(_wedge_circle_flags(f, max(4, n_wedge // 2)))
    return flags


def _shift_position(kind: str, value: float, lam: float):
    """Position after pulling back by the canonical contraction of amount lam.

    The contraction is diagonal in the canonical coordinates, so interior
    positions shift by -2 lam in sigma and boundary angles move by an
    explicit circle map.
    """
    if kind == "interior":
        return kind, value - 2.0 * lam
    phi = 0.5 * (value + math.pi)
    phi2 = math.atan2(math.exp(-lam) * math.sin(phi), math.exp(lam) * math.cos(phi))
    return kind, _wrap_angle(2.0 * phi2 - math.pi)


def _inner_positions(outer: Multicone, inner: Multicone, n_samples: int):
    n_grid = max(4, int(math.isqrt(max(1, n_samples))))
    flags = boundary_sample_flags(inner, n_grid)
    flags.append(endpoint_flags(inner)[0])  # interior witness
    return [_position(outer, f) for f in flags]


def _all_inside(positions, lam: float, tol: float) -> bool:
    for kind, value in positions:
        k2, v2 = _shift_position(kind, value, lam)
        if _classify_position(k2, v2, tol) != INSIDE:
            return False
    return True


def is_nested(
    cone_outer: Multicone,
    cone_inner: Multicone,
    n_samples: int = 1024,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff every sampled boundary flag of the inner cone is strictly inside."""
    positions = _inner_positions(cone_outer, cone_inner, n_samples)
    return _all_inside(positions, 0.0, tol)


@dataclass(frozen=True)
class NestEstimate:
    """Witness-based lower bound for the nestedness of a cone pair."""

    lower: float
    fplus: Flag
    fminus: Flag
    samples: int


def nest_estimate(
    cone_outer: Multicone,
    cone_inner: Multicone,
    n_samples: int = 1024,
    tol: float = DEFAULT_TOL,
    lam_cap: float = DEFAULT_LAM_CAP,
) -> NestEstimate:
    """Largest contraction amount keeping the inner boundary inside the outer cone.

    The witness flags are the inner cone's forward endpoint flag and the
    outer cone's backward endpoint flag; the contraction fixing them is
    diagonal in the outer cone's canonical coordinates, so feasibility of
    each amount is checked by shifting the sampled positions.  Bisection
    returns a lower bound for the nestedness.
    """
    positions = _inner_positions(cone_outer, cone_inner, n_samples)
    if not _all_inside(positions, 0.0, tol):
        raise GeometryError("nest_estimate: cones are not nested")
    fplus = endpoint_flags(cone_inner)[0]
    fminus = endpoint_flags(cone_outer)[1]
    return NestEstimate(_nest_lower(positions, tol, lam_cap), fplus, fminus, len(positions))


def _nest_lower(positions, tol: float, lam_cap: float) -> float:
    """Bisected largest contraction amount keeping nested positions inside."""
    hi = 1.0
    while hi < lam_cap and _all_inside(positions, hi, tol):
        hi *= 2.0
    if hi >= lam_cap:
        return lam_cap
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _all_inside(positions, mid, tol):
            lo = mid
        else:
            hi = mid
    return lo


def limit_flag(cones, n_samples: int = 1024, tol: float = DEFAULT_TOL) -> Flag:
    """The flag whose thickening approximates the intersection of nested cones.

    Requires consecutive nesting with strictly increasing nest estimates.
    Returns the forward endpoint flag of the last cone after verifying
    that sampled probes of its thickening lie inside every cone.
    """
    cones = list(cones)
    if len(cones) < 2:
        raise GeometryError("limit_flag: need at least two cones")
    for u, v in zip(cones, cones[1:]):
        if not is_nested(u, v, n_samples, tol):
            raise GeometryError("limit_flag: sequence is not nested")
    estimates = [nest_estimate(cones[0], c, n_samples, tol).lower for c in cones[1:]]
    for e1, e2 in zip(estimates, estimates[1:]):
        if e2 <= e1 + 1e-9:
            raise GeometryError("limit_flag: nest estimates do not diverge")
    f = endpoint_flags(cones[-1])[0]
    probes = _wedge_circle_flags(f, 64) + [f]
    for cone in cones:
        for p in probes:
            if contains_flag(cone, p, tol) != INSIDE:
                raise GeometryError("limit_flag: thickening probe escapes a cone")
    return f
