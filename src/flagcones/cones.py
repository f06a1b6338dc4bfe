"""Multicones: half-plane preimages under the plane projection.

A multicone is the image of the canonical cone (base at the identity,
axis along diag(1,0,-1)) under one group element, its canonical frame.
The canonical cone's boundary is the preimage of the orthogonal geodesic
through the identity together with the thickenings of that geodesic's
two endpoint flags; the preimage cylinder is covered by ``boundary_chart``.

Membership classification works in a signed plane coordinate (interior
projections) and in the visual angle (boundary projections).  Nestedness
is certified by sampling the boundary of the inner cone, and the nestedness
amount is, in closed form, the largest one-parameter contraction fixing
the relevant endpoint flag pair that keeps every sample inside.

Flag sets are arrays: N flags are (N, 3) line and covector rows, and a
set of positions is a pair of arrays (boundary mask, value), the value
being sigma for interior projections and the direction angle for boundary
ones.  Chart grids, wedge circles, positions, classification and nest
bounds each act on a whole set in one call; ``boundary_chart``,
``_position`` and ``contains_flag`` are their one-flag cases.  ``Flag`` arguments are
validated when they are built; sample rows are validated by the row
kernels of ``flags`` that build and transport them, and membership
tolerances must be finite and nonnegative.

Pure operations; sampling is deterministic, so everything is safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flags import (
    Flag,
    GeometryError,
    GroupElem,
    NumericalDomainError,
    ProjectiveCovector,
    ProjectivePoint,
    _act_rows,
    _flag_rows,
    _pullback_rows,
    act_on_flag,
)
from .plane import (
    BoundaryPoint,
    _project_rows,
    _sigma,
    _wrap_angle,
    embedded_rotation,
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
DEFAULT_LOGLAM_RANGE = (-6.0, 6.0)
DEFAULT_WEDGE_SAMPLES = 256


@dataclass(frozen=True, eq=False)
class Multicone:
    """The preimage of an open half-plane of a reducible plane.

    ``total`` carries the canonical cone onto this one: it maps the model
    plane onto the cone's plane, the identity onto the base point of the
    bounding geodesic and diag(1,0,-1) onto the axis direction, which
    points into the half-plane.
    """

    total: GroupElem

    def __post_init__(self):
        if not isinstance(self.total, GroupElem):
            raise GeometryError("Multicone: total must be a GroupElem")

    @classmethod
    def model(cls, axis_angle: float = 0.0) -> "Multicone":
        """The cone at the identity whose axis has direction angle ``axis_angle``."""
        if not math.isfinite(axis_angle):
            raise GeometryError("Multicone: non-finite axis angle")
        return cls(embedded_rotation(axis_angle / 2.0))

    def transformed(self, g: GroupElem) -> "Multicone":
        """The image cone under g (membership via the flag action of g)."""
        return Multicone(g.compose(self.total))

    def translated_along_axis(self, t: float) -> "Multicone":
        """Translate by parameter t along the axis geodesic (base moves to exp(t A))."""
        shift = np.diag(np.exp([0.5 * t, 0.0, -0.5 * t]))
        return Multicone(GroupElem(self.total.mat @ shift))

    def reversed_axis(self) -> "Multicone":
        return Multicone(self.total.compose(embedded_rotation(math.pi / 2)))


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


def _check_tol(tol: float) -> None:
    """Membership tolerances must be finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise GeometryError(f"tol must be finite and nonnegative, got {tol!r}")


def _positions(cone: Multicone, lines, planes) -> tuple[np.ndarray, np.ndarray]:
    """Canonical positions of flag rows: (boundary mask, value).

    The value is sigma for rows projecting into the interior and the
    boundary direction angle for the others.  Raises ``ProjectionError``
    for a row whose horofunction has no interior minimum in float.
    """
    rows = _project_rows(*_pullback_rows(cone.total, lines, planes))
    boundary = rows.boundary
    value = np.empty(boundary.size)
    value[boundary] = _wrap_angle(2.0 * rows.phi[boundary] - math.pi)
    a, b, _ = rows.point[:, ~boundary]
    value[~boundary] = _sigma(a, b)
    return boundary, value


def _position(cone: Multicone, f: Flag):
    """Canonical position of a flag: ('interior', sigma) or ('boundary', angle)."""
    boundary, value = _positions(cone, f.line.coords[None], f.plane.coords[None])
    return ("boundary" if boundary[0] else "interior"), float(value[0])


def _classify_position(boundary: np.ndarray, value: np.ndarray, tol: float) -> np.ndarray:
    """INSIDE, BOUNDARY or OUTSIDE for each position."""
    dev = np.abs(value)
    inside = np.where(boundary, dev < math.pi / 2 - tol, value > tol)
    outside = np.where(boundary, dev > math.pi / 2 + tol, value < -tol)
    return np.where(inside, INSIDE, np.where(outside, OUTSIDE, BOUNDARY))


def contains_flag(cone: Multicone, f: Flag, tol: float = DEFAULT_TOL) -> str:
    """Classify a flag against the cone: 'inside', 'boundary' or 'outside'."""
    _check_tol(tol)
    positions = _positions(cone, f.line.coords[None], f.plane.coords[None])
    return str(_classify_position(*positions, tol)[0])


def _chart_rows(cone: Multicone, theta, lam) -> tuple[np.ndarray, np.ndarray]:
    """Flag rows of ``boundary_chart`` at the parameter pairs (theta[i], lam[i])."""
    theta, lam = np.asarray(theta, dtype=float), np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise GeometryError("boundary_chart: lam must be positive")
    c, s = np.cos(theta), np.sin(theta)
    one = np.ones_like(c)
    raw = _flag_rows(np.stack([lam * c, one, s / lam], axis=1), np.stack([-c / lam, one, -lam * s], axis=1))
    # both factors are validated, so a product that fails the determinant check is a float failure
    try:
        carrier = GroupElem(cone.total.mat @ _ROT_OFFSET.mat)
    except GeometryError as exc:
        raise NumericalDomainError(f"boundary_chart: cone frame lost unit determinant ({exc})") from exc
    return _act_rows(carrier, *raw)


def boundary_chart(cone: Multicone, theta: float, lam: float) -> Flag:
    """Smooth chart of the cone's boundary cylinder.

    In the chart's reference position (axis angle pi/2 at the identity)
    this is ([lam cos t : 1 : sin t / lam], [-cos t / lam : 1 : -lam sin t]);
    for a general cone the flag is transported by the cone's frame.  The
    output always projects onto the cone's boundary geodesic.
    """
    lines, planes = _chart_rows(cone, [theta], [lam])
    return Flag(ProjectivePoint(lines[0]), ProjectiveCovector(planes[0]))


def _wedge_circle_flags(x: np.ndarray, y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows sampling the two circles of the thickening of the flag (x, y).

    First n flags sharing the line x, then n flags sharing the plane y.
    """
    u2 = np.cross(x, y)
    u2 = u2 / np.linalg.norm(u2)
    k = np.arange(n)
    psi = (2 * math.pi * (k + 0.31) / n)[:, None]  # covectors orthogonal to the line
    covectors = np.cos(psi) * y + np.sin(psi) * u2
    psi = (2 * math.pi * (k + 0.47) / n)[:, None]  # lines inside the plane
    lines = np.cos(psi) * x + np.sin(psi) * u2
    return _flag_rows(
        np.concatenate([np.broadcast_to(x, (n, 3)), lines]),
        np.concatenate([covectors, np.broadcast_to(y, (n, 3))]),
    )


def boundary_sample_flags(cone: Multicone, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Flag rows covering the cone's boundary: chart grid, then per side flag the flag and its wedges."""
    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    lams = np.exp(np.linspace(*DEFAULT_LOGLAM_RANGE, n_grid))
    parts = [_chart_rows(cone, np.tile(thetas, n_grid), np.repeat(lams, n_grid))]
    for f in side_flags(cone):
        parts.append((f.line.coords[None], f.plane.coords[None]))
        parts.append(_wedge_circle_flags(f.line.coords, f.plane.coords, DEFAULT_WEDGE_SAMPLES // 2))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _inner_positions(outer: Multicone, inner: Multicone, n_samples: int):
    """Positions, against the outer cone, of the inner cone's boundary samples and interior witness."""
    n_grid = max(4, int(math.isqrt(max(1, n_samples))))
    lines, planes = boundary_sample_flags(inner, n_grid)
    witness = endpoint_flags(inner)[0]
    lines = np.concatenate([lines, witness.line.coords[None]])
    planes = np.concatenate([planes, witness.plane.coords[None]])
    return _positions(outer, lines, planes)


def _all_inside(positions, tol: float) -> bool:
    return bool(np.all(_classify_position(*positions, tol) == INSIDE))


def is_nested(
    cone_outer: Multicone,
    cone_inner: Multicone,
    n_samples: int = 1024,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff every sampled boundary flag of the inner cone is strictly inside."""
    _check_tol(tol)
    positions = _inner_positions(cone_outer, cone_inner, n_samples)
    return _all_inside(positions, tol)


@dataclass(frozen=True)
class NestEstimate:
    """Witness-based nestedness lower bound of a cone pair: (t - tol)/2 for an axis translate by t."""

    lower: float
    fplus: Flag
    fminus: Flag
    samples: int


def nest_estimate(
    cone_outer: Multicone,
    cone_inner: Multicone,
    n_samples: int = 1024,
    tol: float = DEFAULT_TOL,
) -> NestEstimate:
    """Largest contraction amount keeping the inner boundary inside the outer cone.

    The witness flags are the inner cone's forward endpoint flag and the
    outer cone's backward endpoint flag; the contraction fixing them is
    diagonal in the outer cone's canonical coordinates and moves each sample
    monotonically, so the amount has a closed form, (t - tol)/2 for an axis
    translate by t.  Raises ``NumericalDomainError`` if it fixes every sample.
    """
    _check_tol(tol)
    positions = _inner_positions(cone_outer, cone_inner, n_samples)
    if not _all_inside(positions, tol):
        raise GeometryError("nest_estimate: cones are not nested")
    fplus = endpoint_flags(cone_inner)[0]
    fminus = endpoint_flags(cone_outer)[1]
    return NestEstimate(_nest_lower(positions, tol), fplus, fminus, len(positions[0]))


def _nest_lower(positions, tol: float) -> float:
    """Largest contraction amount keeping nested positions inside, clamped at 0.

    Under the contraction of amount lam an interior sigma becomes sigma - 2 lam,
    inside while lam < (sigma - tol)/2.  A boundary angle a has tan(a/2) scaled by
    e^(2 lam), and |a| < pi/2 - tol means |tan(a/2)| < T = tan(pi/4 - tol/2), so it
    stays inside while lam < (log T - log |tan(a/2)|)/2, least at the largest |tan(a/2)|.
    Angle 0 is fixed (bound +inf); raises ``NumericalDomainError`` if every position is.
    """
    boundary, value = positions
    lower = float(np.min((value[~boundary] - tol) / 2.0, initial=math.inf))
    half_tan = float(np.max(np.abs(np.tan(value[boundary] / 2.0)), initial=0.0))
    if half_tan > 0.0:
        lower = min(lower, 0.5 * (math.log(math.tan(math.pi / 4 - tol / 2)) - math.log(half_tan)))
    if not math.isfinite(lower):
        raise NumericalDomainError("nest_estimate: the contraction fixes every sampled position")
    return max(lower, 0.0)


def limit_flag(cones, n_samples: int = 1024, tol: float = DEFAULT_TOL) -> Flag:
    """The flag whose thickening approximates the intersection of nested cones.

    Requires consecutive nesting with strictly increasing nest estimates.
    Returns the forward endpoint flag of the last cone after verifying
    that sampled probes of its thickening lie inside every cone.
    """
    _check_tol(tol)
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
    lines, planes = _wedge_circle_flags(f.line.coords, f.plane.coords, 64)
    lines = np.concatenate([lines, f.line.coords[None]])
    planes = np.concatenate([planes, f.plane.coords[None]])
    for cone in cones:
        if np.any(_classify_position(*_positions(cone, lines, planes), tol) != INSIDE):
            raise GeometryError("limit_flag: thickening probe escapes a cone")
    return f
