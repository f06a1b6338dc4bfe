"""The model reducible hyperbolic plane and the extended nearest-point projection.

The model plane H0 consists of the unit-determinant scalar products fixing
the middle coordinate, [[a,0,c],[0,1,0],[c,0,b]] with ab - c^2 = 1.  It is
a totally geodesic hyperbolic plane, the orbit of the identity under the
SL(2,R) embedded in the outer 2x2 block.

``project`` extends the nearest-point projection of the symmetric space
onto H0 to the whole flag manifold: a flag is sent either to the interior
point minimizing its horofunction over the plane, or to the boundary
point whose thickening contains it.  Interior fibers are conics
(``fiber_over_interior``, ``conic_eval``, with the row forms ``_fiber_rows``
and ``_conic_rows``), boundary fibers are thickenings
(``boundary_fiber_contains``).

Projection is batched: ``_project_rows`` takes N flags as (N, 3) line and
covector rows and returns per-row arrays; ``project`` is its one-row case.
The interior point is the exact minimizer, in closed form (derived in
``_project_rows``).  Every operation acts on each row alone.  The kernel
does not validate its input: rows come from ``Flag`` objects or from the
row kernels of ``flags`` (``_pullback_rows`` for a frame), which check
finiteness, unit normalization and incidence.

Pure operations on immutable values; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flags import (
    SPECTRAL_TOL,
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
    SpdPoint,
    _act_rows,
    _flag_rows,
    _pullback_rows,
    thickening_contains,
)

#: Tangent direction of the plane at the identity along the a/b axis.
AXIS_DIRECTION = np.diag([1.0, 0.0, -1.0])
AXIS_DIRECTION.setflags(write=False)


class ProjectionError(RuntimeError):
    """A flag off the boundary fibers whose horofunction has no interior minimum in float."""


def embed_sl2(m2) -> np.ndarray:
    """Embed a 2x2 matrix into the outer block of a 3x3 matrix."""
    m2 = np.asarray(m2, dtype=float)
    out = np.eye(3)
    out[0, 0], out[0, 2] = m2[0, 0], m2[0, 1]
    out[2, 0], out[2, 2] = m2[1, 0], m2[1, 1]
    return out


def embedded_rotation(psi: float) -> GroupElem:
    """The SO(2) rotation of the plane's tangent circle, embedded in SL(3,R).

    Acting on tangent directions at the identity it rotates the direction
    angle by 2*psi.
    """
    c, s = math.cos(psi), math.sin(psi)
    return GroupElem(embed_sl2([[c, -s], [s, c]]))


@dataclass(frozen=True, eq=False)
class PlanePoint:
    """A point [[a,0,c],[0,1,0],[c,0,b]] of the model plane, ab - c^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_plane_points(self.a, self.b, self.c)

    @classmethod
    def identity(cls) -> "PlanePoint":
        return cls(1.0, 1.0, 0.0)

    @property
    def mat(self) -> np.ndarray:
        return np.array(
            [[self.a, 0.0, self.c], [0.0, 1.0, 0.0], [self.c, 0.0, self.b]]
        )

    def spd(self) -> SpdPoint:
        return SpdPoint.from_matrix(self.mat)

    @property
    def sigma(self) -> float:
        """Signed coordinate across the angle-0 boundary geodesic: (log a - log b)/2.

        Vanishes exactly on the geodesic through the identity in the
        off-diagonal direction; equals the geodesic parameter on the axis.
        """
        return float(_sigma(self.a, self.b))

    def block2(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.c, self.b]])

    def same_as(self, other: "PlanePoint", tol: float = 1e-9) -> bool:
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
        )


def _check_plane_points(a, b, c) -> None:
    """Raise unless every (a, b, c) is a plane point: finite, a > 0, ab - c^2 = 1."""
    if not np.all(np.isfinite(a) & np.isfinite(b) & np.isfinite(c)):
        raise GeometryError("PlanePoint: non-finite entries")
    if np.any(a <= 0):
        raise GeometryError("PlanePoint: a must be positive")
    scale = np.maximum(np.maximum(1.0, np.abs(a * b)), c**2)
    if np.any(np.abs(a * b - c**2 - 1.0) > 1e-10 * scale):
        raise GeometryError("PlanePoint: ab - c^2 != 1")


def _sigma(a, b):
    """The signed coordinate (log a - log b)/2 of plane points, elementwise."""
    return 0.5 * (np.log(a) - np.log(b))


def plane_sqrt_frame(p: PlanePoint) -> GroupElem:
    """The symmetric transvection carrying the identity to p inside the plane."""
    return GroupElem(embed_sl2(_sqrt2(p.block2())))


def _sqrt2(m2: np.ndarray) -> np.ndarray:
    """Square root of a unit-determinant positive 2x2 block: (M + I) / sqrt(tr M + 2).

    Closed form by Cayley-Hamilton.  An eigendecomposition loses the unit
    determinant to rounding beyond distance ~6 from the identity, where
    ``GroupElem`` then rejects the frame.
    """
    return (m2 + np.eye(2)) / math.sqrt(m2[0, 0] + m2[1, 1] + 2.0)


def _wrap_angle(phi):
    """Wrap to (-pi, pi], elementwise."""
    out = np.fmod(phi + math.pi, 2 * math.pi)
    return np.where(out <= 0, out + 2 * math.pi, out) - math.pi


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A visual boundary point of the plane, with its boundary flag.

    The flag at angle phi is ([cos phi : 0 : sin phi], [-sin phi : 0 : cos phi]);
    phi and phi + pi give the same flag, so boundary points are parametrized
    by phi mod pi.
    """

    phi: float

    def __post_init__(self):
        if not np.isfinite(self.phi):
            raise GeometryError("BoundaryPoint: non-finite angle")
        object.__setattr__(self, "phi", float(self.phi) % (2 * math.pi))

    @property
    def flag(self) -> Flag:
        c, s = math.cos(self.phi), math.sin(self.phi)
        return Flag(ProjectivePoint([c, 0.0, s]), ProjectiveCovector([-s, 0.0, c]))

    def same_as(self, other: "BoundaryPoint", tol: float = 1e-9) -> bool:
        d = math.fmod(self.phi - other.phi, math.pi)
        return min(abs(d), abs(abs(d) - math.pi)) <= tol


def _fiber_rows(x: PlanePoint, thetas) -> tuple[np.ndarray, np.ndarray]:
    """``fiber_over_interior`` at an array of conic angles, as (N, 3) flag rows."""
    c, s = np.cos(thetas), np.sin(thetas)
    one = np.ones_like(c)
    lines, planes = _flag_rows(np.stack([c, one, s], axis=1), np.stack([-c, one, -s], axis=1))
    if x.same_as(PlanePoint.identity(), tol=0.0):
        return lines, planes
    return _act_rows(plane_sqrt_frame(x), lines, planes)


def fiber_over_interior(x: PlanePoint, theta: float) -> Flag:
    """The fiber flag over x at conic angle theta.

    Over the identity this is ([cos t : 1 : sin t], [-cos t : 1 : -sin t]);
    over a general point it is the transvection translate by the square
    root of x.  The one-row case of ``_fiber_rows``.
    """
    lines, planes = _fiber_rows(x, np.array([float(theta)]))
    return Flag(ProjectivePoint(lines[0]), ProjectiveCovector(planes[0]))


def _conic_rows(rows: np.ndarray) -> np.ndarray:
    """``conic_eval`` of each row of an (N, 3) array of unit representatives.

    Squares by ``float_power``, the C ``pow`` that ``**`` on a float64
    scalar also calls (the array ``**`` squares by multiplication, which
    differs from it in the last bit), so each row matches the scalar form.
    """
    return np.float_power(rows[:, 0], 2) - np.float_power(rows[:, 1], 2) + np.float_power(rows[:, 2], 2)


def conic_eval(x) -> float:
    """Evaluate x1^2 - x2^2 + x3^2 on the unit representative.

    Zero exactly on the lines of the fiber over the identity; positive
    outside the conic, negative inside.  On a plane covector it is also the
    dual form, since diag(1,-1,1) is its own inverse: zero on tangent planes
    of the conic, positive iff the plane meets the open interior.
    """
    p = x if isinstance(x, ProjectivePoint) else ProjectivePoint(x)
    return float(_conic_rows(p.coords[None])[0])



def criticality_residual(f: Flag, x: PlanePoint) -> float:
    """Norm of the first-order conditions for x to minimize f's horofunction.

    The flag is pulled back by the square-root frame of x, so that x
    becomes the identity, where the two conditions are the gradient of
    ``_tangent_grad_hess`` (the criticality defects, which vanish at the
    projection).  Zero exactly on the fiber over x.
    """
    lines, planes = f.line.coords[None], f.plane.coords[None]
    if not x.same_as(PlanePoint.identity(), tol=0.0):
        lines, planes = _pullback_rows(plane_sqrt_frame(x), lines, planes)
    grad, _ = _tangent_grad_hess(lines.T, planes.T)
    return float(math.hypot(grad[0, 0], grad[1, 0]))


def boundary_fiber_contains(a: BoundaryPoint, f: Flag) -> bool:
    """True iff f belongs to the fiber over the boundary point a."""
    return thickening_contains(a.flag, f)


def _detect_boundary(x: np.ndarray, y: np.ndarray, tol: float):
    """Exact boundary detection on rows: which flags share a component with a boundary flag.

    ``x`` and ``y`` are (3, N) line and covector components.  The two
    candidate boundary points come from the line and from the plane, in
    that order; returns the hit mask and the angle phi in [0, 2 pi) of the
    first candidate whose thickening contains the flag (nan elsewhere).
    """
    hit = np.zeros(x.shape[1], dtype=bool)
    phi = np.full(x.shape[1], np.nan)
    candidates = (
        (np.hypot(x[0], x[2]) > tol, np.arctan2(x[2], x[0])),
        (np.hypot(y[0], y[2]) > tol, np.arctan2(-y[0], y[2])),
    )
    for valid, angle in candidates:
        angle = angle % (2 * math.pi)
        c, s = np.cos(angle), np.sin(angle)
        # thickening membership: the boundary flag ([c:0:s], [-s:0:c]) shares
        # the line or the plane (cross product norms, as ``same_as``)
        line_gap = np.sqrt((x[1] * s) ** 2 + (x[2] * c - x[0] * s) ** 2 + (x[1] * c) ** 2)
        plane_gap = np.sqrt((y[1] * c) ** 2 + (y[2] * s + y[0] * c) ** 2 + (y[1] * s) ** 2)
        new = valid & ~hit & ((line_gap <= SPECTRAL_TOL) | (plane_gap <= SPECTRAL_TOL))
        phi[new] = angle[new]
        hit |= new
    return hit, phi


def _tangent_grad_hess(x: np.ndarray, y: np.ndarray):
    """Gradients and Hessians of the horofunctions at the identity, rows as columns.

    ``x`` and ``y`` are (3, M) line and covector components.  Directions
    are the axis (diag) and off-diagonal tangent vectors of the plane; the
    gradient components are the criticality defects.  Returns the
    gradients (2, M) and the Hessian entries (h00, h01, h11), (3, M).
    """
    (a0, a1, a2), (b0, b1, b2) = x * x, y * y
    nx = a0 + a1 + a2
    ny = b0 + b1 + b2
    x1 = (a0 - a2) / nx
    x2 = 2.0 * x[0] * x[2] / nx
    y1 = (b0 - b2) / ny
    y2 = 2.0 * y[0] * y[2] / ny
    xq = (a0 + a2) / nx
    yq = (b0 + b2) / ny
    grad = np.array([x1 - y1, x2 - y2])
    hess = np.array([xq - x1 * x1 + yq - y1 * y1, -x1 * x2 - y1 * y2, xq - x2 * x2 + yq - y2 * y2])
    return grad, hess


def _move_value(x: np.ndarray, y: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Horofunction changes when moving each base by exp(s1 V_axis + s2 V_orth).

    No kernel calls it; it is kept because ``perfbench/tracing.py`` looks
    it up, with ``_tangent_grad_hess``, by module attribute.
    """
    r = np.hypot(s1, s2)
    rs = np.clip(r, 1e-150, 700.0)  # the branches below replace the clipped rows
    ch = np.cosh(rs)
    shr = np.where(r > 1e-150, np.sinh(rs) / rs, 1.0)
    (a0, a1, a2), (b0, b1, b2) = x * x, y * y
    up, down, cross = ch + shr * s1, ch - shr * s1, 2.0 * shr * s2
    qx = up * a0 + a1 + down * a2 + cross * x[0] * x[2]
    qy = down * b0 + b1 + up * b2 - cross * y[0] * y[2]
    nx = a0 + a1 + a2
    ny = b0 + b1 + b2
    finite = (r <= 700.0) & (qx > 0) & (qy > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        value = np.log(qx / nx) + np.log(qy / ny)
    return np.where(finite, value, np.inf)


#: Boundary-detection tolerance of ``_project_rows``.
BOUNDARY_TOL = 1e-10


class ProjectedRows(NamedTuple):
    """Projections of N flags, one entry per row.

    ``boundary`` marks rows projecting to the visual boundary, at angle
    ``phi`` in [0, 2 pi) (nan elsewhere); ``point`` holds the (a, b, c)
    columns of the interior plane points, shape (3, N), nan on boundary rows.
    """

    boundary: np.ndarray
    phi: np.ndarray
    point: np.ndarray


def _project_rows(lines: np.ndarray, planes: np.ndarray) -> ProjectedRows:
    """Project N validated flag rows onto the closed model plane.

    Boundary fibers are detected exactly by thickening membership against
    the two candidate boundary flags determined by the line and the plane.
    Every other row has x1 y1 != 0 (x the line, y the covector) and goes to
    the minimizer of its horofunction:

        s = |x1 y1| |x0 y0 + x2 y2|,
        a = (x1^2 y0^2 + y1^2 x2^2) / s,  b = (x1^2 y2^2 + y1^2 x0^2) / s,
        c = (x1^2 y0 y2 - y1^2 x0 x2) / s,

    with ab - c^2 = 1.  On the plane point P (its outer block) the
    horofunction is log(u^T P u + x1^2) + log(v^T P v + y1^2) up to a
    constant, with u = (x0, x2) and v = (y2, -y0).  Each quadratic is the
    exponential of a Busemann function and grows away from the geodesic
    joining the boundary points u and v, so the minimum lies on that
    geodesic, where (u^T P u)(v^T P v) = d^2 with d = x0 y0 + x2 y2.  With
    p = u^T P u, log(p + x1^2) + log(d^2 / p + y1^2) is least at
    p = |d x1 / y1|, which is the point above.

    Raises ``ProjectionError`` when a row's closed form is not finite: s
    rounds to 0 when u and v are parallel in float, and then the infimum
    lies on the boundary.  Every operation acts on each row alone, so a
    row's result does not depend on the rest of the batch.
    """
    x = np.array(np.asarray(lines, dtype=float).T, order="C")  # (3, N)
    y = np.array(np.asarray(planes, dtype=float).T, order="C")
    boundary, phi = _detect_boundary(x, y, BOUNDARY_TOL)
    interior = np.flatnonzero(~boundary)
    (x0, x1, x2), (y0, y1, y2) = x[:, interior], y[:, interior]
    xx, yy = x1 * x1, y1 * y1
    s = np.abs(x1 * y1) * np.abs(x0 * y0 + x2 * y2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        abc = np.array([xx * y0 * y0 + yy * x2 * x2, xx * y2 * y2 + yy * x0 * x0, xx * y0 * y2 - yy * x0 * x2]) / s
    failed = ~np.isfinite(abc).all(axis=0)
    if failed.any():
        raise ProjectionError(
            f"flag row {interior[failed][0]} has no interior projection: the outer parts of "
            "its line and covector are parallel in float, so its horofunction is least on the boundary"
        )
    point = np.full((3, boundary.size), np.nan)
    point[:, interior] = abc
    return ProjectedRows(boundary, phi, point)


def project(f: Flag, frame: GroupElem | None = None) -> PlanePoint | BoundaryPoint:
    """Project a flag onto the closed model plane through a frame.

    The flag is pulled back by ``frame`` (a group element carrying the
    model plane onto a reducible plane) and sent to the interior
    ``PlanePoint`` minimizing its horofunction or to the ``BoundaryPoint``
    whose thickening contains it.  The one-row case of ``_project_rows``;
    raises ``ProjectionError`` when the horofunction has no interior
    minimum in float.
    """
    lines, planes = f.line.coords[None], f.plane.coords[None]
    if frame is not None:
        lines, planes = _pullback_rows(frame, lines, planes)
    rows = _project_rows(lines, planes)
    if rows.boundary[0]:
        return BoundaryPoint(float(rows.phi[0]))
    a, b, c = rows.point[:, 0]
    return PlanePoint(float(a), float(b), float(c))
