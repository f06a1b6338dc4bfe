"""The model reducible hyperbolic plane and the extended nearest-point projection.

The model plane H0 consists of the unit-determinant scalar products fixing
the middle coordinate, [[a,0,c],[0,1,0],[c,0,b]] with ab - c^2 = 1.  It is
a totally geodesic hyperbolic plane, the orbit of the identity under the
SL(2,R) embedded in the outer 2x2 block.

``project`` extends the nearest-point projection of the symmetric space
onto H0 to the whole flag manifold: a flag is sent either to the interior
point minimizing its horofunction over the plane, or to the boundary
point whose thickening contains it.  Interior fibers are conics
(``fiber_over_interior``, ``conic_eval``), boundary fibers are thickenings
(``boundary_fiber_contains``).

Projection is batched: ``_project_rows`` takes N flags as (N, 3) line and
covector rows and runs one masked Newton over them, returning per-row
arrays with a status code in place of an exception; ``project`` is its
one-row case.  Inside the kernel the rows are held as (3, N) component
arrays, and every operation acts on each row alone.  The kernel does not
validate its input: rows come from ``Flag`` objects or from the row
kernels of ``flags`` (``_pullback_rows`` for a frame), which check
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
    _pullback_rows,
    act_on_flag,
    pullback_flag,
    thickening_contains,
)

#: Tangent direction of the plane at the identity along the a/b axis.
AXIS_DIRECTION = np.diag([1.0, 0.0, -1.0])
AXIS_DIRECTION.setflags(write=False)


class ProjectionError(RuntimeError):
    """Newton minimization failed to converge (near-boundary input)."""

    def __init__(self, message, iterations=None, grad_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.grad_norm = grad_norm


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

    @classmethod
    def from_spd(cls, x: SpdPoint, tol: float = 1e-9) -> "PlanePoint":
        m = x.mat
        scale = max(1.0, float(np.abs(m).max()))
        off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[1, 2]), abs(m[2, 1]))
        if off > tol * scale or abs(m[1, 1] - 1.0) > tol:
            raise GeometryError("SpdPoint does not lie on the model plane")
        return cls(float(m[0, 0]), float(m[2, 2]), float(m[0, 2]))

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


def plane_geodesic_point(p: PlanePoint, q: PlanePoint, s: float) -> PlanePoint:
    """The point at parameter s on the plane geodesic from p (s=0) to q (s=1)."""
    sp = _sqrt2(p.block2())
    spi = np.linalg.inv(sp)
    mid = spi @ q.block2() @ spi
    w, ev = np.linalg.eigh(0.5 * (mid + mid.T))
    m = (ev * np.power(w, s)) @ ev.T
    out = sp @ m @ sp
    return PlanePoint(float(out[0, 0]), float(out[1, 1]), float(out[0, 1]))


def _wrap_angle(phi):
    """Wrap to (-pi, pi], elementwise."""
    out = np.fmod(phi + math.pi, 2 * math.pi)
    return np.where(out <= 0, out + 2 * math.pi, out) - math.pi


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A visual boundary point of the plane, with its boundary flag.

    The flag at angle phi is ([cos phi : 0 : sin phi], [-sin phi : 0 : cos phi]);
    phi and phi + pi give the same flag, so boundary points are parametrized
    by phi mod pi.  ``direction_angle`` recovers the direction (at the
    identity) of the geodesic rays converging to this point.
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

    @property
    def direction_angle(self) -> float:
        """Direction angle (at the identity) of rays converging to this point."""
        return float(_wrap_angle(2.0 * self.phi - math.pi))

    def same_as(self, other: "BoundaryPoint", tol: float = 1e-9) -> bool:
        d = math.fmod(self.phi - other.phi, math.pi)
        return min(abs(d), abs(abs(d) - math.pi)) <= tol


def fiber_over_interior(x: PlanePoint, theta: float) -> Flag:
    """The fiber flag over x at conic angle theta.

    Over the identity this is ([cos t : 1 : sin t], [-cos t : 1 : -sin t]);
    over a general point it is the transvection translate by the square
    root of x.
    """
    c, s = math.cos(theta), math.sin(theta)
    base = Flag(ProjectivePoint([c, 1.0, s]), ProjectiveCovector([-c, 1.0, -s]))
    if x.same_as(PlanePoint.identity(), tol=0.0):
        return base
    return act_on_flag(plane_sqrt_frame(x), base)


def conic_eval(x) -> float:
    """Evaluate x1^2 - x2^2 + x3^2 on the unit representative.

    Zero exactly on the lines of the fiber over the identity; positive
    outside the conic, negative inside.  On a plane covector it is also the
    dual form, since diag(1,-1,1) is its own inverse: zero on tangent planes
    of the conic, positive iff the plane meets the open interior.
    """
    p = x if isinstance(x, ProjectivePoint) else ProjectivePoint(x)
    v = p.coords
    return float(v[0] ** 2 - v[1] ** 2 + v[2] ** 2)


dual_conic_eval = conic_eval


def criticality_residual(f: Flag, x: PlanePoint) -> float:
    """Norm of the first-order conditions for x to minimize f's horofunction.

    The flag is transvected so that x becomes the identity, where the two
    conditions compare the axis and off-diagonal moments of the line and
    plane representatives.  Zero exactly on the fiber over x.
    """
    if x.same_as(PlanePoint.identity(), tol=0.0):
        g = None
        fx = f
    else:
        g = plane_sqrt_frame(x)
        fx = pullback_flag(g, f)
    xv = fx.line.coords
    yv = fx.plane.coords
    r1 = (yv[0] ** 2 - yv[2] ** 2) - (xv[0] ** 2 - xv[2] ** 2)
    r2 = 2.0 * yv[0] * yv[2] - 2.0 * xv[0] * xv[2]
    return float(math.hypot(r1, r2))


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
    """Horofunction changes when moving each base by exp(s1 V_axis + s2 V_orth)."""
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


def _half_step(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """exp of half the tangent matrices [[s1, s2], [s2, -s1]]: entries (h00, h01, h11), (3, M)."""
    r = 0.5 * np.hypot(s1, s2)
    rs = np.maximum(r, 1e-150)
    ch = np.cosh(r)
    shr = np.where(r > 1e-150, 0.5 * np.sinh(rs) / rs, 0.5)
    return np.array([ch + shr * s1, shr * s2, ch - shr * s1])


def _descent_steps(grad: np.ndarray, hess: np.ndarray):
    """Newton steps where the Hessian is positive definite, else steepest descent.

    Returns the steps (2, M), capped at length 8 (a hyperbolic trust
    region: moves beyond a few units are never needed in one step and
    overflow the move evaluation), and their slopes grad . step < 0.
    """
    g0, g1 = grad
    h00, h01, h11 = hess
    det = h00 * h11 - h01 * h01
    newton = (h00 > 0) & (det > 0)
    det = np.where(newton, det, 1.0)
    s0 = np.where(newton, (h01 * g1 - h11 * g0) / det, -g0)
    s1 = np.where(newton, (h01 * g0 - h00 * g1) / det, -g1)
    slope = g0 * s0 + g1 * s1
    uphill = slope >= 0
    s0 = np.where(uphill, -g0, s0)
    s1 = np.where(uphill, -g1, s1)
    slope = np.where(uphill, -(g0 * g0 + g1 * g1), slope)
    norm = np.hypot(s0, s1)
    scale = 8.0 / np.maximum(norm, 8.0)
    return np.array([s0 * scale, s1 * scale]), slope * scale


def _armijo_lengths(x, y, step, slope, gnorm) -> np.ndarray:
    """Step lengths by Armijo halving, each row on its own; nan where 60 halvings fail.

    Rows with gradient <= 1e-6 are in the quadratic basin, where the
    sufficient-decrease test is below float resolution: they take the
    undamped Newton step.
    """
    t = np.ones(gnorm.size)
    pending = np.flatnonzero(gnorm > 1e-6)
    for _ in range(60):
        if pending.size == 0:
            return t
        tp = t[pending]
        value = _move_value(x[:, pending], y[:, pending], tp * step[0, pending], tp * step[1, pending])
        pending = pending[~(value <= 1e-4 * tp * slope[pending])]
        t[pending] *= 0.5
    t[pending] = np.nan
    return t


#: Newton gradient tolerance and boundary-detection tolerance of ``_project_rows``.
GRAD_TOL = 1e-10
BOUNDARY_TOL = 1e-10

#: Row status codes of ``_project_rows``; failures carry ``ProjectionError`` messages.
CONVERGED, LINE_SEARCH_FAILED, NOT_CONVERGED = 0, 1, 2
_FAILURES = {
    LINE_SEARCH_FAILED: "line search failed (near-boundary flag?)",
    NOT_CONVERGED: "no convergence within max iterations (near-boundary flag?)",
}


class ProjectedRows(NamedTuple):
    """Projections of N flags, one entry per row.

    ``boundary`` marks rows projecting to the visual boundary, at angle
    ``phi`` in [0, 2 pi) (nan elsewhere); ``point`` holds the (a, b, c)
    columns of the interior plane points, shape (3, N) (nan on boundary
    and failed rows).  ``iterations`` and ``grad_norm`` are each row's
    Newton iterations and last gradient norm; ``status`` is CONVERGED or
    the row's failure code.
    """

    boundary: np.ndarray
    phi: np.ndarray
    point: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray
    status: np.ndarray

    def raise_first_failure(self) -> None:
        """Raise ``ProjectionError`` for the first failed row, if any."""
        failed = np.flatnonzero(self.status != CONVERGED)
        if failed.size:
            i = failed[0]
            raise ProjectionError(
                _FAILURES[int(self.status[i])],
                iterations=int(self.iterations[i]),
                grad_norm=float(self.grad_norm[i]),
            )


def _project_rows(lines: np.ndarray, planes: np.ndarray, max_iter: int = 100) -> ProjectedRows:
    """Project N validated flag rows onto the closed model plane.

    Boundary fibers are detected exactly by thickening membership against
    the two candidate boundary flags determined by the line and the plane.
    The other rows minimize their horofunction over the plane by a damped
    Newton method that recenters at every iterate (the step is taken in
    the tangent plane at the current point, where the first-order
    conditions are the criticality defects and perfectly scaled), so the
    gradient tolerance is meaningful uniformly far out in the plane.
    Newton runs over the active rows only: converged and failed rows
    freeze.  Every operation acts on each row alone, so a row's result
    does not depend on the rest of the batch.
    """
    x = np.array(np.asarray(lines, dtype=float).T, order="C")  # (3, N)
    y = np.array(np.asarray(planes, dtype=float).T, order="C")
    n = x.shape[1]
    boundary, phi = _detect_boundary(x, y, BOUNDARY_TOL)
    status = np.where(boundary, CONVERGED, NOT_CONVERGED)
    iterations = np.where(boundary, 0, max_iter)
    grad_norm = np.zeros(n)
    point = np.full((3, n), np.nan)

    # per active row: its index, line, covector and accumulated transvection
    # C = (c00, c01, c10, c11), the current point being C C^T
    rows = np.flatnonzero(~boundary)
    x, y = x[:, rows], y[:, rows]
    carrier = np.repeat(np.array([[1.0], [0.0], [0.0], [1.0]]), rows.size, axis=1)
    for it in range(max_iter):
        if rows.size == 0:
            break
        grad, hess = _tangent_grad_hess(x, y)
        gnorm = np.maximum(np.abs(grad[0]), np.abs(grad[1]))
        grad_norm[rows] = gnorm
        done = gnorm <= GRAD_TOL
        if done.any():
            c00, c01, c10, c11 = carrier[:, done]
            point[:, rows[done]] = (c00 * c00 + c01 * c01, c10 * c10 + c11 * c11, c00 * c10 + c01 * c11)
            status[rows[done]] = CONVERGED
            iterations[rows[done]] = it
            go = ~done
            rows, x, y, carrier, grad, hess, gnorm = (
                rows[go], x[:, go], y[:, go], carrier[:, go], grad[:, go], hess[:, go], gnorm[go]
            )
        step, slope = _descent_steps(grad, hess)
        t = _armijo_lengths(x, y, step, slope, gnorm)
        failed = np.isnan(t)
        if failed.any():
            status[rows[failed]] = LINE_SEARCH_FAILED
            iterations[rows[failed]] = it
            go = ~failed
            rows, x, y, carrier, step, t = rows[go], x[:, go], y[:, go], carrier[:, go], step[:, go], t[go]

        h00, h01, h11 = _half_step(t * step[0], t * step[1])
        c00, c01, c10, c11 = carrier
        carrier = np.array([c00 * h00 + c01 * h01, c00 * h01 + c01 * h11, c10 * h00 + c11 * h01, c10 * h01 + c11 * h11])
        # pull the flags back to the new base points (outer coordinates move,
        # the middle one is fixed; the inverse half step swaps h00 and h11
        # and negates h01); renormalize for conditioning
        x = np.array([h00 * x[0] + h01 * x[2], x[1], h01 * x[0] + h11 * x[2]])
        y = np.array([h11 * y[0] - h01 * y[2], y[1], h00 * y[2] - h01 * y[0]])
        x /= np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        y /= np.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2)
    return ProjectedRows(boundary, phi, point, iterations, grad_norm, status)


def project(f: Flag, frame: GroupElem | None = None, max_iter: int = 100) -> PlanePoint | BoundaryPoint:
    """Project a flag onto the closed model plane through a frame.

    The flag is pulled back by ``frame`` (a group element carrying the
    model plane onto a reducible plane) and sent to the interior
    ``PlanePoint`` minimizing its horofunction or to the ``BoundaryPoint``
    whose thickening contains it.  The one-row case of ``_project_rows``;
    raises ``ProjectionError`` when the Newton minimization fails.
    """
    lines, planes = f.line.coords[None], f.plane.coords[None]
    if frame is not None:
        lines, planes = _pullback_rows(frame, lines, planes)
    rows = _project_rows(lines, planes, max_iter)
    rows.raise_first_failure()
    if rows.boundary[0]:
        return BoundaryPoint(float(rows.phi[0]))
    a, b, c = rows.point[:, 0]
    return PlanePoint(float(a), float(b), float(c))
