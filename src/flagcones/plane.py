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

Pure operations on immutable values; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flags import (
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
    SpdPoint,
    pullback_flag,
    act_on_flag,
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
        if not (np.isfinite(self.a) and np.isfinite(self.b) and np.isfinite(self.c)):
            raise GeometryError("PlanePoint: non-finite entries")
        if self.a <= 0:
            raise GeometryError("PlanePoint: a must be positive")
        scale = max(1.0, abs(self.a * self.b), self.c**2)
        if abs(self.a * self.b - self.c**2 - 1.0) > 1e-10 * scale:
            raise GeometryError("PlanePoint: ab - c^2 != 1")

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
        return 0.5 * (math.log(self.a) - math.log(self.b))

    def block2(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.c, self.b]])

    def same_as(self, other: "PlanePoint", tol: float = 1e-9) -> bool:
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
        )


def plane_sqrt_frame(p: PlanePoint) -> GroupElem:
    """The symmetric transvection carrying the identity to p inside the plane."""
    return GroupElem(embed_sl2(_sqrt2(p.block2())))


def _sqrt2(m2: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(m2)
    return (q * np.sqrt(w)) @ q.T


def plane_geodesic_point(p: PlanePoint, q: PlanePoint, s: float) -> PlanePoint:
    """The point at parameter s on the plane geodesic from p (s=0) to q (s=1)."""
    sp = _sqrt2(p.block2())
    spi = np.linalg.inv(sp)
    mid = spi @ q.block2() @ spi
    w, ev = np.linalg.eigh(0.5 * (mid + mid.T))
    m = (ev * np.power(w, s)) @ ev.T
    out = sp @ m @ sp
    return PlanePoint(float(out[0, 0]), float(out[1, 1]), float(out[0, 1]))


def _wrap_angle(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2 * math.pi)
    if out <= 0:
        out += 2 * math.pi
    return out - math.pi


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
        return _wrap_angle(2.0 * self.phi - math.pi)

    def same_as(self, other: "BoundaryPoint", tol: float = 1e-9) -> bool:
        d = math.fmod(self.phi - other.phi, math.pi)
        return min(abs(d), abs(abs(d) - math.pi)) <= tol


@dataclass(frozen=True, eq=False)
class ReduciblePlaneFrame:
    """A group element mapping the model plane onto a general reducible plane."""

    g: GroupElem

    @classmethod
    def identity(cls) -> "ReduciblePlaneFrame":
        return cls(GroupElem.identity())

    def compose(self, other: GroupElem) -> "ReduciblePlaneFrame":
        return ReduciblePlaneFrame(self.g.compose(other))


@dataclass(frozen=True, eq=False)
class Projection:
    """Result of projecting a flag: an interior plane point or a boundary point."""

    kind: str
    point: PlanePoint | None = None
    boundary: BoundaryPoint | None = None

    @classmethod
    def interior(cls, point: PlanePoint) -> "Projection":
        return cls("interior", point=point)

    @classmethod
    def at_boundary(cls, boundary: BoundaryPoint) -> "Projection":
        return cls("boundary", boundary=boundary)

    @property
    def is_interior(self) -> bool:
        return self.kind == "interior"


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
    outside the conic, negative inside.
    """
    p = x if isinstance(x, ProjectivePoint) else ProjectivePoint(x)
    v = p.coords
    return float(v[0] ** 2 - v[1] ** 2 + v[2] ** 2)


def dual_conic_eval(y) -> float:
    """Dual form y1^2 - y2^2 + y3^2 on a plane covector.

    Zero on tangent planes of the conic; positive iff the plane meets the
    open interior of the conic.
    """
    p = y if isinstance(y, ProjectiveCovector) else ProjectiveCovector(y)
    v = p.coords
    return float(v[0] ** 2 - v[1] ** 2 + v[2] ** 2)


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


def _detect_boundary(f: Flag, tol: float) -> BoundaryPoint | None:
    """Exact boundary detection: f shares a component with some boundary flag."""
    x = f.line.coords
    y = f.plane.coords
    candidates = []
    if math.hypot(x[0], x[2]) > tol:
        candidates.append(math.atan2(x[2], x[0]))
    if math.hypot(y[0], y[2]) > tol:
        candidates.append(math.atan2(-y[0], y[2]))
    for phi in candidates:
        a = BoundaryPoint(phi)
        if boundary_fiber_contains(a, f):
            return a
    return None


def _tangent_grad_hess(xv, yv):
    """Gradient and Hessian of the horofunction at the identity.

    Directions are the axis (diag) and off-diagonal tangent vectors of the
    plane; the gradient components are the criticality defects.
    """
    nx = xv[0] ** 2 + xv[1] ** 2 + xv[2] ** 2
    ny = yv[0] ** 2 + yv[1] ** 2 + yv[2] ** 2
    x1 = (xv[0] ** 2 - xv[2] ** 2) / nx
    x2 = 2.0 * xv[0] * xv[2] / nx
    y1 = (yv[0] ** 2 - yv[2] ** 2) / ny
    y2 = 2.0 * yv[0] * yv[2] / ny
    xq = (xv[0] ** 2 + xv[2] ** 2) / nx
    yq = (yv[0] ** 2 + yv[2] ** 2) / ny
    grad = np.array([x1 - y1, x2 - y2])
    hess = np.array(
        [
            [xq - x1 * x1 + yq - y1 * y1, -x1 * x2 - y1 * y2],
            [-x1 * x2 - y1 * y2, xq - x2 * x2 + yq - y2 * y2],
        ]
    )
    return grad, hess


def _move_value(xv, yv, s1, s2):
    """Horofunction change when moving the base by exp(s1 V_axis + s2 V_orth)."""
    r = math.hypot(s1, s2)
    if r > 700.0:
        return math.inf
    ch = math.cosh(r)
    shr = math.sinh(r) / r if r > 1e-150 else 1.0
    qx = (
        (ch + shr * s1) * xv[0] ** 2
        + xv[1] ** 2
        + (ch - shr * s1) * xv[2] ** 2
        + 2.0 * shr * s2 * xv[0] * xv[2]
    )
    qy = (
        (ch - shr * s1) * yv[0] ** 2
        + yv[1] ** 2
        + (ch + shr * s1) * yv[2] ** 2
        - 2.0 * shr * s2 * yv[0] * yv[2]
    )
    nx = xv[0] ** 2 + xv[1] ** 2 + xv[2] ** 2
    ny = yv[0] ** 2 + yv[1] ** 2 + yv[2] ** 2
    if qx <= 0 or qy <= 0:
        return math.inf
    return math.log(qx / nx) + math.log(qy / ny)


def _half_step(s1, s2) -> np.ndarray:
    """exp of half the 2x2 tangent matrix [[s1, s2], [s2, -s1]]."""
    r = 0.5 * math.hypot(s1, s2)
    ch = math.cosh(r)
    shr = 0.5 * math.sinh(r) / r if r > 1e-150 else 0.5
    return np.array([[ch + shr * s1, shr * s2], [shr * s2, ch - shr * s1]])


def project(
    f: Flag,
    frame: ReduciblePlaneFrame | None = None,
    grad_tol: float = 1e-10,
    max_iter: int = 100,
    boundary_tol: float = 1e-10,
) -> Projection:
    """Project a flag onto the closed model plane through a frame.

    Boundary fibers are detected exactly by thickening membership against
    the two candidate boundary flags determined by the line and the plane.
    Otherwise the horofunction is minimized over the plane by a damped
    Newton method that recenters at every iterate (the step is taken in
    the tangent plane at the current point, where the first-order
    conditions are the criticality defects and perfectly scaled), so the
    gradient tolerance is meaningful uniformly far out in the plane.
    """
    f0 = f if frame is None else pullback_flag(frame.g, f)
    hit = _detect_boundary(f0, boundary_tol)
    if hit is not None:
        return Projection.at_boundary(hit)

    xv = np.array(f0.line.coords)
    yv = np.array(f0.plane.coords)
    carrier = np.eye(2)  # accumulated transvection, current point = carrier carrier^T
    gnorm = math.inf
    for it in range(max_iter):
        grad, hess = _tangent_grad_hess(xv, yv)
        gnorm = float(np.abs(grad).max())
        if gnorm <= grad_tol:
            break
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if hess[0, 0] > 0 and det > 0:
            step = -np.linalg.solve(hess, grad)
        else:
            step = -grad
        slope = float(np.dot(grad, step))
        if slope >= 0:
            step = -grad
            slope = -float(np.dot(grad, grad))
        # hyperbolic trust region: moves beyond a few units are never needed
        # in one step and overflow the move evaluation
        norm = float(np.hypot(step[0], step[1]))
        if norm > 8.0:
            scale = 8.0 / norm
            step = step * scale
            slope *= scale
        if gnorm <= 1e-6:
            # quadratic basin: the sufficient-decrease test is below float
            # resolution here, take the undamped Newton step
            t = 1.0
        else:
            t = 1.0
            accepted = False
            for _ in range(60):
                newval = _move_value(xv, yv, t * step[0], t * step[1])
                if newval <= 1e-4 * t * slope:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                raise ProjectionError(
                    "line search failed (near-boundary flag?)",
                    iterations=it,
                    grad_norm=gnorm,
                )
        half = _half_step(t * step[0], t * step[1])
        carrier = carrier @ half
        # pull the flag back to the new base point (outer coordinates move,
        # the middle one is fixed); renormalize for conditioning
        x13 = half @ np.array([xv[0], xv[2]])
        hinv = np.linalg.inv(half)
        y13 = hinv @ np.array([yv[0], yv[2]])
        xv = np.array([x13[0], xv[1], x13[1]])
        yv = np.array([y13[0], yv[1], y13[1]])
        xv /= np.linalg.norm(xv)
        yv /= np.linalg.norm(yv)
    else:
        raise ProjectionError(
            "no convergence within max iterations (near-boundary flag?)",
            iterations=max_iter,
            grad_norm=gnorm,
        )
    p2 = carrier @ carrier.T
    return Projection.interior(
        PlanePoint(float(p2[0, 0]), float(p2[1, 1]), float(p2[0, 1]))
    )
