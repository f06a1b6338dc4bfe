"""Helpers shared by the test modules: random test data, references and re-readers of outputs.

None of this is library code.  The CLI and the benchmark never call it;
the tests use it to draw flags and group elements, change frames, walk
plane geodesics, detect boundary rows by the two-candidate search,
project a flag in 60-digit arithmetic, bisect a nest estimate, evaluate
the certificate oracle by broadcasting, read a field CSV back and reduce
words cyclically.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg

from flagcones.certificate import HermitianMat, _field_corner, _hprime_closed
from flagcones.cones import INSIDE, _classify_position
from flagcones.flags import (
    FRAME_TO_COMPLEX,
    SPECTRAL_TOL,
    _FRAME_TO_REAL,
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
)
from flagcones.pde import DomainError, DomainSpec, ScalarField
from flagcones.plane import PlanePoint, _sqrt2, _wrap_angle


# --- flags -------------------------------------------------------------------


def frame_change_real_to_complex(x) -> np.ndarray:
    """Map a real triple to complexified coordinates.

    z1 = (x1 + i x3)/sqrt(2), z2 = x2, z3 = (x1 - i x3)/sqrt(2).
    """
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.shape != (3,):
        raise GeometryError(f"expected a triple, got shape {v.shape}")
    return FRAME_TO_COMPLEX @ v


def frame_change_complex_to_real(z) -> np.ndarray:
    """Inverse of ``frame_change_real_to_complex`` (returns a complex triple)."""
    v = np.asarray(z, dtype=complex).reshape(-1)
    if v.shape != (3,):
        raise GeometryError(f"expected a triple, got shape {v.shape}")
    return _FRAME_TO_REAL @ v


def random_flag(rng: np.random.Generator) -> Flag:
    """A random flag: uniform line, uniform incident plane."""
    while True:
        x = rng.normal(size=3)
        nx = np.linalg.norm(x)
        if nx > 1e-3:
            x = x / nx
            break
    while True:
        y = rng.normal(size=3)
        y = y - np.dot(y, x) * x
        ny = np.linalg.norm(y)
        if ny > 1e-3:
            y = y / ny
            break
    return Flag(ProjectivePoint(x), ProjectiveCovector(y))


#: Attempts ``random_group_elem`` makes before it gives up.
_GROUP_DRAWS = 64


def random_group_elem(rng: np.random.Generator, scale: float = 0.7) -> GroupElem:
    """A random element of SL(3,R), exp of a random trace-free matrix.

    Rounding the entries of a float matrix moves its determinant by about
    eps times its condition number, so once that passes about 1e6 the
    float exp(a) can miss determinant 1 by more than the 1e-10 that
    ``GroupElem`` checks, however it is rescaled (about 5% of draws at
    scale 4).  Such draws are redrawn, up to ``_GROUP_DRAWS`` times;
    draws that pass are returned as drawn.
    """
    for _ in range(_GROUP_DRAWS):
        a = rng.normal(size=(3, 3)) * scale
        a -= np.trace(a) / 3.0 * np.eye(3)
        try:
            return GroupElem(scipy.linalg.expm(a))
        except GeometryError:
            continue
    raise GeometryError(f"random_group_elem: no draw at scale {scale} passed the determinant check")


# --- plane -------------------------------------------------------------------


def plane_geodesic_point(p: PlanePoint, q: PlanePoint, s: float) -> PlanePoint:
    """The point at parameter s on the plane geodesic from p (s=0) to q (s=1)."""
    sp = _sqrt2(p.block2())
    spi = np.linalg.inv(sp)
    mid = spi @ q.block2() @ spi
    w, ev = np.linalg.eigh(0.5 * (mid + mid.T))
    m = (ev * np.power(w, s)) @ ev.T
    out = sp @ m @ sp
    return PlanePoint(float(out[0, 0]), float(out[1, 1]), float(out[0, 1]))


def reference_detect_boundary(x: np.ndarray, y: np.ndarray, tol: float):
    """Boundary detection by the two-candidate search: the reference for ``plane._detect_boundary``.

    ``x`` and ``y`` are (3, N) line and covector components.  The candidate
    boundary flags come from the line's angle and from the plane's angle,
    in that order (a candidate needs its outer part longer than ``tol``);
    a row hits the first candidate whose line or plane it shares to
    ``SPECTRAL_TOL``, by cross-product norms as ``Flag.same_as`` measures
    them.  Returns the hit mask and phi in [0, 2 pi) (nan elsewhere).
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
        line_gap = np.sqrt((x[1] * s) ** 2 + (x[2] * c - x[0] * s) ** 2 + (x[1] * c) ** 2)
        plane_gap = np.sqrt((y[1] * c) ** 2 + (y[2] * s + y[0] * c) ** 2 + (y[1] * s) ** 2)
        new = valid & ~hit & ((line_gap <= SPECTRAL_TOL) | (plane_gap <= SPECTRAL_TOL))
        phi[new] = angle[new]
        hit |= new
    return hit, phi


def reference_projection(line, covector, digits=60, grad_tol=1e-40, max_iter=200):
    """The interior projection (a, b, c) of one flag, by a damped Newton in ``digits``-digit arithmetic.

    ``line`` and ``covector`` are the float components, taken as exact.
    Every step is taken in the tangent plane at the current point, where
    the gradient of the horofunction is (x1 - y1, x2 - y2) in the normalized
    line and covector squares (the criticality defects): the flag is pulled
    back to the new point after each step, so far rows converge as near
    ones do.  A step is Newton's where the Hessian is positive definite and
    steepest descent elsewhere, capped at length 8, and halved until it
    decreases the horofunction enough (Armijo) while the gradient exceeds
    1e-6.  Stops at gradient ``grad_tol`` and returns the entries as mpf.
    Raises ``AssertionError`` if it does not get there.
    """
    with mpmath.workdps(digits):
        x = [mpmath.mpf(float(v)) for v in line]
        y = [mpmath.mpf(float(v)) for v in covector]
        carrier = mpmath.eye(2)
        for _ in range(max_iter):
            nx, ny = sum(v * v for v in x), sum(v * v for v in y)
            x1, x2 = (x[0] ** 2 - x[2] ** 2) / nx, 2 * x[0] * x[2] / nx
            y1, y2 = (y[0] ** 2 - y[2] ** 2) / ny, 2 * y[0] * y[2] / ny
            xq, yq = (x[0] ** 2 + x[2] ** 2) / nx, (y[0] ** 2 + y[2] ** 2) / ny
            g0, g1 = x1 - y1, x2 - y2
            gnorm = max(abs(g0), abs(g1))
            if gnorm <= grad_tol:
                break
            h00, h01, h11 = xq - x1 * x1 + yq - y1 * y1, -x1 * x2 - y1 * y2, xq - x2 * x2 + yq - y2 * y2
            det = h00 * h11 - h01 * h01
            s0, s1 = ((h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det) if h00 > 0 and det > 0 else (-g0, -g1)
            slope = g0 * s0 + g1 * s1
            if slope >= 0:
                s0, s1, slope = -g0, -g1, -(g0 * g0 + g1 * g1)
            scale = 8 / max(mpmath.hypot(s0, s1), 8)
            s0, s1, slope = s0 * scale, s1 * scale, slope * scale
            t = mpmath.mpf(1)
            if gnorm > 1e-6:
                for _ in range(60):
                    if _mp_move_value(x, y, t * s0, t * s1) <= t * slope / 10**4:
                        break
                    t /= 2
                else:
                    raise AssertionError("reference_projection: line search failed")
            half = _mp_half_step(t * s0, t * s1)
            carrier = carrier * half
            (p00, p01), (_, p11) = half.tolist()
            x = _mp_unit([p00 * x[0] + p01 * x[2], x[1], p01 * x[0] + p11 * x[2]])
            y = _mp_unit([p11 * y[0] - p01 * y[2], y[1], p00 * y[2] - p01 * y[0]])
        else:
            raise AssertionError(f"reference_projection: gradient {gnorm} after {max_iter} steps")
        point = carrier * carrier.T
        return point[0, 0], point[1, 1], point[0, 1]


def _mp_unit(v):
    norm = mpmath.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def _mp_move_value(x, y, s0, s1):
    """Horofunction change when moving the base by exp(s0 V_axis + s1 V_orth), in mpmath."""
    r = mpmath.hypot(s0, s1)
    ch = mpmath.cosh(r)
    shr = mpmath.sinh(r) / r if r else mpmath.mpf(1)
    up, down, cross = ch + shr * s0, ch - shr * s0, 2 * shr * s1
    qx = up * x[0] ** 2 + x[1] ** 2 + down * x[2] ** 2 + cross * x[0] * x[2]
    qy = down * y[0] ** 2 + y[1] ** 2 + up * y[2] ** 2 - cross * y[0] * y[2]
    if qx <= 0 or qy <= 0:
        return mpmath.inf
    return mpmath.log(qx / sum(v * v for v in x)) + mpmath.log(qy / sum(v * v for v in y))


def _mp_half_step(s0, s1):
    """exp of half the tangent matrix [[s0, s1], [s1, -s0]], in mpmath."""
    r = mpmath.hypot(s0, s1) / 2
    ch = mpmath.cosh(r)
    shr = mpmath.sinh(r) / (2 * r) if r else mpmath.mpf(1) / 2
    return mpmath.matrix([[ch + shr * s0, shr * s1], [shr * s1, ch - shr * s0]])


# --- cones -------------------------------------------------------------------

#: The bisection's cap on the contraction amount.
REFERENCE_LAM_CAP = 64.0


def reference_shift_position(boundary: np.ndarray, value: np.ndarray, lam: float):
    """Positions after pulling back by the canonical contraction of amount lam.

    The contraction is diagonal in the canonical coordinates, so interior
    positions shift by -2 lam in sigma and boundary angles move by an
    explicit circle map.
    """
    phi = 0.5 * (value + math.pi)
    phi2 = np.arctan2(math.exp(-lam) * np.sin(phi), math.exp(lam) * np.cos(phi))
    return boundary, np.where(boundary, _wrap_angle(2.0 * phi2 - math.pi), value - 2.0 * lam)


def reference_all_inside(positions, lam: float, tol: float) -> bool:
    """Whether every position stays inside after the contraction of amount lam."""
    return bool(np.all(_classify_position(*reference_shift_position(*positions, lam), tol) == INSIDE))


def reference_nest_lower(positions, tol: float) -> float:
    """Bisected largest contraction amount keeping nested positions inside, at most REFERENCE_LAM_CAP.

    Doubles from 1 to bracket the amount, then bisects 60 times.  The
    shift rounds an angle 0 to fl(pi/2), so the result never exceeds
    about 18.666 however far apart the cones are.
    """
    hi = 1.0
    while hi < REFERENCE_LAM_CAP and reference_all_inside(positions, hi, tol):
        hi *= 2.0
    if hi >= REFERENCE_LAM_CAP:
        return REFERENCE_LAM_CAP
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reference_all_inside(positions, mid, tol):
            lo = mid
        else:
            hi = mid
    return lo


# --- certificate -------------------------------------------------------------


def reference_oracle_alphas(beta: complex, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(3,1) corners of the commutator field of H' over d (rows) and projectors p (columns).

    The sweep's broadcast oracle before it became a contraction: each
    (d, z) cell evaluated by ``_field_corner`` on H'(beta, d) and the
    projector directly.
    """
    return _field_corner(_hprime_closed(beta, d)[:, None], p)


def alpha_coefficient(mat) -> complex:
    """The corner coefficient pairing a Hermitian field against the cylinder.

    Reads the (3,1) entry; for Hermitian fields the (1,3) entry is its
    complex conjugate, so the pairing modulus is unaffected by the choice.
    """
    m = mat.mat if isinstance(mat, HermitianMat) else np.asarray(mat)
    return complex(m[2, 0])


# --- pde ---------------------------------------------------------------------


def read_field_csv(path, dom: DomainSpec) -> ScalarField:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "nx,ny":
            raise DomainError(f"unexpected CSV header {header!r}")
        nx, ny = (int(v) for v in fh.readline().split(","))
        rows = [np.fromstring(line, sep=",") for line in fh if line.strip()]
    values = np.vstack(rows)
    if values.shape != (nx, ny):
        raise DomainError("CSV shape does not match its header")
    return ScalarField(values, dom)


# --- reps --------------------------------------------------------------------


def is_cyclically_reduced(word) -> bool:
    return len(word) == 0 or word[0] != -word[-1]


def cyclic_reduce(word) -> tuple:
    w = list(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)
