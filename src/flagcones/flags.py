"""Flags in R^3, the SL(3,R) symmetric space, and spectral-gap primitives.

Conventions used throughout the package:

* A flag is an incident pair (line, plane): a projective point together
  with a projective covector annihilating it.
* The symmetric space is realized as the unit-determinant symmetric
  positive definite 3x3 matrices (scalar products of volume one), with
  ``act_on_point(g, X) = g X g^T`` and the affine-invariant metric given
  by log-eigenvalue Euclidean norm.
* ``busemann`` evaluates the horofunction of a boundary flag in closed
  form.  The flag action ``act_on_flag`` is arranged so that ``busemann``
  is exactly invariant under the joint action with ``act_on_point``:
  lines transform by the inverse transpose and covectors by the matrix
  itself.  Boundary flags are identified with geodesic-ray classes by the
  divergence criterion: the flag of a ray is the one whose horofunction
  tends to minus infinity along it.
* N flags at once are an (N, 3) array of line rows and an (N, 3) array of
  covector rows.  The row kernels ``_unit_rows``, ``_flag_rows``,
  ``_act_rows`` and ``_pullback_rows`` hold the normalization, incidence
  check and actions; ``ProjectivePoint``, ``Flag``, ``act_on_flag`` and
  ``pullback_flag`` are their N=1 views.
* Exp, square root and inverse square root of a symmetric matrix are all
  q diag(f(w)) q^T of one ``np.linalg.eigh`` (``_symmetric_function``).

All values are immutable after construction and every operation is pure,
so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALGEBRAIC_TOL = 1e-12
SPECTRAL_TOL = 1e-10


class GeometryError(ValueError):
    """Raised when numerical data does not describe a valid geometric object."""


class NumericalDomainError(ArithmeticError):
    """Raised when a computation leaves its numerical domain."""


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (N, 3) arrays, each as ``np.dot`` computes it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(rows) -> np.ndarray:
    """Unit representatives of N homogeneous triples, the rows of an (N, 3) array.

    A row is scaled to unit length unless it is already within 1e-14 of
    it (so normalization is exactly idempotent), and its first entry with
    |c| > ALGEBRAIC_TOL is made positive.  Non-finite or zero rows raise.
    Row norms and the sign rule act on each row alone, so a row's result
    does not depend on the other rows.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise GeometryError(f"expected rows of real triples, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("non-finite homogeneous coordinates")
    norm = np.sqrt(_row_dots(v, v))
    if np.any(norm < 1e-300):
        raise GeometryError("zero homogeneous coordinates")
    v = v / np.where(np.abs(norm - 1.0) > 1e-14, norm, 1.0)[:, None]
    lead = np.abs(v) > ALGEBRAIC_TOL
    first = v[np.arange(len(v)), lead.argmax(axis=1)]
    return np.where((lead.any(axis=1) & (first < 0))[:, None], -v, v)


def _check_incidence(lines: np.ndarray, planes: np.ndarray) -> None:
    """Raise unless every row pair is incident: |line . plane| <= ALGEBRAIC_TOL."""
    defect = np.abs(_row_dots(lines, planes))
    if np.any(defect > ALGEBRAIC_TOL):
        raise GeometryError(f"flag incidence defect {float(defect.max()):.3e}")


def _flag_rows(lines, planes) -> tuple[np.ndarray, np.ndarray]:
    """Validated flag rows: unit representatives of N incident (line, plane) pairs."""
    lines, planes = _unit_rows(lines), _unit_rows(planes)
    if lines.shape != planes.shape:
        raise GeometryError(f"{len(lines)} lines but {len(planes)} planes")
    _check_incidence(lines, planes)
    return lines, planes


def _act_rows(g: "GroupElem", lines, planes) -> tuple[np.ndarray, np.ndarray]:
    """``act_on_flag`` on flag rows: lines by the inverse transpose, covectors by g.

    One LAPACK solve and one matrix-vector product per row, so every row
    gets exactly the arithmetic of a single flag.
    """
    lines, planes = np.asarray(lines, dtype=float), np.asarray(planes, dtype=float)
    mat_t = np.broadcast_to(g.mat.T, (len(lines), 3, 3))
    return _flag_rows(
        np.linalg.solve(mat_t, lines[:, :, None])[:, :, 0],
        (g.mat @ planes[:, :, None])[:, :, 0],
    )


def _pullback_rows(g: "GroupElem", lines, planes) -> tuple[np.ndarray, np.ndarray]:
    """``pullback_flag`` on flag rows: the action of g^-1 without forming it."""
    lines, planes = np.asarray(lines, dtype=float), np.asarray(planes, dtype=float)
    mat = np.broadcast_to(g.mat, (len(planes), 3, 3))
    return _flag_rows(
        (g.mat.T @ lines[:, :, None])[:, :, 0],
        np.linalg.solve(mat, planes[:, :, None])[:, :, 0],
    )


def _unit_representative(coords) -> np.ndarray:
    """Normalize homogeneous coordinates: unit length, first nonzero entry > 0."""
    v = np.asarray(coords, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise GeometryError(f"expected a real triple, got shape {v.shape}")
    v = _unit_rows(v[None])[0]
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of RP^2, stored as a normalized unit representative."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _unit_representative(self.coords))

    def same_as(self, other: "ProjectivePoint", tol: float = SPECTRAL_TOL) -> bool:
        return float(np.linalg.norm(np.cross(self.coords, other.coords))) <= tol

    def __eq__(self, other):
        if not isinstance(other, (ProjectivePoint, ProjectiveCovector)):
            return NotImplemented
        return self.same_as(other)

    def __repr__(self):
        return f"[{self.coords[0]:.6g} : {self.coords[1]:.6g} : {self.coords[2]:.6g}]"


class ProjectiveCovector(ProjectivePoint):
    """A projective covector (a plane of RP^2), same normalization as points."""


@dataclass(frozen=True, eq=False)
class Flag:
    """An incident (line, plane) pair: line.coords . plane.coords = 0."""

    line: ProjectivePoint
    plane: ProjectiveCovector

    def __post_init__(self):
        if not isinstance(self.line, ProjectivePoint):
            object.__setattr__(self, "line", ProjectivePoint(self.line))
        if not isinstance(self.plane, ProjectiveCovector):
            object.__setattr__(self, "plane", ProjectiveCovector(self.plane))
        _check_incidence(self.line.coords[None], self.plane.coords[None])

    def same_as(self, other: "Flag", tol: float = SPECTRAL_TOL) -> bool:
        return self.line.same_as(other.line, tol) and self.plane.same_as(other.plane, tol)

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.same_as(other)

    def __repr__(self):
        return f"Flag({self.line!r}, {self.plane!r})"


def _check_symmetric(mat: np.ndarray, what: str, tol: float = 1e-9) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise GeometryError(f"{what}: expected 3x3, got {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > tol * scale:
        raise GeometryError(f"{what}: matrix is not symmetric")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True, eq=False)
class SpdPoint:
    """A point of the symmetric space: symmetric positive definite, det = 1."""

    mat: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(self.mat, "SpdPoint")
        w = np.linalg.eigvalsh(m)
        if w[0] <= 0:
            raise GeometryError("SpdPoint: matrix is not positive definite")
        det = float(np.prod(w))
        if abs(det - 1.0) > 1e-10:
            raise GeometryError(f"SpdPoint: determinant {det} != 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def from_matrix(cls, mat) -> "SpdPoint":
        """Symmetrize and rescale to unit determinant before validating."""
        m = 0.5 * (np.asarray(mat, dtype=float) + np.asarray(mat, dtype=float).T)
        det = float(np.linalg.det(m))
        if det <= 0:
            raise GeometryError("SpdPoint.from_matrix: non-positive determinant")
        return cls(m / det ** (1.0 / 3.0))

    @classmethod
    def identity(cls) -> "SpdPoint":
        return cls(np.eye(3))

    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.mat)


@dataclass(frozen=True, eq=False)
class TangentDir:
    """A tangent direction: symmetric trace-free 3x3 in the base point's frame."""

    mat: np.ndarray

    def __post_init__(self):
        m = _check_symmetric(self.mat, "TangentDir")
        if abs(float(np.trace(m))) > ALGEBRAIC_TOL * max(1.0, float(np.abs(m).max())):
            raise GeometryError("TangentDir: matrix is not trace-free")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class GroupElem:
    """An element of SL(3,R)."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (3, 3):
            raise GeometryError(f"GroupElem: expected 3x3, got {m.shape}")
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > 1e-10:
            raise GeometryError(f"GroupElem: determinant {det} != 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def identity(cls) -> "GroupElem":
        return cls(np.eye(3))

    def inverse(self) -> "GroupElem":
        return GroupElem(np.linalg.inv(self.mat))

    def compose(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(self.mat @ other.mat)


@dataclass(frozen=True)
class GapVector:
    """Log gaps between singular values (sg) and eigenvalue moduli (lg)."""

    sg12: float
    sg23: float
    lg12: float
    lg23: float


def is_transverse(f1: Flag, f2: Flag, tol: float = SPECTRAL_TOL) -> bool:
    """True iff neither line lies in the other flag's plane."""
    p12 = abs(float(np.dot(f1.line.coords, f2.plane.coords)))
    p21 = abs(float(np.dot(f2.line.coords, f1.plane.coords)))
    return p12 > tol and p21 > tol


def thickening_contains(f: Flag, g: Flag, tol: float = SPECTRAL_TOL) -> bool:
    """True iff g shares its line or its plane with f (g is in K_f)."""
    return f.line.same_as(g.line, tol) or f.plane.same_as(g.plane, tol)


def _form_value(v: np.ndarray, m: np.ndarray, what: str) -> float:
    q = float(v @ m @ v)
    if q <= 0:
        raise NumericalDomainError(f"non-positive quadratic form value in {what}")
    return q


def busemann(f: Flag, origin: SpdPoint, x: SpdPoint) -> float:
    """Horofunction of the boundary flag f, normalized to vanish at origin.

    Equals log(v'Xv / v'Ov) + log(w'X^-1 w / w'O^-1 w) for the line
    representative v and plane representative w.  Tends to -inf along the
    ray whose boundary point is identified with f.
    """
    v = f.line.coords
    w = f.plane.coords
    xinv = x.inv()
    oinv = origin.inv()
    return (
        math.log(_form_value(v, x.mat, "busemann") / _form_value(v, origin.mat, "busemann"))
        + math.log(_form_value(w, xinv, "busemann") / _form_value(w, oinv, "busemann"))
    )


def act_on_flag(g: GroupElem, f: Flag) -> Flag:
    """Action of g on flags: line by the inverse transpose, covector by g.

    This is the action under which ``busemann`` is exactly invariant
    jointly with ``act_on_point``; it fixes the same model flags as the
    dual action and agrees with it on orthogonal g.
    """
    lines, planes = _act_rows(g, f.line.coords[None], f.plane.coords[None])
    return Flag(ProjectivePoint(lines[0]), ProjectiveCovector(planes[0]))


def pullback_flag(g: GroupElem, f: Flag) -> Flag:
    """act_on_flag(g.inverse(), f) without forming the inverse."""
    lines, planes = _pullback_rows(g, f.line.coords[None], f.plane.coords[None])
    return Flag(ProjectivePoint(lines[0]), ProjectiveCovector(planes[0]))


def act_on_point(g: GroupElem, x: SpdPoint) -> SpdPoint:
    """Action of g on scalar products: X -> g X g^T."""
    return SpdPoint.from_matrix(g.mat @ x.mat @ g.mat.T)


def _symmetric_function(mat, f) -> np.ndarray:
    """f(M) = q diag(f(w)) q^T of a symmetric M = q diag(w) q^T, by ``np.linalg.eigh``."""
    w, q = np.linalg.eigh(np.asarray(mat, dtype=float))
    return (q * f(w)) @ q.T


def spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""

    def root(w):
        if w[0] <= 0:
            raise GeometryError("spd_sqrt: matrix is not positive definite")
        return np.sqrt(w)

    return _symmetric_function(mat, root)


def geodesic(x: SpdPoint, v: TangentDir, t: float) -> SpdPoint:
    """Geodesic through x with direction v: X^(1/2) exp(tV) X^(1/2)."""
    s = spd_sqrt(x.mat)
    return SpdPoint.from_matrix(s @ _symmetric_function(t * v.mat, np.exp) @ s)


def distance(x: SpdPoint, y: SpdPoint) -> float:
    """Affine-invariant distance: sqrt(sum log^2 eig(X^-1 Y)), eig of X^(-1/2) Y X^(-1/2)."""
    r = _symmetric_function(x.mat, lambda w: 1.0 / np.sqrt(w))
    w = np.linalg.eigvalsh(r @ y.mat @ r)
    if w[0] <= 0:
        raise NumericalDomainError("distance: non-positive generalized eigenvalue")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def gap_vector(g, eigenvalues: bool = True) -> GapVector:
    """Log singular-value gaps of g, and eigenvalue-modulus gaps if requested."""
    mat = g.mat if isinstance(g, GroupElem) else np.asarray(g, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise GeometryError("gap_vector: non-finite matrix entries")
    s = np.linalg.svd(mat, compute_uv=False)
    if s[2] <= 0:
        raise NumericalDomainError("gap_vector: singular matrix")
    sg12 = float(np.log(s[0] / s[1]))
    sg23 = float(np.log(s[1] / s[2]))
    if not eigenvalues:
        return GapVector(sg12, sg23, math.nan, math.nan)
    moduli = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
    if moduli[2] <= 0:
        raise NumericalDomainError("gap_vector: zero eigenvalue modulus")
    lg12 = float(np.log(moduli[0] / moduli[1]))
    lg23 = float(np.log(moduli[1] / moduli[2]))
    return GapVector(sg12, sg23, lg12, lg23)


#: Change of frame from real to complexified coordinates.  The middle
#: coordinate is fixed and the outer pair is rotated into an isotropic
#: pair, so real symmetric matrices become Hermitian matrices that commute
#: with the antidiagonal real structure.
FRAME_TO_COMPLEX = np.array(
    [
        [1 / np.sqrt(2), 0, 1j / np.sqrt(2)],
        [0, 1, 0],
        [1 / np.sqrt(2), 0, -1j / np.sqrt(2)],
    ],
    dtype=complex,
)
FRAME_TO_COMPLEX.setflags(write=False)

_FRAME_TO_REAL = np.linalg.inv(FRAME_TO_COMPLEX)
_FRAME_TO_REAL.setflags(write=False)

