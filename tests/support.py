"""Helpers shared by the test modules: random test data and re-readers of outputs.

None of this is library code.  The CLI and the benchmark never call it;
the tests use it to draw flags and group elements, change frames, walk
plane geodesics, read a field CSV back and reduce words cyclically.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from flagcones.certificate import HermitianMat
from flagcones.flags import (
    FRAME_TO_COMPLEX,
    _FRAME_TO_REAL,
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
)
from flagcones.pde import DomainError, DomainSpec, ScalarField
from flagcones.plane import PlanePoint, _sqrt2


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


# --- certificate -------------------------------------------------------------


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
