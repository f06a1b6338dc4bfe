"""Pointwise nestedness certificate: model matrices, rank-one flag
projectors, commutator fields and the swept margin inequality.

Everything lives in the complexified frame of ``flags.FRAME_TO_COMPLEX``,
where real symmetric matrices become Hermitian matrices commuting with
the antidiagonal real structure J conj(.) J.  The flow direction is

    H(beta) = [[0, beta, 1], [conj(beta), 0, beta], [1, conj(beta), 0]],

with |beta| < 1 the admissible regime; ``flow_matrix`` reads it off the
closed form of its conjugate H'(beta, d) at d = 0.  The certified
quantity is the pairing of the flow field against the co-orienting
one-form of the boundary cylinder, swept over the modulus and phase of
beta, the cylinder parameter d and the fiber phase z.

Every closed form is written once, in the broadcasting kernel
``_closed_forms``; ``alpha_closed_forms`` and ``certificate_margin`` are
its scalar views and ``sweep`` evaluates it on (d, z) blocks.  The
commutator definition of the fields is the primitive object, kept
independent of the kernel and compared against it on every sweep cell.
The sweep's oracle computes only the (3,1) corner the pairing reads
(``_field_corner``, the commutator definition applied to a matrix and the
projector); the full field (``_field_from``) is formed only by
``commutator_fields``.  The corner is real-linear in the matrix, so the
sweep evaluates ``_field_corner`` once on the 18 real basis matrices E_k,
i E_k against the projector stack and contracts every H'(beta, d) with
that kernel in one complex matrix product per beta.  That is the
commutator definition summed in another order: no closed form enters,
and a fault in ``_field_corner`` or ``_hprime_closed`` reaches the
oracle's deviation as before.  Margins are evaluated in a cancellation-safe
order, which is what makes the exact vanishing at beta = 0 visible at the
1e-12 level.  The pairing keeps a constant sign across the admissible
regime (the unstated co-orientation); the margin uses its absolute value
and the sweep asserts the sign constancy.

Pure evaluation; sweep cells are independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .flags import (
    FRAME_TO_COMPLEX,
    _FRAME_TO_REAL,
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
    TangentDir,
    _act_rows,
    _check_finite,
    _symmetric_function,
)
from .cones import Multicone, _chart_grid, _check_tol, _classify_position, _positions

#: Antidiagonal real structure: admissible matrices satisfy J conj(M) J = M.
REAL_STRUCTURE = np.array(
    [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex
)
REAL_STRUCTURE.setflags(write=False)

_SQRT2 = math.sqrt(2.0)

#: Sign of the pairing Im(alpha(M1) conj(alpha(M2))) across the admissible
#: regime; fixed once by evaluation at beta = 0, d = 0, z = 1.
PAIRING_SIGN = -1.0


class RegimeError(GeometryError):
    """Raised when |beta| leaves the admissible regime."""


def real_structure_defect(mat) -> float:
    """max |J conj(M) J - M|; zero for admissible matrices."""
    m = np.asarray(mat, dtype=complex)
    return float(np.abs(REAL_STRUCTURE @ np.conj(m) @ REAL_STRUCTURE - m).max())


@dataclass(frozen=True, eq=False)
class HermitianMat:
    """A Hermitian 3x3 matrix compatible with the antidiagonal real structure."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (3, 3):
            raise GeometryError(f"HermitianMat: expected 3x3, got {m.shape}")
        _check_finite(m, "HermitianMat")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
            raise GeometryError("HermitianMat: not Hermitian")
        if real_structure_defect(m) > 1e-12 * scale:
            raise GeometryError("HermitianMat: violates the real structure")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class NilpotentFlagMat:
    """A rank-one square-zero trace-free matrix encoding a flag."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (3, 3):
            raise GeometryError(f"NilpotentFlagMat: expected 3x3, got {m.shape}")
        _check_flag_mats(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


def _check_flag_mats(m: np.ndarray) -> None:
    """Raise unless every 3x3 matrix of the stack m is rank one, square zero, trace free."""
    _check_finite(m, "NilpotentFlagMat")
    s = np.linalg.svd(m, compute_uv=False)
    s0 = s[..., 0]
    if np.any(s0 <= 0) or np.any(s[..., 1] > 1e-10 * s0):
        raise GeometryError("NilpotentFlagMat: not rank one")
    if np.any(np.abs(m @ m).max(axis=(-2, -1)) > 1e-12 * np.maximum(1.0, s0**2)):
        raise GeometryError("NilpotentFlagMat: square is not zero")
    if np.any(np.abs(np.trace(m, axis1=-2, axis2=-1)) > 1e-12 * np.maximum(1.0, s0)):
        raise GeometryError("NilpotentFlagMat: trace is not zero")


def _stack33(rows) -> np.ndarray:
    """A 3x3 matrix of broadcastable entries as one array of shape (..., 3, 3)."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for row in rows for e in row))
    return np.stack(entries, -1).reshape(entries[0].shape + (3, 3))


def _check_beta(beta) -> complex:
    b = complex(beta)
    if not (abs(b) < 1.0):
        raise RegimeError(f"|beta| = {abs(b)} is outside the admissible regime")
    return b


def _ed_closed(d: float) -> np.ndarray:
    ch, sh = math.cosh(d), math.sinh(d)
    return np.array(
        [[ch, 0, -1j * sh], [0, 1, 0], [1j * sh, 0, ch]], dtype=complex
    )


def _hprime_closed(beta: complex, d) -> np.ndarray:
    """H' = Ed^-1 H Ed in closed form, stacked over d: shape d.shape + (3, 3)."""
    ch, sh = np.cosh(d), np.sinh(d)
    b, bb = beta, np.conj(beta)
    c2 = ch * ch + sh * sh
    return _stack33(
        (
            (2j * ch * sh, b * ch + 1j * bb * sh, c2),
            (bb * ch + 1j * b * sh, 0.0, b * ch - 1j * bb * sh),
            (c2, bb * ch - 1j * b * sh, -2j * ch * sh),
        )
    )


def flow_matrix(beta) -> np.ndarray:
    """The complexified flow direction H(beta): H' at d = 0, where Ed is the identity."""
    return _hprime_closed(_check_beta(beta), 0.0)


_H0 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
_H0.setflags(write=False)
_H0PERP = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
_H0PERP.setflags(write=False)


@dataclass(frozen=True)
class ModelMatrices:
    h: HermitianMat
    h0: HermitianMat
    h0perp: HermitianMat
    ed: np.ndarray
    hprime: np.ndarray


def model_matrices(beta, d: float) -> ModelMatrices:
    """The five model matrices at (beta, d): H, H0, H0perp, e^(d H0perp), H'.

    H' is the conjugate Ed^-1 H Ed, returned in closed form; it satisfies
    the real structure but is not Hermitian (Ed is not unitary).  The
    conjugation identity is exercised against a matrix exponential oracle
    in the tests.
    """
    b = _check_beta(beta)
    mm = ModelMatrices(
        h=HermitianMat(flow_matrix(b)),
        h0=HermitianMat(_H0),
        h0perp=HermitianMat(_H0PERP),
        ed=_ed_closed(float(d)),
        hprime=_hprime_closed(b, float(d)),
    )
    for m in (mm.ed, mm.hprime):
        if real_structure_defect(m) > 1e-12 * max(1.0, float(np.abs(m).max())):
            raise GeometryError("model_matrices: real structure violated")
    return mm


def _projector_mats(z) -> np.ndarray:
    """Flag matrices of the fiber flags at unit phases z, z.shape + (3, 3), rank unchecked."""
    z = np.asarray(z, dtype=complex)
    bad = ~(np.abs(np.abs(z) - 1.0) <= 1e-12)
    if np.any(bad):
        raise GeometryError(f"projector_pi: |z| = {np.abs(z[bad]).flat[0]} != 1")
    zb = np.conj(z)
    return 0.25 * _stack33(
        (
            (-1.0, _SQRT2 * z, -z * z),
            (-_SQRT2 * zb, 2.0, -_SQRT2 * z),
            (-zb * zb, _SQRT2 * zb, -1.0),
        )
    )


def projector_pi(z) -> NilpotentFlagMat:
    """The rank-one flag matrix of the fiber flag at unit phase z."""
    return NilpotentFlagMat(_projector_mats(complex(z)))


def projector_flag(pi: NilpotentFlagMat) -> Flag:
    """The real-coordinate flag encoded by a rank-one flag matrix."""
    m = pi.mat
    cols = np.linalg.norm(m, axis=0)
    v = m[:, int(np.argmax(cols))]
    rows = np.linalg.norm(m, axis=1)
    w = m[int(np.argmax(rows)), :]
    x = _FRAME_TO_REAL @ v
    y = FRAME_TO_COMPLEX.T @ w
    x = x / x[int(np.argmax(np.abs(x)))]
    y = y / y[int(np.argmax(np.abs(y)))]
    if max(float(np.abs(x.imag).max()), float(np.abs(y.imag).max())) > 1e-9:
        raise GeometryError("projector_flag: matrix does not encode a real flag")
    return Flag(ProjectivePoint(x.real), ProjectiveCovector(y.real))


def pointing_vector(pi: NilpotentFlagMat) -> HermitianMat:
    """The normal field pi pi* - pi* pi attached to a fiber flag.

    Hermitian, trace-free, orthogonal to the plane span(H0, H0perp) under
    the trace pairing.  The horofunction of the encoded flag increases
    along its real-coordinate image at the identity (checked against
    ``flags.busemann``); the descent direction is its negative.
    """
    p = pi.mat
    ph = p.conj().T
    return HermitianMat(p @ ph - ph @ p)


def _field_from(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """[a,p] pi* + pi [a,p]* - [a,p]* pi - pi* [a,p], batched over leading axes."""
    c = a @ p - p @ a
    ph = np.conj(np.swapaxes(p, -1, -2))
    ch = np.conj(np.swapaxes(c, -1, -2))
    return c @ ph + p @ ch - ch @ p - ph @ c


def _field_corner(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The (3,1) entry of ``_field_from(a, p)``, broadcast over a[..., i, k] and p[..., k, j].

    With c = a p - p a the corner is sum_k c[2,k] conj(p[0,k]) + p[2,k]
    conj(c[0,k]) - conj(c[k,2]) p[k,0] - conj(p[k,2]) c[k,0]; it reads
    every entry of c except c[1,1], each written as its commutator sum.
    """

    def c(i, j):
        return (
            a[..., i, 0] * p[..., 0, j] + a[..., i, 1] * p[..., 1, j] + a[..., i, 2] * p[..., 2, j]
        ) - (p[..., i, 0] * a[..., 0, j] + p[..., i, 1] * a[..., 1, j] + p[..., i, 2] * a[..., 2, j])

    row0 = (c(0, 0), c(0, 1), c(0, 2))
    row2 = (c(2, 0), c(2, 1), c(2, 2))
    col0 = (row0[0], c(1, 0), row2[0])
    col2 = (row0[2], c(1, 2), row2[2])
    ph = np.conj(p)
    return sum(
        row2[k] * ph[..., 0, k]
        + p[..., 2, k] * np.conj(row0[k])
        - np.conj(col2[k]) * p[..., k, 0]
        - ph[..., k, 2] * col0[k]
        for k in range(3)
    )


def commutator_fields(beta, d: float, z) -> tuple[HermitianMat, HermitianMat]:
    """The two commutator fields at (beta, d, z): flow against H' and H0perp."""
    b = _check_beta(beta)
    p = projector_pi(z).mat
    m1 = _field_from(_hprime_closed(b, float(d)), p)
    m2 = _field_from(_H0PERP, p)
    return HermitianMat(m1), HermitianMat(m2)


def _closed_forms(beta: complex, d, z):
    """Closed forms over broadcast (beta, d, z): (a1, a2, p_scaled, margin, eta).

    a1, a2 are the corner coefficients of the two commutator fields and
    p_scaled is the pairing P = Im(a1 conj(a2)) over cosh(2d); margin =
    |P| - (cosh(2d)/2)(1 - |beta|) and eta = |P|/cosh^2 d.  With |z| = 1
    the constant part of p_scaled is -1/2 identically; writing it as that
    constant keeps the beta = 0 cancellation exact instead of carrying
    cosh(2d)-scaled roundoff.
    """
    zb = np.conj(z)
    sh = np.sinh(d)
    q2 = np.cosh(2.0 * d)
    u = zb**4
    a1 = (3.0 - u) * q2 / 4.0 - _SQRT2 * 1j * beta * zb * sh
    a2 = (3.0 + u) * 1j / 4.0
    p_scaled = -0.5 + sh / q2 * (-(_SQRT2 / 4.0) * np.imag(3.0 * beta * zb + beta * z**3))
    margin = q2 * (np.abs(p_scaled) - 0.5 * (1.0 - abs(beta)))
    eta = q2 * np.abs(p_scaled) / np.cosh(d) ** 2
    return a1, a2, p_scaled, margin, eta


def alpha_closed_forms(beta, d: float, z) -> tuple[complex, complex]:
    """Closed forms of the corner coefficients of the two commutator fields."""
    a1, a2, _, _, _ = _closed_forms(_check_beta(beta), float(d), complex(z))
    return complex(a1), complex(a2)


def certificate_margin(beta, d: float, z) -> tuple[float, float]:
    """Margin and eta value of the swept inequality at one grid cell.

    Both are nonnegative-to-roundoff on the admissible regime, the margin
    vanishing identically at beta = 0 (see ``_closed_forms``).
    """
    _, _, _, margin, eta = _closed_forms(_check_beta(beta), float(d), complex(z))
    return float(margin), float(eta)


@dataclass(frozen=True)
class CertGrid:
    """Sweep grid: beta moduli and phases, fiber phases, cylinder range."""

    beta_moduli: tuple
    beta_phases: int = 16
    z_phases: int = 64
    d_max: float = 5.0
    d_step: float = 0.05

    def __post_init__(self):
        moduli = tuple(float(m) for m in self.beta_moduli)
        for m in moduli:
            if not (0.0 <= m < 1.0):
                raise RegimeError(f"beta modulus {m} outside [0, 1)")
        if self.beta_phases < 1 or self.z_phases < 1:
            raise GeometryError("CertGrid: counts must be positive")
        if not (0.0 < self.d_max < math.inf and 0.0 < self.d_step < math.inf):
            raise GeometryError("CertGrid: d_max and d_step must be positive and finite")
        if not 2 * self.d_max / self.d_step < np.iinfo(np.intp).max:
            raise GeometryError("CertGrid: d_step too small, 2*d_max/d_step is no finite array length")
        object.__setattr__(self, "beta_moduli", moduli)

    def d_values(self) -> np.ndarray:
        n = int(round(2 * self.d_max / self.d_step))
        return np.linspace(-self.d_max, self.d_max, n + 1)

    def z_values(self) -> np.ndarray:
        return np.exp(1j * np.linspace(0.0, 2 * math.pi, self.z_phases, endpoint=False))

    def beta_values(self):
        phases = np.exp(1j * np.linspace(0.0, 2 * math.pi, self.beta_phases, endpoint=False))
        return [m * ph for m in self.beta_moduli for ph in phases]

    def describe(self) -> dict:
        return {
            "beta_moduli": list(self.beta_moduli),
            "beta_phases": self.beta_phases,
            "z_phases": self.z_phases,
            "d_max": self.d_max,
            "d_step": self.d_step,
        }


#: Beta moduli 0.0, 0.1, ..., 0.9 of the default sweep; ``default_grid``
#: and the ``certificate`` command add the top modulus.
BETA_MODULUS_STEPS = tuple(np.round(np.arange(0.0, 0.95, 0.1), 10).tolist())


def default_grid() -> CertGrid:
    return CertGrid(beta_moduli=BETA_MODULUS_STEPS + (0.95,))


@dataclass(frozen=True)
class CertReport:
    """Result of a sweep: minima, argmin, oracle agreement, side bounds."""

    min_margin: float
    min_eta: float
    argmin: dict
    oracle_dev: float
    grid: dict
    beta0_max_abs_margin: float
    eta_floor_gap_min: float
    analytic_floor_gap: float
    bounded_surrogate_max: float
    pairing_sign: float
    sign_constant: bool
    n_cells: int
    runtime_s: float

    def to_json(self) -> dict:
        return asdict(self)


def _corner_kernel(p: np.ndarray) -> np.ndarray:
    """The (18, n_z) kernel [L; M] of the real-linear map a -> ``_field_corner(a, p)``.

    The corner is real-linear in a, so corner(a) = sum_k a_k L_k + conj(a_k)
    M_k over the nine entries k of a.  L and M are read off
    ``_field_corner`` itself at the unit matrices E_k and at i E_k:
    L = (c(E) - i c(iE))/2 and M = (c(E) + i c(iE))/2.
    """
    unit = np.eye(9, dtype=complex).reshape(9, 1, 3, 3)
    c_re, c_im = _field_corner(unit, p), _field_corner(1j * unit, p)
    return np.concatenate([(c_re - 1j * c_im) / 2, (c_re + 1j * c_im) / 2])


def _oracle_alphas_batch(beta: complex, d: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(3,1) corners of the commutator field of H' over d (rows) and projectors (columns).

    One complex GEMM: [vec H'(beta, d), conj vec H'(beta, d)] (n_d x 18)
    times the ``_corner_kernel`` of the projector stack.  The kernel is
    ``_field_corner`` evaluated on a basis, so each cell is still the
    commutator definition applied to H' and the projector, summed in a
    different order; no closed form enters.
    """
    h = _hprime_closed(beta, d).reshape(-1, 9)
    return np.concatenate([h, np.conj(h)], axis=1) @ kernel


def sweep(grid: CertGrid) -> CertReport:
    """Evaluate the certificate over the grid and record minima and checks.

    Margins and eta values come from ``_closed_forms``; on every cell the
    commutator-oracle corner coefficients are compared against the closed
    forms and the worst deviation is reported.  The fiber projectors, the
    beta-independent H0perp corner and the ``_corner_kernel`` of the
    projectors are built once per sweep; each beta's H' corners are then
    one contraction against that kernel (``_oracle_alphas_batch``).
    ``analytic_floor_gap`` is the least margin - |beta| (|sinh d| -
    1/sqrt 2)^2, the margin's distance above the floor implied by the
    closed forms.
    """
    t0 = time.perf_counter()
    d = grid.d_values()
    z = grid.z_values()
    p = _projector_mats(z)
    _check_flag_mats(p)
    a2o = _field_corner(_H0PERP, p)
    kernel = _corner_kernel(p)
    floor_shape = (np.abs(np.sinh(d)) - 1.0 / _SQRT2)[:, None] ** 2

    min_margin = math.inf
    min_eta = math.inf
    argmin = {}
    oracle_dev = 0.0
    beta0_max = 0.0
    eta_floor_gap = math.inf
    analytic_gap = math.inf
    surrogate_max = -math.inf
    sign_constant = True
    n_cells = 0

    for beta in grid.beta_values():
        babs = abs(beta)
        a1c, a2c, p_scaled, margins, etas = _closed_forms(beta, d[:, None], z[None, :])
        sign_constant &= bool(np.all(p_scaled < 0.0))
        n_cells += margins.size

        a1o = _oracle_alphas_batch(beta, d, kernel)
        dev = max(float(np.abs(a1o - a1c).max()), float(np.abs(a2o - a2c).max()))
        oracle_dev = max(oracle_dev, dev)

        i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
        if margins[i, j] < min_margin:
            min_margin = float(margins[i, j])
            argmin = {
                "beta_re": float(np.real(beta)),
                "beta_im": float(np.imag(beta)),
                "d": float(d[i]),
                "z_phase": float(np.angle(z[j])),
            }
        min_eta = min(min_eta, float(etas.min()))
        eta_floor_gap = min(eta_floor_gap, float((etas - 0.5 * (1.0 - babs)).min()))
        analytic_gap = min(analytic_gap, float((margins - babs * floor_shape).min()))
        surrogate_max = max(surrogate_max, float(np.abs(p_scaled).max()))
        if babs == 0.0:
            beta0_max = max(beta0_max, float(np.abs(margins).max()))

    return CertReport(
        min_margin=min_margin,
        min_eta=min_eta,
        argmin=argmin,
        oracle_dev=oracle_dev,
        grid=grid.describe(),
        beta0_max_abs_margin=beta0_max,
        eta_floor_gap_min=eta_floor_gap,
        analytic_floor_gap=analytic_gap,
        bounded_surrogate_max=surrogate_max,
        pairing_sign=PAIRING_SIGN,
        sign_constant=sign_constant,
        n_cells=n_cells,
        runtime_s=time.perf_counter() - t0,
    )


def flow_generator(beta) -> TangentDir:
    """Real-coordinate flow direction: the frame conjugate of H(beta)."""
    a = _FRAME_TO_REAL @ flow_matrix(beta) @ FRAME_TO_COMPLEX
    if float(np.abs(a.imag).max()) > 1e-12:
        raise GeometryError("flow_generator: conjugate is not real")
    return TangentDir(0.5 * (a.real + a.real.T))


def pushforward_check(
    beta,
    t_step: float,
    n_samples: int = 512,
    tol: float = 1e-6,
) -> dict:
    """Flow boundary-cylinder flags and classify them against the model cone.

    Samples the chart of the model cone's boundary cylinder, pushes each
    flag forward along exp(t H(beta)), an ``eigh`` exponential of the
    symmetric ``flow_generator``, and classifies the image.  For t_step > 0
    and |beta| < 1 every sample lands strictly inside; the report records
    counts and the minimal signed displacement in the plane coordinate.
    """
    b = _check_beta(beta)
    if t_step < 0 or not np.isfinite(t_step):
        raise GeometryError("pushforward_check: t_step must be nonnegative")
    if n_samples < 1:
        raise GeometryError("pushforward_check: n_samples must be at least 1")
    _check_tol(tol)
    cone = Multicone.model(0.0)
    n_lam = max(2, int(math.isqrt(n_samples)))
    n_theta = max(2, int(math.ceil(n_samples / n_lam)))
    lines, planes = _chart_grid(cone, n_theta, n_lam)
    flow = GroupElem(_symmetric_function(t_step * flow_generator(b).mat, np.exp))
    boundary, value = _positions(cone, *_act_rows(flow, lines[:n_samples], planes[:n_samples]))
    classes = _classify_position(boundary, value, tol)
    counts = {k: int(np.count_nonzero(classes == k)) for k in ("inside", "boundary", "outside")}
    interior = value[~boundary]
    min_disp = float(interior.min()) if interior.size else 0.0
    return {
        "beta_re": float(np.real(b)),
        "beta_im": float(np.imag(b)),
        "t_step": float(t_step),
        "samples": n_samples,
        "inside": counts["inside"],
        "boundary": counts["boundary"],
        "outside": counts["outside"],
        "all_inside": counts["inside"] == n_samples,
        "min_displacement": min_disp,
    }
