"""Scalar reduction of the self-duality equation on desk-scale domains.

In a fixed conformal chart the unknown is u = log h1, the metric weight of
the diagonal harmonic metric diag(h1, 1, 1/h1), and the equation reads

    (1/4) lap u = |t|^2 e^u - e^(-2u),

with lap the flat five-point Laplacian: periodic on a torus, Dirichlet on
a disk.  Grid adjacency is written once, in ``_neighbours``, which wraps
around the grid edges: that is the torus's periodicity, and harmless on
the disk, whose interior nodes never lie on the edge (only non-interior
nodes read wrapped values, and every caller discards them).  The model
data are a constant |t|^2 on the torus and a monomial t = c z^k on the
disk.  Reference solutions: on the torus with
|t|^2 = c^2 the constant u = -(2/3) log c; on the disk with t = 0 the
radial profile u = log(1 - x^2 - y^2), whose induced metric h1^(-2) has
curvature -4 under this normalization.

Diagnostics: ``beta_field`` is the pointwise ratio |t| e^(3u/2) (strictly
below 1 for solves in the admissible regime), ``curvature_field`` is the
Gaussian curvature of h1^(-2), and ``ratio_identity_residual`` checks the
elliptic identity satisfied by log of the ratio field away from zeros
of t.

Each Newton step solves (-J) s = r, with -J = diag(w) - (1/4) lap and
w = |t|^2 e^u + 2 e^(-2u) > 0, by conjugate gradients to relative residual
1e-12, so every step is a full Newton step and the iteration counts are
those of a direct solve.  CG applies -J through ``_laplacian`` on the
grid.  Its preconditioner is built once per solve.  On the torus it is
the exact inverse of diag(mean w) - (1/4) lap, with the mean of the
current step's w, applied by the real FFT (the periodic five-point
Laplacian is diagonal in Fourier modes): a constant w takes one CG
iteration, and no matrix is built.  On the disk it is a single-precision
SuperLU factorization, under the symmetric ``MMD_AT_PLUS_A`` ordering, of
the first Jacobian scaled to unit diagonal, S (-J) S with
S = diag(-J)^(-1/2), so that no entry can overflow float32; later
Jacobians differ from it only on the diagonal.  Only the disk builders
(``_interior_operator`` and this LU) import SciPy, so a torus solve,
like every other command, loads none of it.  If CG misses its
tolerance, the preconditioner is rebuilt at the current Jacobian and the
step retried once; a second miss is a ``SolveError``.

A solve owns its grid exclusively during iteration; distinct solves are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Invalid domain or field data."""


class SolveError(RuntimeError):
    """Newton iteration failed to converge."""

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


def _neighbours(grid: np.ndarray) -> tuple:
    """The grid read at each node's (i+1, i-1, j+1, j-1) neighbour, wrapping at the edges."""
    pad = np.pad(grid, 1, mode="wrap")
    return pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2]


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Torus(periods) or Disk(radius, boundary profile), n grid points per side."""

    kind: str
    n: int
    periods: tuple = (1.0, 1.0)
    radius: float = 0.8
    boundary: str = "reference"

    def __post_init__(self):
        if self.kind not in ("torus", "disk"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 16:
            raise DomainError(f"n must be an integer of at least 16, got {self.n!r}")
        if self.kind == "torus":
            if np.shape(self.periods) != (2,) or not all(np.isfinite(p) and p > 0 for p in self.periods):
                raise DomainError(f"a torus needs two finite positive periods, got {self.periods!r}")
        else:
            if not (np.isfinite(self.radius) and self.radius > 0):
                raise DomainError(f"radius must be finite and positive, got {self.radius!r}")
            if self.boundary == "reference" and self.radius >= 1.0:
                raise DomainError("reference boundary profile requires radius < 1")
        if self.kind == "torus":
            mask = np.ones(self.shape, dtype=bool)
        else:
            x, y = self.coords()
            rho2 = x**2 + y**2
            mask = rho2 < self.radius**2
        mask.setflags(write=False)
        object.__setattr__(self, "_interior", mask)
        if self.kind == "disk" and self.boundary == "reference":
            reach = float(np.sqrt(rho2[self.data_ring_mask()].max()))
            if reach >= 1.0:
                raise DomainError(
                    f"the Dirichlet ring reaches radius {reach!r} >= 1, where the reference "
                    "profile log(1 - rho^2) is undefined: lower the radius or raise n"
                )

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    def spacings(self) -> tuple:
        if self.kind == "torus":
            return self.periods[0] / self.n, self.periods[1] / self.n
        h = 2.0 * self.radius / (self.n - 1)
        return h, h

    def coords(self):
        """Node coordinates (disk only)."""
        if self.kind != "disk":
            raise DomainError("coords: torus nodes carry no embedded coordinates")
        ax = np.linspace(-self.radius, self.radius, self.n)
        return np.meshgrid(ax, ax, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        """Interior nodes (every node of a torus); computed once, read-only."""
        return self._interior

    def data_ring_mask(self) -> np.ndarray:
        """Non-interior nodes adjacent to an interior node (disk Dirichlet ring)."""
        inner = self.interior_mask()
        return np.any(_neighbours(inner), axis=0) & ~inner

    def reference_profile(self) -> np.ndarray:
        """The t = 0 radial solution log(1 - x^2 - y^2) on interior and ring nodes."""
        if self.kind != "disk":
            raise DomainError("reference profile is a disk datum")
        x, y = self.coords()
        rho2 = x**2 + y**2
        carrier = self.interior_mask() | self.data_ring_mask()
        out = np.zeros(self.shape)
        out[carrier] = np.log(1.0 - rho2[carrier])
        return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A grid field attached to a domain."""

    values: np.ndarray
    dom: DomainSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.dom.shape:
            raise DomainError(f"field shape {v.shape} != domain shape {self.dom.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def sup_interior(self) -> float:
        return float(np.abs(self.values[self.dom.interior_mask()]).max())


def _square(c) -> float:
    """c^2 as a float; DomainError when it overflows."""
    try:
        return float(c) ** 2
    except OverflowError:
        raise DomainError(f"|t|^2 = {float(c)!r}^2 overflows float64") from None


@dataclass(frozen=True, eq=False)
class HiggsDatum:
    """Prescribed |t|^2 data on the grid plus its analytic descriptor."""

    t_abs2: np.ndarray
    descriptor: str
    dom: DomainSpec

    def __post_init__(self):
        v = np.asarray(self.t_abs2, dtype=float)
        if v.shape != self.dom.shape:
            raise DomainError("datum shape does not match the domain")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError("|t|^2 must be finite and nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "t_abs2", v)

    @classmethod
    def zero(cls, dom: DomainSpec) -> "HiggsDatum":
        return cls(np.zeros(dom.shape), "zero", dom)

    @classmethod
    def constant(cls, c: float, dom: DomainSpec) -> "HiggsDatum":
        return cls(np.full(dom.shape, _square(c)), f"const:{float(c)!r}", dom)

    @classmethod
    def monomial(cls, c: float, k: int, dom: DomainSpec) -> "HiggsDatum":
        """t = c z^k on a disk, so |t|^2 = c^2 rho^(2k); k a nonnegative integer."""
        if dom.kind != "disk":
            raise DomainError("monomial datum requires a disk domain")
        if not (float(k).is_integer() and k >= 0):
            raise DomainError(f"monomial exponent must be a nonnegative integer, got {k!r}")
        x, y = dom.coords()
        rho2 = x**2 + y**2
        with np.errstate(over="ignore"):
            t_abs2 = _square(c) * rho2 ** int(k)
        return cls(t_abs2, f"monomial:{float(c)!r},{int(k)}", dom)

    @classmethod
    def tabulated(cls, t_abs2, dom: DomainSpec) -> "HiggsDatum":
        return cls(np.asarray(t_abs2, dtype=float), "tabulated", dom)


def _laplacian(values: np.ndarray, dom: DomainSpec) -> np.ndarray:
    hx, hy = dom.spacings()
    ip, im, jp, jm = _neighbours(values)
    out = (ip + im - 2 * values) / hx**2 + (jp + jm - 2 * values) / hy**2
    out[~dom.interior_mask()] = 0.0
    return out


def _equation_residual(v: np.ndarray, datum: HiggsDatum, dom: DomainSpec) -> np.ndarray:
    """(1/4) lap v - |t|^2 e^v + e^(-2v) on raw node values, which may be non-finite."""
    return 0.25 * _laplacian(v, dom) - datum.t_abs2 * np.exp(v) + np.exp(-2.0 * v)


def residual(u: ScalarField, datum: HiggsDatum, dom: DomainSpec) -> ScalarField:
    """(1/4) lap u - |t|^2 e^u + e^(-2u), on interior nodes (zero elsewhere)."""
    if u.dom is not dom and u.dom.shape != dom.shape:
        raise DomainError("field and domain shapes disagree")
    r = _equation_residual(u.values, datum, dom)
    mask = dom.interior_mask()
    out = np.zeros_like(r)
    out[mask] = r[mask]
    return ScalarField(out, dom)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a converged solve and how the Newton iteration got there.

    ``residual_history`` holds the max-norm residual before each Newton
    step and after the last one; ``line_search_halvings`` and
    ``cg_iterations`` hold one entry per step.  The CG count is the number
    of iterations CG ran for the step, at least 1, the first step
    included; when CG misses with the current preconditioner and the step
    is retried with a rebuilt one, both attempts count.
    ``factorizations`` counts preconditioner builds: FFT symbols on the
    torus, float32 LU factorizations on the disk.
    """

    residual_norm: float
    iterations: int
    beta_sup: float
    curvature_max: float
    converged: bool
    residual_history: tuple
    line_search_halvings: tuple
    cg_iterations: tuple
    factorizations: int

    def to_json(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "beta_sup": self.beta_sup,
            "curvature_max": self.curvature_max,
            "converged": self.converged,
            "residual_history": list(self.residual_history),
            "line_search_halvings": list(self.line_search_halvings),
            "cg_iterations": list(self.cg_iterations),
            "factorizations": self.factorizations,
        }


def _interior_operator(dom: DomainSpec):
    """Sparse (1/4) lap on the unknowns (interior nodes in row-major order).

    Interior nodes are numbered in an index grid, -1 marking a Dirichlet
    node that contributes no entry.  Each stencil direction reads its
    neighbour's number from ``_neighbours`` of that grid.
    """
    from scipy.sparse import csr_matrix
    hx, hy = dom.spacings()
    mask = dom.interior_mask()
    m = int(mask.sum())
    own = np.arange(m)
    idx = np.full(dom.shape, -1, dtype=np.intp)
    idx[mask] = own
    weights = (1.0 / hx**2, 1.0 / hx**2, 1.0 / hy**2, 1.0 / hy**2)
    rows, cols = [own], [own]
    vals = [np.full(m, -2.0 / hx**2 - 2.0 / hy**2)]
    for grid, w in zip(_neighbours(idx), weights):
        nb = grid[mask]
        keep = nb >= 0
        rows.append(own[keep])
        cols.append(nb[keep])
        vals.append(np.full(int(keep.sum()), w))
    data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return 0.25 * csr_matrix(data, shape=(m, m))


def solve(
    dom: DomainSpec,
    datum: HiggsDatum,
    u0: ScalarField | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[ScalarField, SolveReport]:
    """Damped Newton solve of the scalar equation.

    The Jacobian (1/4) lap - diag(|t|^2 e^u + 2 e^(-2u)) is strictly
    negative definite, hence invertible.  On a disk the Dirichlet ring is
    held fixed at the values of u0 (the reference profile by default).  A
    torus datum that vanishes identically is rejected: integrating
    (1/4) lap u = -e^(-2u) over the closed torus would give a zero
    integral of e^(-2u).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    if dom.kind == "torus" and not np.any(datum.t_abs2):
        raise DomainError("a torus datum that vanishes identically admits no solution")
    if u0 is None:
        base = np.zeros(dom.shape)
        if dom.kind == "disk":
            if dom.boundary != "reference":
                raise DomainError("disk solve without u0 requires the reference boundary")
            base = dom.reference_profile()
        u0 = ScalarField(base, dom)
    values = u0.values.copy()
    mask = dom.interior_mask()
    with np.errstate(over="ignore", invalid="ignore"):
        r = _equation_residual(values, datum, dom)[mask]
    rnorm = float(np.abs(r).max())
    if not np.isfinite(rnorm):
        raise SolveError("the residual at the initial field is not finite", iterations=0)
    history, halvings, cg_counts = [rnorm], [], []
    precond = None
    factorizations = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if rnorm <= tol:
            break
        weight = datum.t_abs2[mask] * np.exp(values[mask]) + 2.0 * np.exp(-2.0 * values[mask])
        step, cg_count = None, 0
        if precond is not None:
            step, cg_count = _newton_step(dom, weight, r, precond)
        if step is None:
            precond = _preconditioner(dom, weight)
            factorizations += 1
            step, retry_count = _newton_step(dom, weight, r, precond)
            cg_count += retry_count
        if step is None:
            raise SolveError(
                f"CG missed relative residual 1e-12 in {CG_MAX_ITER} iterations"
                " with a fresh preconditioner",
                residual_norm=rnorm,
                iterations=iterations,
            )
        cg_counts.append(cg_count)
        # the merit |r|^2 is taken on residuals divided by |r|_max, so that it cannot overflow;
        # a trial whose residual is not finite fails the test and is halved
        t = 1.0
        rs = r / rnorm
        phi0 = float(np.dot(rs, rs))
        accepted = False
        for halved in range(40):
            trial = values.copy()
            trial[mask] = values[mask] + t * step
            with np.errstate(over="ignore", invalid="ignore"):
                rt = _equation_residual(trial, datum, dom)[mask]
                rs = rt / rnorm
                phi = float(np.dot(rs, rs))
            if phi <= (1.0 - 1e-4 * t) * phi0:
                values, r = trial, rt
                rnorm = float(np.abs(r).max())
                history.append(rnorm)
                halvings.append(halved)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise SolveError(
                "line search stalled", residual_norm=rnorm, iterations=iterations
            )
    converged = rnorm <= tol
    if not converged:
        raise SolveError(
            f"no convergence in {max_iter} iterations (residual {rnorm:.3e})",
            residual_norm=rnorm,
            iterations=iterations,
        )
    u = ScalarField(values, dom)
    beta = beta_field(u, datum)
    curv = curvature_field(u, dom)
    report = SolveReport(
        residual_norm=rnorm,
        iterations=iterations,
        beta_sup=float(beta.values[mask].max()),
        curvature_max=float(curv.values[mask].max()),
        converged=True,
        residual_history=tuple(history),
        line_search_halvings=tuple(halvings),
        cg_iterations=tuple(cg_counts),
        factorizations=factorizations,
    )
    return u, report


#: CG iterations allowed for one attempt at a Newton step.
CG_MAX_ITER = 100


def _preconditioner(dom: DomainSpec, weight: np.ndarray):
    """Preconditioner for -J = diag(w) - (1/4) lap on the unknowns, built at ``weight``.

    Returns ``at``: ``at(w)`` is the map x -> M^-1 x for the step whose
    Jacobian has weight w.  Torus: the exact inverse of
    mean(w) - (1/4) lap, by the real FFT; the symbol of -(1/4) lap on
    mode (k, l) is sin^2(pi k/n)/hx^2 + sin^2(pi l/n)/hy^2, and the build
    needs no weight.  Disk: S LU^-1 S x for every w, LU a float32
    factorization of S A S with A = diag(weight) - (1/4) lap and
    S = diag(A)^(-1/2).  S A S has unit diagonal and, A being diagonally
    dominant, no entry above 1 in magnitude; S x is scaled to unit max norm
    before the cast, so neither overflows float32.
    """
    if dom.kind == "torus":
        hx, hy = dom.spacings()
        k = np.pi * np.arange(dom.n) / dom.n
        symbol = np.sin(k)[:, None] ** 2 / hx**2 + np.sin(k[: dom.n // 2 + 1]) ** 2 / hy**2

        def at(w):
            top = w.max()
            denom = symbol + top * np.mean(w / top)  # mean(w), without overflow

            def fft_solve(x):
                xhat = np.fft.rfft2(x.reshape(dom.shape))
                return np.fft.irfft2(xhat / denom, s=dom.shape).ravel()

            return fft_solve

        return at
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu
    a = diags(weight) - _interior_operator(dom)
    s = 1.0 / np.sqrt(a.diagonal())
    scaled = diags(s) @ a @ diags(s)
    lu = splu(scaled.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A")

    def lu_solve(x):
        sx = s * x
        top = np.abs(sx).max()
        return s * (top * lu.solve((sx / top).astype(np.float32)))

    return lambda w: lu_solve


def _newton_step(dom: DomainSpec, weight: np.ndarray, r: np.ndarray, precond):
    """Newton step s with (-J) s = r, -J = diag(weight) - (1/4) lap, by preconditioned CG.

    The operator applies ``_laplacian`` to s on the grid, zero off the
    unknowns.  CG runs on r scaled to unit max norm, so that no inner
    product overflows, from s = 0 to relative residual 1e-12 with no
    absolute floor.  Returns the step and the iteration count, or None in
    place of the step when CG stops short within ``CG_MAX_ITER``
    iterations or breaks down.
    """
    mask = dom.interior_mask()
    grid = np.zeros(dom.shape)

    def apply(x):
        grid[mask] = x
        return weight * x - 0.25 * _laplacian(grid, dom)[mask]

    inverse = precond(weight)
    scale = np.abs(r).max()
    res = r / scale
    stop = 1e-24 * np.dot(res, res)
    x = np.zeros_like(res)
    z = inverse(res)
    p = z
    rz = np.dot(res, z)
    for count in range(1, CG_MAX_ITER + 1):
        q = apply(p)
        pq = np.dot(p, q)
        if not pq > 0:
            break
        alpha = rz / pq
        x += alpha * p
        res -= alpha * q
        if np.dot(res, res) <= stop:
            return scale * x, count
        z = inverse(res)
        rz, rz_old = np.dot(res, z), rz
        p = z + (rz / rz_old) * p
    return None, count


def beta_field(u: ScalarField, datum: HiggsDatum) -> ScalarField:
    """Pointwise ratio |t| e^(3u/2)."""
    return ScalarField(np.sqrt(datum.t_abs2) * np.exp(1.5 * u.values), u.dom)


def curvature_field(u: ScalarField, dom: DomainSpec) -> ScalarField:
    """Gaussian curvature of the metric e^(-2u) |dz|^2: K = e^(2u) lap u."""
    k = np.exp(2.0 * u.values) * _laplacian(u.values, dom)
    mask = dom.interior_mask()
    out = np.zeros_like(k)
    out[mask] = k[mask]
    return ScalarField(out, dom)


#: Fraction of max |t|^2 below which ``ratio_identity_residual`` excludes a node.
RATIO_IDENTITY_FLOOR = 0.25


def ratio_identity_residual(u: ScalarField, datum: HiggsDatum, dom: DomainSpec) -> float:
    """Sup defect of the elliptic identity for log of the ratio field.

    Away from zeros of t the log ratio satisfies
    (e^(2u)/2) lap log(beta) = 3 (beta^2 - 1); non-interior nodes and
    nodes where |t|^2 is below ``RATIO_IDENTITY_FLOOR`` times its maximum
    over the interior are excluded, as are nodes within one stencil step
    of excluded ones (periodically on the torus, across the seam).
    """
    interior = dom.interior_mask()
    tmax = float(datum.t_abs2[interior].max())
    if tmax <= 0:
        raise DomainError("ratio identity needs a nonzero datum")
    good = interior & (datum.t_abs2 > RATIO_IDENTITY_FLOOR * tmax)
    beta = beta_field(u, datum)
    logb = np.zeros(dom.shape)
    logb[good] = np.log(beta.values[good])
    lhs = 0.5 * np.exp(2.0 * u.values) * _laplacian(logb, dom)
    rhs = 3.0 * (beta.values**2 - 1.0)
    core = good & np.all(_neighbours(good), axis=0)
    if not np.any(core):
        raise DomainError("ratio identity: no usable nodes away from zeros of t")
    return float(np.abs(lhs[core] - rhs[core]).max())


def write_field_csv(path, field: ScalarField) -> None:
    """Row-major CSV: header line 'nx,ny', the shape, then one row per line."""
    nx, ny = field.values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("nx,ny\n")
        fh.write(f"{nx},{ny}\n")
        for row in field.values:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
