"""Scalar reduction of the self-duality equation on desk-scale domains.

In a fixed conformal chart the unknown is u = log h1, the metric weight of
the diagonal harmonic metric diag(h1, 1, 1/h1), and the equation reads

    (1/4) lap u = |t|^2 e^u - e^(-2u),

with lap the flat five-point Laplacian: periodic on a torus, Dirichlet on
a disk.  Grid adjacency is written once, in ``_neighbours``, which wraps
around the grid edges: that is the torus's periodicity, and harmless on
the disk, whose interior nodes never lie on the edge (only non-interior
nodes read wrapped values, and every caller discards them).  The
supported model data are a constant |t|^2 on the torus and a monomial
t = c z^k on the disk.  Reference solutions: on the torus with
|t|^2 = c^2 the constant u = -(2/3) log c; on the disk with t = 0 the
radial profile u = log(1 - x^2 - y^2), whose induced metric h1^(-2) has
curvature -4 under this normalization.

Diagnostics: ``beta_field`` is the pointwise ratio |t| e^(3u/2) (strictly
below 1 for solves in the admissible regime), ``curvature_field`` is the
Gaussian curvature of h1^(-2), and ``ratio_identity_residual`` checks the
elliptic identity satisfied by log of the ratio field away from zeros
of t.

The Newton operator is assembled by index arithmetic on a grid of node
numbers, with no per-node loop.  A solve factors its first Jacobian once
with SuperLU under the symmetric ``MMD_AT_PLUS_A`` ordering (minimum
degree on A^T + A, about half the LU fill of the default column
ordering).  Later Jacobians differ from it only on the diagonal, so each
later step solves the negative definite system exactly (relative residual
1e-12) by conjugate gradients preconditioned with that factorization,
usually in a few iterations.  If CG does not converge, the current
Jacobian is factored in its place.  Every step is thus a full Newton step,
and the iteration counts are those of a direct solve.

A solve owns its grid exclusively during iteration; distinct solves are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


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
        if self.kind == "torus":
            return np.ones(self.shape, dtype=bool)
        x, y = self.coords()
        return x**2 + y**2 < self.radius**2

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
    of iterations CG ran for the step: 0 for the first step, which is
    solved by a factorization, and also counted when CG fails and the
    step falls back to a fresh factorization.
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
    lap = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(m, m)
    )
    return 0.25 * lap


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
    held fixed at the values of u0 (the reference profile by default).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    if u0 is None:
        base = np.zeros(dom.shape)
        if dom.kind == "disk":
            if dom.boundary != "reference":
                raise DomainError("disk solve without u0 requires the reference boundary")
            base = dom.reference_profile()
        u0 = ScalarField(base, dom)
    values = u0.values.copy()
    op = _interior_operator(dom)
    mask = dom.interior_mask()
    r = _equation_residual(values, datum, dom)[mask]
    rnorm = float(np.abs(r).max())
    history, halvings, cg_counts = [rnorm], [], []
    lu = None
    factorizations = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if rnorm <= tol:
            break
        weight = datum.t_abs2[mask] * np.exp(values[mask]) + 2.0 * np.exp(-2.0 * values[mask])
        jac = op - scipy.sparse.diags(weight)
        step, cg_count = None, 0
        if lu is not None:
            step, cg_count = _preconditioned_step(jac, r, lu)
        if step is None:
            lu = scipy.sparse.linalg.splu(jac.tocsc(), permc_spec="MMD_AT_PLUS_A")
            factorizations += 1
            step = lu.solve(-r)
        cg_counts.append(cg_count)
        t = 1.0
        phi0 = float(np.dot(r, r))
        accepted = False
        for halved in range(40):
            trial = values.copy()
            trial[mask] = values[mask] + t * step
            rt = _equation_residual(trial, datum, dom)[mask]
            if float(np.dot(rt, rt)) <= (1.0 - 1e-4 * t) * phi0:
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


def _preconditioned_step(jac, r, lu):
    """Newton step s with jac s = -r by CG on the SPD system (-jac) s = r.

    ``lu`` factors an earlier Jacobian of the same solve, which differs
    from ``jac`` only on the diagonal, so x -> -lu.solve(x) approximates
    the inverse of -jac.  Returns the step and the CG iteration count, or
    None in place of the step when CG stops short of relative residual
    1e-12.
    """
    count = [0]

    def tick(_):
        count[0] += 1

    precond = scipy.sparse.linalg.LinearOperator(
        jac.shape, matvec=lambda x: -lu.solve(x), dtype=float
    )
    step, info = scipy.sparse.linalg.cg(
        -jac, r, rtol=1e-12, atol=0.0, M=precond, callback=tick
    )
    return (step if info == 0 else None), count[0]


def beta_field(u: ScalarField, datum: HiggsDatum) -> ScalarField:
    """Pointwise ratio |t| e^(3u/2)."""
    return ScalarField(np.sqrt(datum.t_abs2) * np.exp(1.5 * u.values), u.dom)


def max_principle_check(beta: ScalarField) -> dict:
    """Sup of the ratio field over interior nodes and strictness of the bound."""
    mask = beta.dom.interior_mask()
    vals = beta.values[mask]
    k = int(np.argmax(vals))
    where = np.argwhere(mask)[k]
    sup = float(vals[k])
    return {
        "sup": sup,
        "argmax": [int(where[0]), int(where[1])],
        "strict": bool(sup < 1.0),
    }


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


def slice_dimensions(genus: int) -> tuple[int, int]:
    """Complex and real dimension of the deformation slice at the given genus."""
    if genus < 2:
        raise DomainError("genus must be at least 2")
    return 2 * genus - 2, 4 * genus - 4


@dataclass(frozen=True, eq=False)
class GaugeParams:
    """Coefficient tuples (t, delta, q) identifying a slice Higgs field."""

    t: tuple
    delta: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(v) for v in np.atleast_1d(self.t)))
        object.__setattr__(self, "delta", tuple(float(v) for v in np.atleast_1d(self.delta)))
        object.__setattr__(self, "q", tuple(float(v) for v in np.atleast_1d(self.q)))


def gauge_equivalent(p1: GaugeParams, p2: GaugeParams, over_complex: bool = False) -> bool:
    """Parameter-level gauge equivalence.

    Over the reals the three coefficient tuples must agree exactly; over
    the complexification t is additionally identified with -t.
    """
    if len(p1.t) != len(p2.t) or len(p1.delta) != len(p2.delta) or len(p1.q) != len(p2.q):
        raise DomainError("gauge_equivalent: coefficient shapes disagree")
    if p1.delta != p2.delta or p1.q != p2.q:
        return False
    if p1.t == p2.t:
        return True
    if over_complex and p1.t == tuple(-v for v in p2.t):
        return True
    return False


def write_field_csv(path, field: ScalarField) -> None:
    """Row-major CSV: header line 'nx,ny', the shape, then one row per line."""
    nx, ny = field.values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("nx,ny\n")
        fh.write(f"{nx},{ny}\n")
        for row in field.values:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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
