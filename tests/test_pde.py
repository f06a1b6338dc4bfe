import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from flagcones.pde import (
    DomainError,
    DomainSpec,
    GaugeParams,
    HiggsDatum,
    ScalarField,
    SolveError,
    _interior_operator,
    _laplacian,
    beta_field,
    curvature_field,
    gauge_equivalent,
    max_principle_check,
    ratio_identity_residual,
    read_field_csv,
    residual,
    slice_dimensions,
    solve,
    write_field_csv,
)


def test_domain_validation():
    with pytest.raises(DomainError):
        DomainSpec("torus", 8)
    with pytest.raises(DomainError):
        DomainSpec("disk", 32, radius=1.2)  # reference profile needs radius < 1
    with pytest.raises(DomainError):
        DomainSpec("klein", 32)
    malformed = [
        dict(kind="torus", n=16, periods=(1.0,)),
        dict(kind="torus", n=16, periods=(1.0, 1.0, 1.0)),
        dict(kind="torus", n=16, periods=(math.inf, 1.0)),
        dict(kind="torus", n=16, periods=(1.0, math.nan)),
        dict(kind="torus", n=16.0),
        dict(kind="torus", n=24.5),
        dict(kind="disk", n=16, radius=math.inf, boundary="free"),
        dict(kind="disk", n=16, radius=math.nan, boundary="free"),
    ]
    for kwargs in malformed:
        with pytest.raises(DomainError):
            DomainSpec(**kwargs)


def test_residual_constant_solution_on_torus():
    dom = DomainSpec("torus", 32)
    u = ScalarField(np.zeros(dom.shape), dom)
    r = residual(u, HiggsDatum.constant(1.0, dom), dom)
    assert np.abs(r.values).max() == 0.0


def test_residual_obstruction_on_torus():
    dom = DomainSpec("torus", 32)
    u = ScalarField(np.zeros(dom.shape), dom)
    r = residual(u, HiggsDatum.zero(dom), dom)
    assert np.abs(r.values - 1.0).max() == 0.0


def test_residual_disk_reference_rate():
    sups = []
    for n in (32, 64, 128):
        dom = DomainSpec("disk", n, radius=0.8)
        u = ScalarField(dom.reference_profile(), dom)
        r = residual(u, HiggsDatum.zero(dom), dom)
        sups.append(r.sup_interior())
    assert sups[1] <= 0.35 * sups[0]
    assert sups[2] <= 0.35 * sups[1]


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_solve_torus_constant(c):
    dom = DomainSpec("torus", 32)
    u, report = solve(dom, HiggsDatum.constant(c, dom))
    assert report.converged
    assert np.abs(u.values + (2.0 / 3.0) * math.log(c)).max() <= 1e-8
    assert report.residual_norm <= 1e-10


def test_solve_torus_from_far_start():
    dom = DomainSpec("torus", 32)
    u0 = ScalarField(np.full(dom.shape, 2.0), dom)
    u, report = solve(dom, HiggsDatum.constant(1.0, dom), u0=u0)
    assert report.converged
    assert np.abs(u.values).max() <= 1e-8


def test_newton_contraction_is_quadratic():
    dom = DomainSpec("torus", 24)
    datum = HiggsDatum.constant(1.0, dom)
    u0 = ScalarField(np.full(dom.shape, 0.3), dom)
    u1, rep1 = solve(dom, datum, u0=u0, tol=1e-4)
    assert rep1.residual_norm <= 1e-4
    # one squaring step reaches 1e-8, a second lands at roundoff
    u2, rep2 = solve(dom, datum, u0=u1, tol=1e-10)
    assert rep2.iterations <= 2


def test_solve_disk_reference():
    dom = DomainSpec("disk", 128, radius=0.8)
    u, report = solve(dom, HiggsDatum.zero(dom))
    ref = dom.reference_profile()
    mask = dom.interior_mask()
    assert np.abs(u.values - ref)[mask].max() <= 5e-3
    assert report.curvature_max < 0


def test_disk_convergence_order():
    errs = []
    ns = [32, 48, 64, 96, 128]
    for n in ns:
        dom = DomainSpec("disk", n, radius=0.8)
        u, _ = solve(dom, HiggsDatum.zero(dom))
        mask = dom.interior_mask()
        errs.append(np.abs(u.values - dom.reference_profile())[mask].max())
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_beta_field_examples():
    dom = DomainSpec("torus", 32)
    u = ScalarField(np.zeros(dom.shape), dom)
    assert np.abs(beta_field(u, HiggsDatum.zero(dom)).values).max() == 0.0
    for c in (0.5, 2.0):
        u, _ = solve(dom, HiggsDatum.constant(c, dom))
        b = beta_field(u, HiggsDatum.constant(c, dom))
        assert np.abs(b.values - 1.0).max() <= 1e-8


def test_max_principle_check_zero_field():
    dom = DomainSpec("torus", 32)
    report = max_principle_check(ScalarField(np.zeros(dom.shape), dom))
    assert report["strict"] and report["sup"] == 0.0


def test_curvature_flat_at_unit_constant():
    # c = 1 on the torus: the two source terms cancel, curvature reported
    # numerically as zero
    dom = DomainSpec("torus", 32)
    u, _ = solve(dom, HiggsDatum.constant(1.0, dom))
    k = curvature_field(u, dom)
    assert np.abs(k.values).max() <= 1e-8


def test_max_principle_check():
    dom = DomainSpec("torus", 32)
    u, _ = solve(dom, HiggsDatum.constant(1.0, dom))
    beta = beta_field(u, HiggsDatum.constant(1.0, dom))
    report = max_principle_check(beta)
    assert not report["strict"]
    assert report["sup"] == pytest.approx(1.0, abs=1e-8)

    dom = DomainSpec("disk", 64, radius=0.8)
    datum = HiggsDatum.monomial(1.0, 1, dom)
    u, rep = solve(dom, datum)
    report = max_principle_check(beta_field(u, datum))
    assert report["strict"]
    assert report["sup"] < 1.0
    assert rep.beta_sup == pytest.approx(report["sup"])


def test_curvature_reference_value():
    dom = DomainSpec("disk", 96, radius=0.8)
    u, _ = solve(dom, HiggsDatum.zero(dom))
    k = curvature_field(u, dom)
    mask = dom.interior_mask()
    assert np.abs(k.values[mask] + 4.0).max() <= 5e-3


def test_curvature_negative_in_admissible_regime():
    dom = DomainSpec("disk", 64, radius=0.8)
    for datum in (HiggsDatum.zero(dom), HiggsDatum.monomial(1.0, 1, dom), HiggsDatum.monomial(0.5, 2, dom)):
        u, report = solve(dom, datum)
        if report.beta_sup < 1.0:
            k = curvature_field(u, dom)
            assert k.values[dom.interior_mask()].max() < 0


@pytest.mark.parametrize("k", [1, 2])
def test_ratio_identity_diagnostic_shrinks(k):
    # the floor is relative to the maximum of |t|^2 inside the disk; for k = 2
    # the square grid's corners reach four times that maximum
    vals = []
    for n in (48, 96):
        dom = DomainSpec("disk", n, radius=0.8)
        datum = HiggsDatum.monomial(1.0, k, dom)
        u, _ = solve(dom, datum)
        vals.append(ratio_identity_residual(u, datum, dom))
    assert vals[1] <= 0.5 * vals[0]
    assert vals[1] <= 0.05


def test_slice_dimensions():
    assert slice_dimensions(2) == (2, 4)
    assert slice_dimensions(3) == (4, 8)
    with pytest.raises(DomainError):
        slice_dimensions(1)


def test_gauge_equivalent():
    p = GaugeParams((0.3, -1.0), (0.0,), (0.0,))
    q = GaugeParams((-0.3, 1.0), (0.0,), (0.0,))
    assert gauge_equivalent(p, p)
    assert not gauge_equivalent(p, q)
    assert gauge_equivalent(p, q, over_complex=True)
    r = GaugeParams((0.3, -1.0), (0.5,), (0.0,))
    assert not gauge_equivalent(p, r, over_complex=True)


def test_field_csv_round_trip(tmp_path):
    dom = DomainSpec("torus", 16)
    rng = np.random.default_rng(0)
    u = ScalarField(rng.normal(size=dom.shape), dom)
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    back = read_field_csv(path, dom)
    assert np.array_equal(back.values, u.values)


def _old_field_csv_rows(values):
    return [",".join(repr(float(v)) for v in row) for row in values]


def test_field_csv_rows_match_per_element_formatter(tmp_path):
    dom = DomainSpec("torus", 16)
    rng = np.random.default_rng(1)
    values = rng.normal(size=dom.shape) * 10.0 ** rng.integers(-300, 300, size=dom.shape)
    values[0, 0], values[3, 5], values[7, 2] = -0.0, 1e-300, 0.0
    path = tmp_path / "field.csv"
    write_field_csv(path, ScalarField(values, dom))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:] == _old_field_csv_rows(values)
    assert lines[2].startswith("-0.0,")


# --- the direct damped Newton that solve's factor-once solver replaced, kept as the reference ---


def _reference_solve(dom, datum, u0=None, tol=1e-10, max_iter=50):
    """One ``spsolve`` per Newton step; returns the field values and the iteration count."""
    values = (dom.reference_profile() if u0 is None else u0.values).copy()
    op = _interior_operator(dom)
    mask = dom.interior_mask()
    res = lambda v: residual(ScalarField(v, dom), datum, dom).values[mask]
    r = res(values)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.abs(r).max() <= tol:
            break
        weight = datum.t_abs2[mask] * np.exp(values[mask]) + 2.0 * np.exp(-2.0 * values[mask])
        jac = op - scipy.sparse.diags(weight)
        step = scipy.sparse.linalg.spsolve(jac.tocsc(), -r, permc_spec="MMD_AT_PLUS_A")
        t = 1.0
        phi0 = float(np.dot(r, r))
        for _ in range(40):
            trial = values.copy()
            trial[mask] = values[mask] + t * step
            rt = res(trial)
            if float(np.dot(rt, rt)) <= (1.0 - 1e-4 * t) * phi0:
                values, r = trial, rt
                break
            t *= 0.5
        else:
            raise AssertionError("reference line search stalled")
    assert np.abs(r).max() <= tol
    return values, iterations


def _reference_cases():
    disk = DomainSpec("disk", 64, radius=0.8)
    torus = DomainSpec("torus", 32)
    far = ScalarField(np.full(torus.shape, -3.0), torus)
    return [
        (disk, HiggsDatum.monomial(1.0, 2, disk), None),
        (disk, HiggsDatum.zero(disk), None),
        (torus, HiggsDatum.constant(0.5, torus), far),
        (torus, HiggsDatum.constant(2.0, torus), far),
    ]


@pytest.mark.parametrize("case", range(4))
def test_solve_matches_direct_newton_with_one_factorization(case):
    dom, datum, u0 = _reference_cases()[case]
    ref, ref_iterations = _reference_solve(dom, datum, u0)
    u, report = solve(dom, datum, u0=u0)
    assert report.iterations == ref_iterations
    assert np.abs(u.values - ref).max() <= 1e-12
    assert report.factorizations == 1
    steps = report.iterations - 1
    assert len(report.residual_history) == steps + 1
    assert report.residual_history[-1] == report.residual_norm
    assert len(report.line_search_halvings) == steps
    assert report.cg_iterations[0] == 0 and len(report.cg_iterations) == steps
    assert all(k > 0 for k in report.cg_iterations[1:])


def test_solve_refactors_when_cg_fails(monkeypatch):
    def failing_cg(a, b, *args, **kwargs):
        return np.zeros_like(b), 1

    dom, datum, u0 = _reference_cases()[3]
    ref, ref_iterations = _reference_solve(dom, datum, u0)
    monkeypatch.setattr(scipy.sparse.linalg, "cg", failing_cg)
    u, report = solve(dom, datum, u0=u0)
    assert report.iterations == ref_iterations
    assert np.abs(u.values - ref).max() <= 1e-12
    assert report.factorizations == len(report.cg_iterations) == report.iterations - 1


def test_solve_report_json_carries_diagnostics():
    dom = DomainSpec("torus", 16)
    _, report = solve(dom, HiggsDatum.constant(2.0, dom))
    payload = report.to_json()
    assert payload["residual_history"] == list(report.residual_history)
    assert payload["line_search_halvings"] == list(report.line_search_halvings)
    assert payload["cg_iterations"] == list(report.cg_iterations)
    assert payload["factorizations"] == report.factorizations == 1
    json.dumps(payload)


def test_solve_error_reports_residual():
    dom = DomainSpec("torus", 16)
    with pytest.raises(SolveError) as err:
        solve(dom, HiggsDatum.constant(2.0, dom), tol=1e-30, max_iter=2)
    assert err.value.residual_norm is not None


def test_datum_rejects_overflowing_coefficient():
    with pytest.raises(DomainError, match="overflows"):
        HiggsDatum.constant(1e200, DomainSpec("torus", 16))
    with pytest.raises(DomainError, match="overflows"):
        HiggsDatum.monomial(1e200, 2, DomainSpec("disk", 16, radius=0.8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            HiggsDatum.monomial(1e154, 2, DomainSpec("disk", 16, radius=5.0, boundary="free"))


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("k", [2.5, -2, -1.0, math.nan, math.inf])
def test_monomial_rejects_non_integer_or_negative_exponent(n, k):
    # odd n puts a node at the origin, where a pole would divide by zero
    dom = DomainSpec("disk", n, radius=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="exponent"):
            HiggsDatum.monomial(1.0, k, dom)


@pytest.mark.parametrize("tol, max_iter", [(-1.0, 50), (0.0, 50), (math.nan, 50), (math.inf, 50), (1e-10, 0)])
def test_solve_rejects_invalid_tol_or_max_iter(tol, max_iter):
    dom = DomainSpec("torus", 16)
    with pytest.raises(DomainError):
        solve(dom, HiggsDatum.constant(2.0, dom), tol=tol, max_iter=max_iter)


def _loop_operator(dom):
    """Per-node assembly loop: the scalar reference for ``_interior_operator``."""
    n = dom.n
    hx, hy = dom.spacings()
    order = np.argwhere(dom.interior_mask())
    idx = -np.ones(dom.shape, dtype=int)
    for k, (i, j) in enumerate(order):
        idx[i, j] = k
    rows, cols, vals = [], [], []
    for k, (i, j) in enumerate(order):
        rows.append(k)
        cols.append(k)
        vals.append(-2.0 / hx**2 - 2.0 / hy**2)
        for di, dj, w in ((1, 0, 1 / hx**2), (-1, 0, 1 / hx**2), (0, 1, 1 / hy**2), (0, -1, 1 / hy**2)):
            ii, jj = (i + di) % n, (j + dj) % n
            if idx[ii, jj] >= 0:
                rows.append(k)
                cols.append(idx[ii, jj])
                vals.append(w)
    lap = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(order), len(order)))
    return 0.25 * lap


DOMAINS = st.one_of(
    st.builds(
        DomainSpec,
        st.just("disk"),
        st.integers(16, 48),
        radius=st.floats(0.05, 0.99, exclude_min=True, exclude_max=True),
    ),
    st.builds(
        DomainSpec,
        st.just("torus"),
        st.integers(16, 48),
        periods=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    ),
)


@settings(deadline=None, max_examples=40)
@given(dom=DOMAINS)
def test_interior_operator_matches_per_node_loop(dom):
    a = _interior_operator(dom)
    assert (a != _loop_operator(dom)).nnz == 0
    assert (a != a.T).nnz == 0
    assert (a.diagonal() < 0).all()


def _two_branch_laplacian(values, dom):
    """Rolled torus stencil and edge-sliced disk stencil: the reference for ``_laplacian``."""
    hx, hy = dom.spacings()
    if dom.kind == "torus":
        return (
            (np.roll(values, 1, 0) + np.roll(values, -1, 0) - 2 * values) / hx**2
            + (np.roll(values, 1, 1) + np.roll(values, -1, 1) - 2 * values) / hy**2
        )
    out = np.zeros_like(values)
    out[1:-1, 1:-1] = (
        (values[2:, 1:-1] + values[:-2, 1:-1] - 2 * values[1:-1, 1:-1]) / hx**2
        + (values[1:-1, 2:] + values[1:-1, :-2] - 2 * values[1:-1, 1:-1]) / hy**2
    )
    out[~dom.interior_mask()] = 0.0
    return out


def _loop_ring(dom):
    """Per-node loop: non-interior nodes with an interior node among their four neighbours."""
    n = dom.n
    inner = dom.interior_mask()
    ring = np.zeros(dom.shape, dtype=bool)
    for i in range(n):
        for j in range(n):
            if not inner[i, j]:
                ring[i, j] = any(
                    0 <= i + di < n and 0 <= j + dj < n and inner[i + di, j + dj]
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                )
    return ring


@settings(deadline=None, max_examples=40)
@given(dom=DOMAINS, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_laplacian_and_ring_match_reference_stencils(dom, seed, scale):
    values = scale * np.random.default_rng(seed).standard_normal(dom.shape)
    assert _laplacian(values, dom).tobytes() == _two_branch_laplacian(values, dom).tobytes()
    assert np.array_equal(dom.data_ring_mask(), _loop_ring(dom))


def test_ratio_identity_erosion_is_periodic_on_the_torus():
    # |t|^2 = 1 except a low last row: the seam rows next to it must leave the core
    dom = DomainSpec("torus", 48)
    t_abs2 = np.ones(dom.shape)
    t_abs2[-1, :] = 0.01
    for shift in (0, 24):
        datum = HiggsDatum.tabulated(np.roll(t_abs2, shift, axis=0), dom)
        u, _ = solve(dom, datum)
        assert ratio_identity_residual(u, datum, dom) <= 1e-10
