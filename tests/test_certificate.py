import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from flagcones.certificate import (
    CertGrid,
    HermitianMat,
    NilpotentFlagMat,
    PAIRING_SIGN,
    RegimeError,
    _corner_kernel,
    _field_corner,
    _field_from,
    _hprime_closed,
    _oracle_alphas_batch,
    _projector_mats,
    alpha_closed_forms,
    certificate_margin,
    commutator_fields,
    default_grid,
    flow_generator,
    model_matrices,
    pointing_vector,
    projector_flag,
    projector_pi,
    pushforward_check,
    real_structure_defect,
    sweep,
)
from flagcones.flags import FRAME_TO_COMPLEX, GeometryError, SpdPoint, busemann
from flagcones.plane import PlanePoint, fiber_over_interior
from support import alpha_coefficient, reference_oracle_alphas


def sample_params(rng, n, beta_max=0.95, d_max=5.0):
    for _ in range(n):
        beta = rng.uniform(0, beta_max) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        d = rng.uniform(-d_max, d_max)
        z = np.exp(1j * rng.uniform(0, 2 * math.pi))
        yield beta, d, z


def test_model_matrices_d_zero():
    mm = model_matrices(0.4 + 0.1j, 0.0)
    assert np.allclose(mm.ed, np.eye(3))
    assert np.allclose(mm.hprime, mm.h.mat)


def test_model_matrices_conjugation_oracle():
    # strict check at moderate d (the float conjugation oracle loses
    # digits like cosh(2d)^2 further out)
    rng = np.random.default_rng(0)
    h0perp = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    for beta, d, _ in sample_params(rng, 25, d_max=2.0):
        mm = model_matrices(beta, d)
        ed_oracle = scipy.linalg.expm(d * h0perp)
        assert np.abs(mm.ed - ed_oracle).max() <= 1e-12 * max(1.0, abs(np.cosh(d)))
        conj = np.linalg.inv(mm.ed) @ mm.h.mat @ mm.ed
        assert np.abs(mm.hprime - conj).max() <= 1e-12
    for beta, d, _ in sample_params(rng, 15, d_max=5.0):
        mm = model_matrices(beta, d)
        conj = np.linalg.inv(mm.ed) @ mm.h.mat @ mm.ed
        assert np.abs(mm.hprime - conj).max() <= 1e-14 * np.cosh(2 * d) ** 2


def test_model_matrices_regime():
    with pytest.raises(RegimeError):
        model_matrices(1.0, 0.3)


def test_real_structure_of_model_matrices():
    rng = np.random.default_rng(1)
    for beta, d, z in sample_params(rng, 20, d_max=2.0):
        mm = model_matrices(beta, d)
        for m in (mm.h.mat, mm.h0.mat, mm.h0perp.mat, mm.ed, mm.hprime):
            scale = max(1.0, float(np.abs(m).max()))
            assert real_structure_defect(m) <= 1e-13 * scale
        assert real_structure_defect(projector_pi(z).mat) <= 1e-13
        assert real_structure_defect(pointing_vector(projector_pi(z)).mat) <= 1e-13


def test_projector_example_and_nilpotency():
    p = projector_pi(1.0)
    r2 = math.sqrt(2)
    expected = 0.25 * np.array(
        [[-1, r2, -1], [-r2, 2, -r2], [-1, r2, -1]], dtype=complex
    )
    assert np.abs(p.mat - expected).max() <= 1e-15
    rng = np.random.default_rng(2)
    for _ in range(64):
        z = np.exp(1j * rng.uniform(0, 2 * math.pi))
        m = projector_pi(z).mat
        assert np.abs(m @ m).max() <= 1e-14
        s = np.linalg.svd(m, compute_uv=False)
        assert s[1] <= 1e-14


def test_projector_rejects_bad_modulus():
    from flagcones.flags import GeometryError

    with pytest.raises(GeometryError):
        projector_pi(1.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cls", [HermitianMat, NilpotentFlagMat])
def test_matrix_validators_reject_non_finite_entries(cls, bad):
    # a NaN passes every tolerance comparison; an inf must not reach the SVD
    with pytest.raises(GeometryError, match="non-finite"):
        cls(np.full((3, 3), bad))


def test_projector_flag_matches_fiber():
    for theta in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        f = projector_flag(projector_pi(np.exp(1j * theta)))
        g = fiber_over_interior(PlanePoint.identity(), theta)
        assert f.same_as(g, tol=1e-12)


def test_pointing_vector_display_and_orthogonality():
    v = pointing_vector(projector_pi(1.0))
    r22 = math.sqrt(2) / 2
    expected = np.array(
        [[0, r22, 0], [r22, 0, r22], [0, r22, 0]], dtype=complex
    )
    assert np.abs(v.mat - expected).max() <= 1e-15
    h0 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    h0p = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    rng = np.random.default_rng(3)
    norms = []
    for _ in range(32):
        z = np.exp(1j * rng.uniform(0, 2 * math.pi))
        m = pointing_vector(projector_pi(z)).mat
        assert abs(np.trace(m @ h0)) <= 1e-14
        assert abs(np.trace(m @ h0p)) <= 1e-14
        assert abs(np.trace(m)) <= 1e-14
        norms.append(np.linalg.norm(m))
    assert max(norms) - min(norms) <= 1e-13


def test_pointing_vector_busemann_derivative_sign():
    # the horofunction of the encoded flag increases along the real image
    # of the pointing field at the identity (calibrated sign)
    cinv = np.linalg.inv(FRAME_TO_COMPLEX)
    origin = SpdPoint.identity()
    for theta in np.linspace(0, 2 * math.pi, 12, endpoint=False):
        z = np.exp(1j * theta)
        w = cinv @ pointing_vector(projector_pi(z)).mat @ FRAME_TO_COMPLEX
        assert np.abs(w.imag).max() <= 1e-12
        w = w.real
        f = fiber_over_interior(PlanePoint.identity(), theta)
        eps = 1e-6
        x1 = SpdPoint.from_matrix(scipy.linalg.expm(eps * w))
        deriv = busemann(f, origin, x1) / eps
        assert deriv > 0.1  # positive: descent direction is the negative


def test_commutator_fields_hermitian_and_beta_independence_of_m2():
    rng = np.random.default_rng(4)
    for beta, d, z in sample_params(rng, 20):
        m1, m2 = commutator_fields(beta, d, z)
        for m in (m1.mat, m2.mat):
            scale = max(1.0, float(np.abs(m).max()))
            assert np.abs(m - m.conj().T).max() <= 1e-13 * scale
        m2_other = commutator_fields(0.1, -2.0, z)[1]
        assert np.abs(m2.mat - m2_other.mat).max() <= 1e-13


def test_alpha_closed_forms_examples():
    a1, a2 = alpha_closed_forms(0.0, 0.0, 1.0)
    assert a1 == pytest.approx(0.5, abs=1e-15)
    assert a2 == pytest.approx(1j, abs=1e-15)
    a1, a2 = alpha_closed_forms(0.0, 0.0, 1j)
    assert a1 == pytest.approx(0.5, abs=1e-15)
    assert a2 == pytest.approx(1j, abs=1e-15)


def test_alpha_oracle_matches_closed_forms():
    rng = np.random.default_rng(5)
    for beta, d, z in sample_params(rng, 60):
        m1, m2 = commutator_fields(beta, d, z)
        a1c, a2c = alpha_closed_forms(beta, d, z)
        scale = max(1.0, abs(a1c))
        assert abs(alpha_coefficient(m1) - a1c) <= 1e-10 * scale
        assert abs(alpha_coefficient(m2) - a2c) <= 1e-12


def test_alpha_m2_modulus_range():
    rng = np.random.default_rng(6)
    for _, _, z in sample_params(rng, 50):
        _, a2 = alpha_closed_forms(0.0, 0.0, z)
        assert 0.5 - 1e-12 <= abs(a2) <= 1.0 + 1e-12


def test_margin_examples():
    # margin vanishes identically at beta = 0
    rng = np.random.default_rng(7)
    for _ in range(40):
        d = rng.uniform(-5, 5)
        z = np.exp(1j * rng.uniform(0, 2 * math.pi))
        margin, eta = certificate_margin(0.0, d, z)
        assert abs(margin) <= 1e-12
        assert eta >= 0.5 - 1e-12
    margin, eta = certificate_margin(0.0, 0.0, 1.0)
    assert margin == pytest.approx(0.0, abs=1e-15)
    assert eta == pytest.approx(0.5, abs=1e-15)


def test_margin_nonnegative_on_samples():
    rng = np.random.default_rng(8)
    for beta, d, z in sample_params(rng, 300):
        margin, eta = certificate_margin(beta, d, z)
        assert margin >= -1e-9
        assert eta >= 0.5 * (1 - abs(beta)) - 1e-12
        assert eta <= 1.0 + abs(beta) + 1e-12


def test_sweep_small_grid():
    grid = CertGrid(beta_moduli=(0.0, 0.3, 0.6, 0.9), beta_phases=4, z_phases=16, d_step=0.5)
    report = sweep(grid)
    assert report.min_margin >= -1e-9
    assert report.beta0_max_abs_margin <= 1e-12
    assert report.oracle_dev <= 1e-10
    assert report.eta_floor_gap_min >= -1e-12
    assert report.sign_constant
    assert report.pairing_sign == PAIRING_SIGN == -1.0
    assert report.bounded_surrogate_max <= 1.0 + 0.9 + 1e-9
    keys = set(report.to_json())
    assert {"min_margin", "min_eta", "argmin", "oracle_dev", "grid"} <= keys


def test_margin_gauge_identity():
    # the residual gauge of the normalized flow direction is the fourth
    # roots of unity: margin(i beta, d, i z) = margin(beta, d, z) exactly,
    # so per-modulus shell minima over fourth-root-closed grids coincide
    rng = np.random.default_rng(9)
    for beta, d, z in sample_params(rng, 60):
        m0, e0 = certificate_margin(beta, d, z)
        for w in (1j, -1.0, -1j):
            m1, e1 = certificate_margin(beta * w, d, z * w)
            assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))
            assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))


def test_sweep_shell_minimum_gauge_stable():
    # the sweep's grids are closed under the fourth-root gauge, so the
    # per-shell minimum is unchanged when beta phases are rotated by pi/2
    base = CertGrid(beta_moduli=(0.5,), beta_phases=8, z_phases=32, d_step=0.5)
    r1 = sweep(base)
    mins = []
    for ph in np.linspace(0, 2 * math.pi, 8, endpoint=False) + math.pi / 2:
        beta = 0.5 * np.exp(1j * ph)
        for d in base.d_values():
            for z in base.z_values():
                mins.append(certificate_margin(beta, d, z)[0])
    assert abs(min(mins) - r1.min_margin) <= 1e-10


def test_default_grid_shape():
    g = default_grid()
    assert g.beta_moduli[0] == 0.0 and g.beta_moduli[-1] == 0.95
    assert len(g.d_values()) == 201
    assert len(g.z_values()) == 64


def test_sweep_restricted_to_zero_modulus_is_identically_tight():
    grid = CertGrid(beta_moduli=(0.0,), beta_phases=2, z_phases=32, d_step=0.25)
    report = sweep(grid)
    assert abs(report.min_margin) <= 1e-12
    assert report.beta0_max_abs_margin <= 1e-12
    assert report.min_eta >= 0.5 - 1e-12


def test_flow_generator_real_symmetric():
    for beta in (0.0, 0.5, 0.3 + 0.2j):
        v = flow_generator(beta).mat
        assert np.abs(v - v.T).max() <= 1e-12
        assert abs(np.trace(v)) <= 1e-12
    assert np.allclose(flow_generator(0.0).mat, np.diag([1.0, 0.0, -1.0]), atol=1e-14)


def test_pushforward_check_inside_and_displacement():
    reports = {b: pushforward_check(b, 1e-3, n_samples=128) for b in (0.0, 0.5, 0.9)}
    for b, rep in reports.items():
        assert rep["all_inside"], f"beta={b}"
        assert rep["inside"] == rep["samples"]
        assert rep["min_displacement"] > 0
    assert reports[0.9]["min_displacement"] < reports[0.5]["min_displacement"]
    assert reports[0.0]["min_displacement"] == pytest.approx(2e-3, rel=1e-6)


def test_pushforward_zero_step_all_boundary():
    rep = pushforward_check(0.0, 0.0, n_samples=64)
    assert rep["boundary"] == rep["samples"]
    assert rep["inside"] == 0


@pytest.mark.parametrize(
    "kwargs", [{"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"n_samples": 0}, {"n_samples": -5}]
)
def test_pushforward_rejects_invalid_tol_or_samples(kwargs):
    with pytest.raises(GeometryError):
        pushforward_check(0.5, 1e-3, **kwargs)


def test_batched_oracle_matches_per_cell_commutator_fields():
    # the sweep's loop-free corner oracle agrees with the per-cell full
    # commutator fields and projectors, out to |beta| = 0.95 and d = +-5
    d = np.linspace(-5.0, 5.0, 11)
    z = np.exp(1j * np.linspace(0, 2 * math.pi, 8, endpoint=False))
    p = _projector_mats(z)
    for j, zv in enumerate(z):
        assert np.abs(p[j] - projector_pi(zv).mat).max() <= 1e-15
    for beta in (0.6 * np.exp(0.7j), 0.95 * np.exp(2.1j), -0.95):
        a1o = _oracle_alphas_batch(beta, d, _corner_kernel(p))
        assert a1o.shape == (d.size, z.size)
        for j, zv in enumerate(z):
            for i, dv in enumerate(d):
                a1 = alpha_coefficient(commutator_fields(beta, dv, zv)[0])
                assert abs(a1o[i, j] - a1) <= 1e-12 * max(1.0, abs(a1))


#: A small grid on which every injected fault below must reach oracle_dev.
MUTANT_GRID = CertGrid(beta_moduli=(0.0, 0.5), beta_phases=2, z_phases=8, d_step=0.5)


def test_sweep_oracle_catches_a_wrong_closed_form(monkeypatch):
    # the oracle is evaluated independently of the closed-form kernel, so a
    # kernel whose a1 or a2 is off by 1e-8 must show up in oracle_dev
    from flagcones import certificate

    kernel = certificate._closed_forms
    for which in (0, 1):

        def shifted(beta, d, z):
            out = list(kernel(beta, d, z))
            out[which] = out[which] + 1e-8
            return tuple(out)

        monkeypatch.setattr(certificate, "_closed_forms", shifted)
        assert sweep(MUTANT_GRID).oracle_dev > 1e-10, which


def _mutant_field_corner(drop_pc: bool, c10_reads_c01: bool):
    """A copy of ``_field_corner`` without its p* c term, or reading c[0,1] for c[1,0]."""

    def corner(a, p):
        def c(i, j):
            return (
                a[..., i, 0] * p[..., 0, j] + a[..., i, 1] * p[..., 1, j] + a[..., i, 2] * p[..., 2, j]
            ) - (p[..., i, 0] * a[..., 0, j] + p[..., i, 1] * a[..., 1, j] + p[..., i, 2] * a[..., 2, j])

        row0 = (c(0, 0), c(0, 1), c(0, 2))
        row2 = (c(2, 0), c(2, 1), c(2, 2))
        col0 = (row0[0], c(0, 1) if c10_reads_c01 else c(1, 0), row2[0])
        col2 = (row0[2], c(1, 2), row2[2])
        ph = np.conj(p)
        return sum(
            row2[k] * ph[..., 0, k]
            + p[..., 2, k] * np.conj(row0[k])
            - np.conj(col2[k]) * p[..., k, 0]
            - (0.0 if drop_pc else ph[..., k, 2] * col0[k])
            for k in range(3)
        )

    return corner


@pytest.mark.parametrize(
    "attr, mutant",
    [
        ("_field_corner", _mutant_field_corner(drop_pc=True, c10_reads_c01=False)),
        ("_field_corner", _mutant_field_corner(drop_pc=False, c10_reads_c01=True)),
        ("_hprime_closed", lambda beta, d: _hprime_closed(beta, -d)),
    ],
    ids=["corner-drops-p*c", "corner-reads-c01-for-c10", "hprime-conjugated-the-wrong-way"],
)
def test_sweep_oracle_catches_a_wrong_commutator_oracle(monkeypatch, attr, mutant):
    # the kernel and the H0perp corner are built from the module's _field_corner, and the
    # contraction reads the module's _hprime_closed, so a fault on the oracle side reaches oracle_dev
    from flagcones import certificate

    monkeypatch.setattr(certificate, attr, mutant)
    assert sweep(MUTANT_GRID).oracle_dev > 1e-10


COMPLEX = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=100)
@given(
    mats=st.lists(st.lists(COMPLEX, min_size=9, max_size=9), min_size=1, max_size=4),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=8),
)
def test_field_corner_matches_full_field(mats, phases):
    # the corner kernel equals the (3,1) entry of the full commutator field
    # for any complex a, not only H', broadcast against a projector stack
    a = np.array(mats).reshape(-1, 1, 3, 3)
    p = _projector_mats(np.exp(1j * np.array(phases)))
    ref = _field_from(a, p)[..., 2, 0]
    got = _field_corner(a, p)
    assert got.shape == ref.shape == (len(mats), len(phases))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(a).max()
    single = _field_corner(a[0, 0], p)
    assert np.abs(single - _field_from(a[0, 0], p)[..., 2, 0]).max() <= 1e-12 * np.abs(a[0, 0]).max()


@settings(deadline=None, max_examples=100)
@given(
    modulus=st.floats(0.0, 1.0, exclude_max=True),
    angle=st.floats(0.0, 2 * math.pi),
    d=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=8),
)
def test_contracted_oracle_matches_broadcast_reference(modulus, angle, d, phases):
    # one GEMM against the corner kernel gives the broadcast commutator corners
    beta = modulus * np.exp(1j * angle)
    d = np.array(d)
    p = _projector_mats(np.exp(1j * np.array(phases)))
    ref = reference_oracle_alphas(beta, d, p)
    got = _oracle_alphas_batch(beta, d, _corner_kernel(p))
    assert got.shape == ref.shape == (len(d), len(phases))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@settings(deadline=None, max_examples=100)
@given(
    mats=st.lists(st.lists(COMPLEX, min_size=9, max_size=9), min_size=1, max_size=4),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=8),
)
def test_corner_kernel_is_exact_for_any_matrix(mats, phases):
    # the real-linear split corner(a) = sum a_k L_k + conj(a_k) M_k holds for every complex a
    a = np.array(mats).reshape(-1, 9)
    p = _projector_mats(np.exp(1j * np.array(phases)))
    got = np.concatenate([a, np.conj(a)], axis=1) @ _corner_kernel(p)
    ref = _field_corner(a.reshape(-1, 1, 3, 3), p)
    assert got.shape == ref.shape == (len(mats), len(phases))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(a).max()


# CertReport values of the two grids below, computed with the full-field
# oracle.  The oracle feeds only oracle_dev, so every other field except
# runtime_s and analytic_floor_gap must stay bit for bit the same
STABLE_REPORTS = [
    (
        {"beta_moduli": (0.0, 0.3, 0.6, 0.9), "beta_phases": 4, "z_phases": 16, "d_step": 0.5},
        {
            "min_margin": 0.0,
            "min_eta": 0.08516778621854558,
            "argmin": {"beta_re": 0.0, "beta_im": 0.0, "d": -5.0, "z_phase": 0.0},
            "beta0_max_abs_margin": 0.0,
            "eta_floor_gap_min": 0.0,
            "bounded_surrogate_max": 0.9298194329720169,
            "pairing_sign": -1.0,
            "sign_constant": True,
            "n_cells": 5376,
            "grid": {
                "beta_moduli": [0.0, 0.3, 0.6, 0.9],
                "beta_phases": 4,
                "z_phases": 16,
                "d_max": 5.0,
                "d_step": 0.5,
            },
        },
    ),
    (
        {"beta_moduli": (0.25, 0.7, 0.95), "beta_phases": 3, "z_phases": 12, "d_max": 3.0, "d_step": 0.4},
        {
            "min_margin": 0.0012409133136827516,
            "min_eta": 0.03556597994871684,
            "argmin": {
                "beta_re": 0.25,
                "beta_im": 0.0,
                "d": -0.5999999999999996,
                "z_phase": -1.5707963267948968,
            },
            "beta0_max_abs_margin": 0.0,
            "eta_floor_gap_min": 0.010565979948716817,
            "bounded_surrogate_max": 0.9723957108811353,
            "pairing_sign": -1.0,
            "sign_constant": True,
            "n_cells": 1728,
            "grid": {
                "beta_moduli": [0.25, 0.7, 0.95],
                "beta_phases": 3,
                "z_phases": 12,
                "d_max": 3.0,
                "d_step": 0.4,
            },
        },
    ),
]


@pytest.mark.parametrize(
    "grid_kwargs, expected", STABLE_REPORTS, ids=["with-beta-0", "beta-0.25-to-0.95"]
)
def test_sweep_report_values_are_stable(grid_kwargs, expected):
    payload = sweep(CertGrid(**grid_kwargs)).to_json()
    assert payload["oracle_dev"] <= 1e-10
    assert payload["analytic_floor_gap"] >= -1e-9
    assert set(payload) == set(expected) | {"oracle_dev", "analytic_floor_gap", "runtime_s"}
    for key, value in expected.items():
        assert payload[key] == value, key
