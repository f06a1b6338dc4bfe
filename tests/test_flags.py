import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from flagcones.flags import (
    Flag,
    GeometryError,
    GroupElem,
    NumericalDomainError,
    ProjectiveCovector,
    ProjectivePoint,
    SpdPoint,
    TangentDir,
    act_on_flag,
    act_on_point,
    busemann,
    distance,
    gap_vector,
    geodesic,
    is_transverse,
    pullback_flag,
    spd_sqrt,
    thickening_contains,
    _symmetric_function,
)
from support import frame_change_complex_to_real, frame_change_real_to_complex, random_flag, random_group_elem


def std_flag(x, y):
    return Flag(ProjectivePoint(x), ProjectiveCovector(y))


F_E1_E3 = std_flag([1, 0, 0], [0, 0, 1])
F_E3_E1 = std_flag([0, 0, 1], [1, 0, 0])


def test_normalization_idempotent_and_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-3:
            continue
        p = ProjectivePoint(v)
        q = ProjectivePoint(p.coords)
        assert np.array_equal(p.coords, q.coords)
        s = rng.uniform(0.1, 10) * (-1) ** rng.integers(2)
        r = ProjectivePoint(s * v)
        assert np.allclose(p.coords, r.coords, atol=1e-14)
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-14


def test_zero_data_rejected():
    with pytest.raises(GeometryError):
        ProjectivePoint([0.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        std_flag([1, 0, 0], [1, 0, 0])  # incidence fails


def test_transversality_examples():
    assert is_transverse(F_E1_E3, F_E3_E1)
    f = std_flag([1, 2, 0], [2, -1, 3])
    assert not is_transverse(f, f)


def test_thickening_examples():
    f = F_E1_E3
    assert thickening_contains(f, std_flag([1, 0, 0], [0, 1, 0]))
    assert not thickening_contains(f, std_flag([0, 1, 0], [1, 0, 0]))
    assert thickening_contains(f, f)


def _thickening_probe(f, rng):
    # random member of K_f: share the line or the plane
    if rng.random() < 0.5:
        y = rng.normal(size=3)
        y -= np.dot(y, f.line.coords) * f.line.coords
        if np.linalg.norm(y) < 1e-6:
            return f
        return Flag(f.line, ProjectiveCovector(y))
    x = rng.normal(size=3)
    x -= np.dot(x, f.plane.coords) * f.plane.coords
    if np.linalg.norm(x) < 1e-6:
        return f
    return Flag(ProjectivePoint(x), f.plane)


def test_transversality_equals_thickening_disjointness():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 40:
        f1, f2 = random_flag(rng), random_flag(rng)
        if not is_transverse(f1, f2):
            continue
        checked += 1
        for _ in range(30):
            g = _thickening_probe(f1, rng)
            assert not thickening_contains(f2, g)
    # sharing a component puts a common flag in both thickenings
    f1 = F_E1_E3
    f2 = std_flag([1, 0, 0], [0, 1, 0])
    assert not is_transverse(f1, f2)
    assert thickening_contains(f1, f2) and thickening_contains(f2, f2)


def test_equal_flags_have_equal_thickenings():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = random_flag(rng)
        f_scaled = std_flag(-3.7 * f.line.coords, 0.2 * f.plane.coords)
        for _ in range(50):
            g = _thickening_probe(f, rng)
            assert thickening_contains(f_scaled, g)


def test_distinct_flags_have_distinct_thickenings():
    # converse direction by witness: some member of one thickening escapes
    # the other whenever the flags differ
    rng = np.random.default_rng(21)
    found = 0
    while found < 30:
        f1, f2 = random_flag(rng), random_flag(rng)
        if f1.same_as(f2):
            continue
        found += 1
        witness = None
        for _ in range(60):
            g = _thickening_probe(f1, rng)
            if not thickening_contains(f2, g):
                witness = g
                break
        assert witness is not None


def test_busemann_diagonal_value():
    origin = SpdPoint.identity()
    x = SpdPoint(np.diag([4.0, 1.0, 0.25]))
    assert busemann(F_E1_E3, origin, x) == pytest.approx(2 * math.log(4), abs=1e-12)
    assert busemann(F_E1_E3, origin, origin) == 0.0


def test_busemann_divergence_along_model_ray():
    origin = SpdPoint.identity()
    for s in (0.5, 1.0, 3.0):
        x = SpdPoint(np.diag([math.exp(-2 * s), 1.0, math.exp(2 * s)]))
        assert busemann(F_E1_E3, origin, x) == pytest.approx(-4 * s, abs=1e-12)


def test_busemann_joint_invariance():
    rng = np.random.default_rng(3)
    origin = SpdPoint.identity()
    for _ in range(60):
        g = random_group_elem(rng)
        f = random_flag(rng)
        x = act_on_point(random_group_elem(rng), origin)
        lhs = busemann(act_on_flag(g, f), act_on_point(g, origin), act_on_point(g, x))
        rhs = busemann(f, origin, x)
        assert abs(lhs - rhs) <= 1e-10


def test_busemann_midpoint_convexity():
    rng = np.random.default_rng(4)
    origin = SpdPoint.identity()
    for _ in range(50):
        f = random_flag(rng)
        x = act_on_point(random_group_elem(rng), origin)
        y = act_on_point(random_group_elem(rng), origin)
        # geodesic midpoint of x and y
        v = _log_dir(x, y)
        mid = geodesic(x, v, 0.5)
        bm = busemann(f, origin, mid)
        assert bm <= 0.5 * (busemann(f, origin, x) + busemann(f, origin, y)) + 1e-8


def _log_dir(x, y):
    from flagcones.flags import spd_sqrt

    s = spd_sqrt(x.mat)
    si = np.linalg.inv(s)
    inner = si @ y.mat @ si
    w, q = np.linalg.eigh(0.5 * (inner + inner.T))
    m = (q * np.log(w)) @ q.T
    m = 0.5 * (m + m.T)
    m -= np.trace(m) / 3.0 * np.eye(3)
    return TangentDir(m)


def test_act_on_flag_examples():
    g = GroupElem(np.diag([2.0, 1.0, 0.5]))
    assert act_on_flag(g, F_E1_E3).same_as(F_E1_E3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = random_group_elem(rng)
        f = random_flag(rng)
        back = act_on_flag(g, act_on_flag(g.inverse(), f))
        assert back.same_as(f, tol=1e-12)
        gf = act_on_flag(g, f)
        assert abs(np.dot(gf.line.coords, gf.plane.coords)) <= 1e-12


def test_act_on_flag_homomorphism():
    rng = np.random.default_rng(6)
    for _ in range(30):
        g1, g2 = random_group_elem(rng), random_group_elem(rng)
        f = random_flag(rng)
        lhs = act_on_flag(g1.compose(g2), f)
        rhs = act_on_flag(g1, act_on_flag(g2, f))
        assert lhs.same_as(rhs, tol=1e-10)


def test_pullback_matches_inverse_action():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_group_elem(rng)
        f = random_flag(rng)
        assert pullback_flag(g, f).same_as(act_on_flag(g.inverse(), f), tol=1e-11)


def test_act_on_point_examples():
    x = SpdPoint.identity()
    g = GroupElem(np.diag([2.0, 1.0, 0.5]))
    assert np.allclose(act_on_point(GroupElem.identity(), x).mat, np.eye(3))
    assert np.allclose(act_on_point(g, x).mat, np.diag([4.0, 1.0, 0.25]))


def test_distance_isometry():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_group_elem(rng)
        x = act_on_point(random_group_elem(rng), SpdPoint.identity())
        y = act_on_point(random_group_elem(rng), SpdPoint.identity())
        d1 = distance(x, y)
        d2 = distance(act_on_point(g, x), act_on_point(g, y))
        assert abs(d1 - d2) <= 1e-10 * max(1.0, d1)


def test_geodesic_examples():
    x = SpdPoint.identity()
    v = TangentDir(np.diag([2.0, 0.0, -2.0]))
    end = geodesic(x, v, 1.0)
    assert np.allclose(end.mat, np.diag([math.e**2, 1.0, math.e**-2]), atol=1e-12)
    assert np.allclose(geodesic(x, v, 0.0).mat, np.eye(3))


def test_geodesic_group_law():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        v = TangentDir((a + a.T) / 2 - np.trace(a + a.T) / 6 * np.eye(3))
        s, t = rng.uniform(-1.5, 1.5, size=2)
        lhs = geodesic(SpdPoint.identity(), v, s + t)
        g = GroupElem(scipy.linalg.expm(0.5 * s * v.mat))
        rhs = act_on_point(g, geodesic(SpdPoint.identity(), v, t))
        assert np.abs(lhs.mat - rhs.mat).max() <= 1e-10 * np.abs(lhs.mat).max()


def test_distance_examples():
    x = SpdPoint.identity()
    y = SpdPoint(np.diag([4.0, 1.0, 0.25]))
    assert distance(x, x) == 0.0
    assert distance(x, y) == pytest.approx(math.sqrt(2) * math.log(4), abs=1e-12)


def _symmetric(entries) -> np.ndarray:
    a = np.zeros((3, 3))
    a[np.triu_indices(3)] = entries
    return a + np.triu(a, 1).T


SYMMETRIC = st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6).map(_symmetric)


@settings(deadline=None, max_examples=200)
@given(a=SYMMETRIC, scale=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]))
def test_symmetric_exp_matches_scipy_expm(a, scale):
    # exp through eigh against the Pade expm, at scales down to pushforward
    # steps; against 50-digit mpmath the Pade side is the less accurate one
    # (up to ~7000 ulps of max|exp(a)| at |a| <= 5, eigh ~40)
    a = scale * a
    ref = scipy.linalg.expm(a)
    got = _symmetric_function(a, np.exp)
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(a).max()) * np.abs(ref).max()


@settings(deadline=None, max_examples=200)
@given(s=SYMMETRIC, t=SYMMETRIC)
def test_distance_matches_scipy_generalized_eigh(s, t):
    # SPD points exp(S/3), exp(T/3), condition numbers up to ~e^10: the
    # eigenvalues of X^-1/2 Y X^-1/2 against the generalized eigh(Y, X).
    # Against 40-digit mpmath the two are within ~1300 and ~500 ulps of
    # max(1, d); 30,000 random pairs differed by at most 7.2e-13.
    x = SpdPoint.from_matrix(scipy.linalg.expm(s / 3.0))
    y = SpdPoint.from_matrix(scipy.linalg.expm(t / 3.0))
    w = scipy.linalg.eigh(y.mat, x.mat, eigvals_only=True)
    ref = float(np.sqrt(np.sum(np.log(w) ** 2)))
    assert abs(distance(x, y) - ref) <= 1e-11 * max(1.0, ref)


def test_spd_sqrt_squares_back_and_rejects_indefinite():
    x = SpdPoint.from_matrix(scipy.linalg.expm(_symmetric([1.0, 0.5, -0.3, 0.2, 0.7, -1.1])))
    r = spd_sqrt(x.mat)
    assert np.abs(r @ r - x.mat).max() <= 1e-14 * np.abs(x.mat).max()
    with pytest.raises(GeometryError, match="not positive definite"):
        spd_sqrt(np.diag([1.0, 1.0, -1.0]))


def test_distance_triangle_inequality():
    rng = np.random.default_rng(10)
    for _ in range(30):
        pts = [act_on_point(random_group_elem(rng), SpdPoint.identity()) for _ in range(3)]
        d01 = distance(pts[0], pts[1])
        d12 = distance(pts[1], pts[2])
        d02 = distance(pts[0], pts[2])
        assert d02 <= d01 + d12 + 1e-10


def test_random_group_elem_at_large_scale():
    # at scale 4 about 5% of draws are too ill-conditioned for the
    # determinant check; they are redrawn instead of raising
    for seed in range(400):
        g = random_group_elem(np.random.default_rng(seed), scale=4.0)
        assert abs(np.linalg.det(g.mat) - 1.0) <= 1e-10
    # a draw that passes is returned as drawn
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    a = ref.normal(size=(3, 3)) * 0.7
    a -= np.trace(a) / 3.0 * np.eye(3)
    assert np.array_equal(random_group_elem(rng).mat, scipy.linalg.expm(a))


def test_gap_vector_diagonal():
    gv = gap_vector(GroupElem(np.diag([4.0, 1.0, 0.25])))
    assert gv.sg12 == pytest.approx(math.log(4), abs=1e-12)
    assert gv.sg23 == pytest.approx(math.log(4), abs=1e-12)
    assert gv.lg12 == pytest.approx(math.log(4), abs=1e-12)
    assert gv.lg23 == pytest.approx(math.log(4), abs=1e-12)


def test_gap_vector_eigenvalues_on_request():
    g = GroupElem(np.diag([4.0, 1.0, 0.25]))
    gv = gap_vector(g, eigenvalues=False)
    assert math.isnan(gv.lg12) and math.isnan(gv.lg23)
    assert gv.sg12 == pytest.approx(math.log(4), abs=1e-12)


def test_gap_vector_inverse_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_group_elem(rng)
        gv = gap_vector(g)
        gvi = gap_vector(g.inverse())
        assert abs(gv.sg12 - gvi.sg23) <= 1e-12
        assert gv.sg12 >= 0 and gv.sg23 >= 0 and gv.lg12 >= 0 and gv.lg23 >= 0


def test_gap_vector_power_limit():
    # gaps sized so that 20 powers neither exhaust float precision nor
    # drown the limit in the diagonalizing-frame correction
    rng = np.random.default_rng(12)
    for _ in range(10):
        g12, g23 = rng.uniform(1.0, 1.4, size=2)
        logs = np.array([g12 + g23, g23, 0.0])
        logs -= logs.mean()
        p = random_group_elem(rng, scale=0.15)
        g = p.mat @ np.diag(np.exp(logs)) @ np.linalg.inv(p.mat)
        gv = gap_vector(g)
        n = 20
        gn = np.linalg.matrix_power(g, n)
        approx = gap_vector(gn).sg12 / n
        assert abs(approx - gv.lg12) <= 0.02 * abs(gv.lg12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gap_vector_rejects_non_finite_entries(bad):
    with pytest.raises(GeometryError, match="non-finite"):
        gap_vector(np.full((3, 3), bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("build", [GroupElem, TangentDir, SpdPoint, SpdPoint.from_matrix])
def test_matrix_validators_reject_non_finite_entries(build, bad):
    # a NaN passes every tolerance comparison; an inf must not reach det or eigh
    with pytest.raises(GeometryError, match="non-finite"):
        build(np.full((3, 3), bad))


def test_gap_vector_singular_matrix():
    with pytest.raises(NumericalDomainError, match="singular"):
        gap_vector(np.diag([1.0, 1.0, 0.0]))


def test_frame_change_examples():
    z = frame_change_real_to_complex([math.sqrt(2), math.sqrt(2), 0.0])
    assert np.allclose(z, [1.0, math.sqrt(2), 1.0], atol=1e-14)
    z = frame_change_real_to_complex([1.0, 0.0, 0.0])
    assert np.allclose(z, [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-15)


def test_frame_change_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(size=3)
        back = frame_change_complex_to_real(frame_change_real_to_complex(x))
        assert np.abs(back - x).max() <= 1e-15
