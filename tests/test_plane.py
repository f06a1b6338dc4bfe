import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.flags import (
    Flag,
    ProjectiveCovector,
    ProjectivePoint,
    _flag_rows,
    act_on_flag,
    pullback_flag,
)
from flagcones import plane
from flagcones.plane import (
    BoundaryPoint,
    PlanePoint,
    ProjectionError,
    _project_rows,
    boundary_fiber_contains,
    conic_eval,
    criticality_residual,
    fiber_over_interior,
    plane_sqrt_frame,
    project,
)
from support import (
    plane_geodesic_point,
    random_flag,
    random_group_elem,
    reference_detect_boundary,
    reference_projection,
)


def std_flag(x, y):
    return Flag(ProjectivePoint(x), ProjectiveCovector(y))


def random_plane_point(rng, spread=1.2):
    w = rng.normal() * spread
    v = rng.normal() * spread
    a = math.exp(w)
    c = v * math.exp(w)
    return PlanePoint(a, (1 + c * c) / a, c)


def test_fiber_over_identity_examples():
    f0 = fiber_over_interior(PlanePoint.identity(), 0.0)
    assert f0.same_as(std_flag([1, 1, 0], [-1, 1, 0]), tol=1e-14)
    f1 = fiber_over_interior(PlanePoint.identity(), math.pi / 2)
    assert f1.same_as(std_flag([0, 1, 1], [0, 1, -1]), tol=1e-14)


def test_conic_eval_examples():
    assert conic_eval(ProjectivePoint([1, 1, 0])) == pytest.approx(0.0, abs=1e-15)
    assert conic_eval(ProjectivePoint([1, 0, 0])) == pytest.approx(1.0)
    assert conic_eval(ProjectivePoint([0, 1, 0])) == pytest.approx(-1.0)


def test_fiber_lines_on_conic_planes_tangent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = random_plane_point(rng, spread=0.0)  # identity
        for theta in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            f = fiber_over_interior(x, theta)
            assert abs(conic_eval(f.line)) <= 1e-14
            assert abs(conic_eval(f.plane)) <= 1e-14


def test_criticality_residual_examples():
    for theta in np.linspace(0, 2 * math.pi, 16, endpoint=False):
        f = fiber_over_interior(PlanePoint.identity(), theta)
        assert criticality_residual(f, PlanePoint.identity()) <= 1e-15
    f = std_flag([1, 0, -1], [1, 0, 1])
    assert criticality_residual(f, PlanePoint.identity()) == pytest.approx(2.0, abs=1e-14)


def test_criticality_residual_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_flag(rng)
        x = random_plane_point(rng)
        r1 = criticality_residual(f, x)
        f2 = std_flag(5.1 * f.line.coords, -0.3 * f.plane.coords)
        assert criticality_residual(f2, x) == pytest.approx(r1, abs=1e-12)


def test_boundary_point_flags():
    a0 = BoundaryPoint(0.0)
    assert a0.flag.same_as(std_flag([1, 0, 0], [0, 0, 1]), tol=1e-14)
    a = BoundaryPoint(math.pi / 2)
    assert a.flag.same_as(std_flag([0, 0, 1], [1, 0, 0]), tol=1e-14)
    # same flag for phi and phi + pi, distinct otherwise
    assert BoundaryPoint(0.3).flag.same_as(BoundaryPoint(0.3 + math.pi).flag)
    assert not BoundaryPoint(0.3).flag.same_as(BoundaryPoint(1.1).flag)


def test_boundary_fiber_contains_examples():
    a = BoundaryPoint(0.0)
    assert boundary_fiber_contains(a, std_flag([1, 0, 0], [0, 1, 0]))
    assert boundary_fiber_contains(a, a.flag)
    b = BoundaryPoint(math.pi / 2)
    assert not boundary_fiber_contains(a, b.flag)
    # distinct boundary points have disjoint fibers (transverse flags)
    rng = np.random.default_rng(2)
    for _ in range(200):
        phi1, phi2 = rng.uniform(0, math.pi, size=2)
        if abs(phi1 - phi2) < 1e-3 or abs(abs(phi1 - phi2) - math.pi) < 1e-3:
            continue
        y = rng.normal(size=3)
        f1 = BoundaryPoint(phi1)
        y -= np.dot(y, f1.flag.line.coords) * f1.flag.line.coords
        if np.linalg.norm(y) < 1e-6:
            continue
        probe = Flag(f1.flag.line, ProjectiveCovector(y))
        assert not boundary_fiber_contains(BoundaryPoint(phi2), probe)


def test_project_interior_example():
    pr = project(std_flag([1, 1, 0], [-1, 1, 0]))
    assert isinstance(pr, PlanePoint)
    assert pr.same_as(PlanePoint.identity(), tol=1e-9)


def test_project_boundary_example():
    pr = project(std_flag([1, 0, 0], [0, 1, 0]))
    assert isinstance(pr, BoundaryPoint)
    assert pr.same_as(BoundaryPoint(0.0), tol=1e-12)


def test_project_fiber_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_plane_point(rng)
        for theta in np.linspace(0, 2 * math.pi, 32, endpoint=False):
            f = fiber_over_interior(x, theta)
            pr = project(f)
            assert isinstance(pr, PlanePoint)
            assert np.abs(pr.mat - x.mat).max() <= 1e-6


def test_project_continuity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = random_plane_point(rng, spread=0.8)
        f = fiber_over_interior(x, rng.uniform(0, 2 * math.pi))
        pr0 = project(f)
        eps = 1e-6
        line = f.line.coords + eps * rng.normal(size=3)
        plane = f.plane.coords.copy()
        plane -= np.dot(plane, line) / np.dot(line, line) * line
        pr1 = project(std_flag(line, plane))
        assert isinstance(pr1, PlanePoint)
        assert np.abs(pr1.mat - pr0.mat).max() <= 1e-3


def test_project_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_group_elem(rng)
        x = random_plane_point(rng, spread=0.7)
        f = fiber_over_interior(x, rng.uniform(0, 2 * math.pi))
        pr_model = project(f)
        pr_moved = project(act_on_flag(g, f), frame=g)
        assert isinstance(pr_moved, PlanePoint)
        assert np.abs(pr_moved.mat - pr_model.mat).max() <= 1e-6


def test_strict_convexity_of_exp_along_plane_geodesics():
    # e^(b) has positive second differences along plane geodesics (lambda = 1)
    rng = np.random.default_rng(6)
    from flagcones.flags import busemann, SpdPoint

    origin = SpdPoint.identity()
    count = 0
    while count < 100:
        f = random_flag(rng)
        p = random_plane_point(rng, spread=0.6)
        q = random_plane_point(rng, spread=0.6)
        if np.abs(p.mat - q.mat).max() < 1e-3:
            continue
        count += 1
        vals = []
        for s in (0.0, 0.5, 1.0):
            pt = plane_geodesic_point(p, q, s)
            vals.append(math.exp(busemann(f, origin, pt.spd())))
        assert vals[0] + vals[2] - 2 * vals[1] > 0


def test_projection_rejects_degenerate_near_boundary():
    # a flag sharing its line with a boundary flag detects as boundary even
    # when the plane component is generic
    f = std_flag([math.cos(0.7), 0.0, math.sin(0.7)], [-math.sin(0.7), 2.0, math.cos(0.7)])
    pr = project(f)
    assert isinstance(pr, BoundaryPoint)
    assert pr.same_as(BoundaryPoint(0.7), tol=1e-12)


def test_projection_error_when_the_outer_parts_are_parallel():
    # incident to 2.5e-13 and off the boundary fibers, but x0 y0 + x2 y2 = 0
    # exactly: the horofunction has no interior minimum
    f = std_flag([0.6, 5e-7, 0.8], [-0.8, 5e-7, 0.6])
    with pytest.raises(ProjectionError):
        project(f)
    lines, planes = _rows([fiber_over_interior(PlanePoint.identity(), 0.3), f])
    with pytest.raises(ProjectionError, match="flag row 1 "):
        _project_rows(lines, planes)


# --- batched projection: properties ------------------------------------------


def _exp_point(r, angle):
    """The plane point at distance r from the identity in the direction angle.

    exp(r [[cos angle, sin angle], [sin angle, -cos angle]]), written in its
    eigenbasis so that no entry cancels.
    """
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    up, down = math.exp(r), math.exp(-r)
    return PlanePoint(up * c * c + down * s * s, up * s * s + down * c * c, (up - down) * c * s)


def _boundary_row(phi, psi, shares_line):
    """A flag sharing its line (or its plane) with the boundary flag at phi."""
    a = BoundaryPoint(phi).flag
    mid = np.array([0.0, 1.0, 0.0])  # orthogonal to both components of a
    if shares_line:
        return std_flag(a.line.coords, math.cos(psi) * a.plane.coords + math.sin(psi) * mid)
    return std_flag(math.cos(psi) * a.line.coords + math.sin(psi) * mid, a.plane.coords)


ANGLES = st.floats(0.0, 2 * math.pi)


def _fiber_rows(r_max):
    return st.builds(
        lambda r, angle, theta: fiber_over_interior(_exp_point(r, angle), theta),
        st.floats(0.0, r_max),
        ANGLES,
        ANGLES,
    )


def _batch(r_max):
    """Mixed batches: interior fibers out to distance r_max, boundary rows, generic flags."""
    row = st.one_of(
        _fiber_rows(r_max),
        st.builds(_boundary_row, st.floats(0.0, math.pi), ANGLES, st.booleans()),
        st.builds(lambda seed: random_flag(np.random.default_rng(seed)), st.integers(0, 2**32 - 1)),
    )
    return st.lists(row, min_size=1, max_size=12)


def _rows(flags):
    return np.array([f.line.coords for f in flags]), np.array([f.plane.coords for f in flags])


@settings(deadline=None, max_examples=60)
@given(flags=_batch(8.0))
def test_batched_rows_are_independent(flags):
    # each row of a mixed batch equals that row projected alone, bit for bit
    lines, planes = _rows(flags)
    batch = _project_rows(lines, planes)
    for i in range(len(flags)):
        alone = _project_rows(lines[i : i + 1], planes[i : i + 1])
        for name, column in batch._asdict().items():
            assert np.array_equal(column[..., i], getattr(alone, name)[..., 0], equal_nan=True), name


@settings(deadline=None, max_examples=60)
@given(flags=_batch(6.0))
def test_batched_projection_agrees_with_scalar_newton(flags):
    # same kind as the scalar boundary test and the 60-digit Newton;
    # sigma and boundary angles within 1e-12, plane-point entries within
    # 1e-11 of the trace
    lines, planes = _rows(flags)
    rows = _project_rows(lines, planes)
    for i in range(len(flags)):
        kind, value = _reference_project(lines[i], planes[i])
        assert rows.boundary[i] == (kind == "boundary")
        if kind == "boundary":
            assert abs(rows.phi[i] - value) <= 1e-12
        else:
            a, b, c = rows.point[:, i]
            ref = PlanePoint(*value)
            assert abs(PlanePoint(a, b, c).sigma - ref.sigma) <= 1e-12
            assert np.abs(rows.point[:, i] - np.array(value)).max() <= 1e-11 * (ref.a + ref.b)


def _near_boundary_row(phi, psi, eps, small_line):
    """A flag whose line (or plane) has middle entry eps, within eps of the boundary flag at phi.

    The other component is the incident one at angle psi from that boundary
    flag's; psi = pi/2 turns it towards [0 : 1 : 0].
    """
    c, s = math.cos(phi), math.sin(phi)
    line, covector = np.array([c, 0.0, s]), np.array([-s, 0.0, c])
    if small_line:
        line[1] = eps
        normal = np.cross(line, covector)
        covector = math.cos(psi) * covector + math.sin(psi) * normal / np.linalg.norm(normal)
    else:
        covector[1] = eps
        normal = np.cross(covector, line)
        line = math.cos(psi) * line + math.sin(psi) * normal / np.linalg.norm(normal)
    return line, covector


#: 0, or +-10^e with e anywhere in [-14, -6] and often within half a decade of BOUNDARY_TOL.
_EPS = st.one_of(
    st.just(0.0),
    st.builds(
        lambda e, sign: sign * 10.0**e,
        st.one_of(st.floats(-14.0, -6.0), st.floats(-10.5, -9.5)),
        st.sampled_from([-1.0, 1.0]),
    ),
)

NEAR_BOUNDARY_ROWS = st.builds(
    _near_boundary_row,
    ANGLES,
    st.one_of(ANGLES, st.sampled_from([0.0, math.pi / 2, math.pi])),
    _EPS,
    st.booleans(),
)


@settings(deadline=None, max_examples=300)
@given(rows=st.lists(NEAR_BOUNDARY_ROWS, min_size=1, max_size=16))
def test_boundary_test_matches_two_candidate_search(rows):
    # the closed-form test (|x1| or |y1| against the tolerance) gives the
    # hit mask and the phi bits of the two-candidate thickening search.
    # Exception: a row with |x1|, |y1| or the line candidate's plane gap
    # |y1| / hypot(x0, x2) within 1e-10 relative of BOUNDARY_TOL, where the
    # search's cross-product norms carry rounding of about 1e-16 absolute
    # (measured: up to 3.4e-11 relative) and may fall on the other side
    lines, planes = _flag_rows(*map(np.array, zip(*rows)))
    x, y = lines.T.copy(), planes.T.copy()
    hit, phi = plane._detect_boundary(x, y, plane.BOUNDARY_TOL)
    ref_hit, ref_phi = reference_detect_boundary(x, y, plane.BOUNDARY_TOL)
    gaps = np.stack([np.abs(x[1]), np.abs(y[1]), np.abs(y[1]) / np.hypot(x[0], x[2])])
    at_tol = np.any(np.abs(gaps / plane.BOUNDARY_TOL - 1.0) <= 1e-10, axis=0)
    assert np.array_equal(hit[~at_tol], ref_hit[~at_tol])
    assert np.array_equal(phi[~at_tol], ref_phi[~at_tol], equal_nan=True)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.0, 6.0), angle=ANGLES)
def test_criticality_residual_is_the_projection_gradient(seed, r, angle):
    # the residual read off the projection kernel's gradient equals the
    # scalar formula it replaced, at the identity and out to distance 6
    f = random_flag(np.random.default_rng(seed))
    x = PlanePoint.identity() if r == 0.0 else _exp_point(r, angle)
    ref = _reference_criticality_residual(f, x)
    assert abs(criticality_residual(f, x) - ref) <= 1e-14 * max(1.0, ref)


def _reference_criticality_residual(f, x):
    """The scalar criticality formula that the gradient view replaced."""
    if not x.same_as(PlanePoint.identity(), tol=0.0):
        f = pullback_flag(plane_sqrt_frame(x), f)
    xv, yv = f.line.coords, f.plane.coords
    r1 = (yv[0] ** 2 - yv[2] ** 2) - (xv[0] ** 2 - xv[2] ** 2)
    r2 = 2.0 * yv[0] * yv[2] - 2.0 * xv[0] * xv[2]
    return math.hypot(r1, r2)


def _reference_fiber_flag(x, theta):
    """The scalar fiber flag and conic value that the row forms replaced."""
    c, s = math.cos(theta), math.sin(theta)
    f = std_flag([c, 1.0, s], [-c, 1.0, -s])
    if not x.same_as(PlanePoint.identity(), tol=0.0):
        f = act_on_flag(plane_sqrt_frame(x), f)
    v = f.line.coords
    return f, float(v[0] ** 2 - v[1] ** 2 + v[2] ** 2)


@settings(deadline=None, max_examples=60)
@given(r=st.sampled_from([0.0, 0.3, 6.0]), angle=ANGLES, thetas=st.lists(ANGLES, min_size=1, max_size=8))
def test_fiber_and_conic_rows_match_scalar_forms(r, angle, thetas):
    # the rows the fiber command writes equal the scalar flags and conic
    # values, bit for bit, at the identity and away from it
    x = PlanePoint.identity() if r == 0.0 else _exp_point(r, angle)
    lines, planes = plane._fiber_rows(x, np.array(thetas))
    values = plane._conic_rows(lines)
    for i, theta in enumerate(thetas):
        ref, value = _reference_fiber_flag(x, theta)
        assert np.array_equal(lines[i], ref.line.coords) and np.array_equal(planes[i], ref.plane.coords)
        assert values[i] == value == conic_eval(ref.line)


@settings(deadline=None, max_examples=100)
@given(r=st.floats(0.0, 6.0), angle=ANGLES, theta=ANGLES)
def test_fiber_round_trip_far_out(r, angle, theta):
    # plane points out to |sigma| = 6 (distance 6 from the identity)
    x = _exp_point(r, angle)
    pr = project(fiber_over_interior(x, theta))
    assert isinstance(pr, PlanePoint)
    assert abs(pr.sigma - x.sigma) <= 1e-9
    assert np.abs(pr.mat - x.mat).max() <= 1e-9 * (x.a + x.b)


def test_fiber_over_far_points():
    # the square-root frame keeps its unit determinant out to distance 10
    for r in (7.0, 8.5, 10.0):
        for angle in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            x = _exp_point(r, angle)
            pr = project(fiber_over_interior(x, 0.3))
            assert abs(pr.sigma - x.sigma) <= 1e-9


# --- the reference projection ------------------------------------------------


def _reference_project(xv, yv, boundary_tol=1e-10):
    """('boundary', phi) by the scalar boundary test, else ('interior', (a, b, c)) by the 60-digit Newton."""
    f = std_flag(xv, yv)
    for phi in _reference_candidates(xv, yv, boundary_tol):
        a = BoundaryPoint(phi)
        if boundary_fiber_contains(a, f):
            return "boundary", a.phi
    return "interior", tuple(float(v) for v in reference_projection(xv, yv))


def _reference_candidates(x, y, tol):
    if math.hypot(x[0], x[2]) > tol:
        yield math.atan2(x[2], x[0])
    if math.hypot(y[0], y[2]) > tol:
        yield math.atan2(-y[0], y[2])
