import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.flags import (
    Flag,
    ProjectiveCovector,
    ProjectivePoint,
    act_on_flag,
    random_flag,
    random_group_elem,
)
from flagcones.plane import (
    CONVERGED,
    BoundaryPoint,
    PlanePoint,
    ProjectionError,
    _project_rows,
    boundary_fiber_contains,
    conic_eval,
    criticality_residual,
    dual_conic_eval,
    fiber_over_interior,
    plane_geodesic_point,
    project,
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
            assert abs(dual_conic_eval(f.plane)) <= 1e-14


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


def test_project_failure_reports_iterations_and_gradient():
    # a far-out fiber flag needs several Newton iterations
    x = _exp_point(7.0, 0.4)
    f = fiber_over_interior(x, 1.3)
    with pytest.raises(ProjectionError) as err:
        project(f, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.grad_norm > 1e-10
    rows = _project_rows(f.line.coords[None], f.plane.coords[None], max_iter=2)
    assert rows.status[0] != CONVERGED and np.isnan(rows.point[:, 0]).all()


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
@given(flags=_batch(8.0), max_iter=st.sampled_from([3, 100]))
def test_batched_rows_are_independent(flags, max_iter):
    # each row of a batch (with rows still iterating, frozen or failed)
    # equals that row projected alone, bit for bit
    lines, planes = _rows(flags)
    batch = _project_rows(lines, planes, max_iter=max_iter)
    for i in range(len(flags)):
        alone = _project_rows(lines[i : i + 1], planes[i : i + 1], max_iter=max_iter)
        for name, column in batch._asdict().items():
            assert np.array_equal(column[..., i], getattr(alone, name)[..., 0], equal_nan=True), name


@settings(deadline=None, max_examples=60)
@given(flags=_batch(6.0))
def test_batched_projection_agrees_with_scalar_newton(flags):
    # same kind as the scalar Newton it replaced; sigma and boundary angles
    # within 1e-12, plane-point entries within 1e-11 of the trace (the
    # stopping test at gradient 1e-10 fixes them no closer)
    lines, planes = _rows(flags)
    rows = _project_rows(lines, planes)
    rows.raise_first_failure()
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


# --- the scalar Newton the batched kernel replaced, kept as the reference ----


def _reference_project(xv, yv, grad_tol=1e-10, max_iter=100, boundary_tol=1e-10):
    """('boundary', phi) or ('interior', (a, b, c)) for one flag in the model frame."""
    f = std_flag(xv, yv)
    for phi in _reference_candidates(xv, yv, boundary_tol):
        a = BoundaryPoint(phi)
        if boundary_fiber_contains(a, f):
            return "boundary", a.phi
    xv, yv = np.array(xv), np.array(yv)
    carrier = np.eye(2)
    for it in range(max_iter):
        grad, hess = _reference_grad_hess(xv, yv)
        gnorm = float(np.abs(grad).max())
        if gnorm <= grad_tol:
            break
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        step = -np.linalg.solve(hess, grad) if hess[0, 0] > 0 and det > 0 else -grad
        slope = float(np.dot(grad, step))
        if slope >= 0:
            step = -grad
            slope = -float(np.dot(grad, grad))
        norm = float(np.hypot(step[0], step[1]))
        if norm > 8.0:
            step = step * (8.0 / norm)
            slope *= 8.0 / norm
        t = 1.0
        if gnorm > 1e-6:
            for _ in range(60):
                if _reference_move_value(xv, yv, t * step[0], t * step[1]) <= 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                raise ProjectionError("line search failed", iterations=it, grad_norm=gnorm)
        half = _reference_half_step(t * step[0], t * step[1])
        carrier = carrier @ half
        x13 = half @ np.array([xv[0], xv[2]])
        y13 = np.linalg.inv(half) @ np.array([yv[0], yv[2]])
        xv = np.array([x13[0], xv[1], x13[1]])
        yv = np.array([y13[0], yv[1], y13[1]])
        xv /= np.linalg.norm(xv)
        yv /= np.linalg.norm(yv)
    else:
        raise ProjectionError("no convergence", iterations=max_iter, grad_norm=gnorm)
    p2 = carrier @ carrier.T
    return "interior", (float(p2[0, 0]), float(p2[1, 1]), float(p2[0, 1]))


def _reference_candidates(x, y, tol):
    if math.hypot(x[0], x[2]) > tol:
        yield math.atan2(x[2], x[0])
    if math.hypot(y[0], y[2]) > tol:
        yield math.atan2(-y[0], y[2])


def _reference_grad_hess(xv, yv):
    nx = xv[0] ** 2 + xv[1] ** 2 + xv[2] ** 2
    ny = yv[0] ** 2 + yv[1] ** 2 + yv[2] ** 2
    x1 = (xv[0] ** 2 - xv[2] ** 2) / nx
    x2 = 2.0 * xv[0] * xv[2] / nx
    y1 = (yv[0] ** 2 - yv[2] ** 2) / ny
    y2 = 2.0 * yv[0] * yv[2] / ny
    xq = (xv[0] ** 2 + xv[2] ** 2) / nx
    yq = (yv[0] ** 2 + yv[2] ** 2) / ny
    grad = np.array([x1 - y1, x2 - y2])
    off = -x1 * x2 - y1 * y2
    hess = np.array([[xq - x1 * x1 + yq - y1 * y1, off], [off, xq - x2 * x2 + yq - y2 * y2]])
    return grad, hess


def _reference_move_value(xv, yv, s1, s2):
    r = math.hypot(s1, s2)
    if r > 700.0:
        return math.inf
    ch = math.cosh(r)
    shr = math.sinh(r) / r if r > 1e-150 else 1.0
    qx = (ch + shr * s1) * xv[0] ** 2 + xv[1] ** 2 + (ch - shr * s1) * xv[2] ** 2 + 2.0 * shr * s2 * xv[0] * xv[2]
    qy = (ch - shr * s1) * yv[0] ** 2 + yv[1] ** 2 + (ch + shr * s1) * yv[2] ** 2 - 2.0 * shr * s2 * yv[0] * yv[2]
    if qx <= 0 or qy <= 0:
        return math.inf
    nx = xv[0] ** 2 + xv[1] ** 2 + xv[2] ** 2
    ny = yv[0] ** 2 + yv[1] ** 2 + yv[2] ** 2
    return math.log(qx / nx) + math.log(qy / ny)


def _reference_half_step(s1, s2):
    r = 0.5 * math.hypot(s1, s2)
    ch = math.cosh(r)
    shr = 0.5 * math.sinh(r) / r if r > 1e-150 else 0.5
    return np.array([[ch + shr * s1, shr * s2], [shr * s2, ch - shr * s1]])
