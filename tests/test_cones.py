import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from flagcones.flags import (
    Flag,
    GeometryError,
    GroupElem,
    ProjectiveCovector,
    ProjectivePoint,
    act_on_flag,
    gap_vector,
    is_transverse,
    random_flag,
    random_group_elem,
    thickening_contains,
)
from flagcones.cones import (
    BOUNDARY,
    DEFAULT_TOL,
    INSIDE,
    Multicone,
    OUTSIDE,
    _chart_rows,
    _classify_position,
    _positions,
    boundary_chart,
    contains_flag,
    endpoint_flags,
    is_nested,
    limit_flag,
    nest_estimate,
    side_flags,
)
from flagcones.flags import SpdPoint, busemann
from flagcones.plane import AXIS_DIRECTION, PlanePoint, embedded_rotation, fiber_over_interior, plane_sqrt_frame


def std_flag(x, y):
    return Flag(ProjectivePoint(x), ProjectiveCovector(y))


MODEL = Multicone.model(0.0)
CHART_REFERENCE = Multicone.model(math.pi / 2)


def test_endpoint_flags_model():
    fwd, bwd = endpoint_flags(MODEL)
    assert fwd.same_as(std_flag([0, 0, 1], [1, 0, 0]), tol=1e-12)
    assert bwd.same_as(std_flag([1, 0, 0], [0, 0, 1]), tol=1e-12)
    assert is_transverse(fwd, bwd)


def test_endpoint_flags_divergence_convention():
    # the forward flag is the one whose horofunction diverges to -inf
    # along the positive axis ray
    fwd, bwd = endpoint_flags(MODEL)
    origin = SpdPoint.identity()
    for s in (1.0, 2.0):
        x = SpdPoint(np.diag([math.exp(s), 1.0, math.exp(-s)]))
        assert busemann(fwd, origin, x) < -s
        assert busemann(bwd, origin, x) > s


def test_reversed_axis_swaps_endpoints():
    fwd, bwd = endpoint_flags(MODEL)
    rfwd, rbwd = endpoint_flags(MODEL.reversed_axis())
    assert rfwd.same_as(bwd) and rbwd.same_as(fwd)


def test_contains_flag_examples():
    fwd, bwd = endpoint_flags(MODEL)
    assert contains_flag(MODEL, fwd) == INSIDE
    assert contains_flag(MODEL, bwd) == OUTSIDE
    assert contains_flag(MODEL, std_flag([1, 1, 0], [-1, 1, 0])) == BOUNDARY


def test_boundary_chart_display_examples():
    # displayed coordinates are exact for the chart's reference cone
    f = boundary_chart(CHART_REFERENCE, 0.0, 1.0)
    assert f.same_as(std_flag([1, 1, 0], [-1, 1, 0]), tol=1e-12)
    f = boundary_chart(CHART_REFERENCE, math.pi / 2, 2.0)
    assert f.same_as(std_flag([0, 1, 0.5], [0, 1, -2.0]), tol=1e-12)
    assert abs(np.dot(f.line.coords, f.plane.coords)) <= 1e-15


def test_boundary_chart_rejects_bad_lambda():
    with pytest.raises(GeometryError):
        boundary_chart(MODEL, 0.3, 0.0)
    with pytest.raises(GeometryError):
        boundary_chart(MODEL, 0.3, -2.0)


@pytest.mark.parametrize("cone", [MODEL, CHART_REFERENCE, Multicone.model(1.1)])
def test_boundary_chart_classifies_boundary(cone):
    for ll in np.linspace(-6, 6, 8):
        for th in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            f = boundary_chart(cone, float(th), math.exp(float(ll)))
            assert contains_flag(cone, f) == BOUNDARY


def test_graph_charts_match_boundary_chart():
    # the two graph parametrizations of the boundary cylinder near its
    # wedge circles agree with the chart on the overlap (one published
    # x3-component sign is corrected here so the flags are incident)
    def chart_a(x2, y3):
        den = 1.0 + x2 * x2 * y3 * y3
        return std_flag([1.0, x2, -(x2**3) * y3 / den], [-x2 / den, 1.0, y3])

    def chart_b(x2, y2):
        den = x2 * x2 + y2 * y2
        return std_flag([1.0, x2, -(x2**3) * y2 / den], [-(y2**3) * x2 / den, y2, 1.0])

    for th in np.linspace(0.1, 2 * math.pi, 17):
        if abs(math.cos(th)) < 0.2 or abs(math.sin(th)) < 0.2:
            continue
        for ll in (-1.5, -0.3, 0.4, 1.2):
            lam = math.exp(ll)
            f = boundary_chart(CHART_REFERENCE, th, lam)
            x2 = 1.0 / (lam * math.cos(th))
            y3 = -lam * math.sin(th)
            assert chart_a(x2, y3).same_as(f, tol=1e-8)
            y2 = -1.0 / (lam * math.sin(th))
            assert chart_b(x2, y2).same_as(f, tol=1e-8)


def test_is_nested_examples():
    inner = MODEL.translated_along_axis(1.0)
    assert is_nested(MODEL, inner, 400)
    assert not is_nested(MODEL, MODEL, 400)
    assert not is_nested(MODEL, MODEL.reversed_axis(), 400)


def test_is_nested_rejects_reversed_translate():
    # same boundary position but opposite half-plane: the interior witness
    # (forward endpoint flag) lands outside
    inner = MODEL.translated_along_axis(1.0).reversed_axis()
    assert not is_nested(MODEL, inner, 400)


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_nest_estimate_translates(s):
    inner = MODEL.translated_along_axis(s)
    est = nest_estimate(MODEL, inner, 400)
    assert est.lower == pytest.approx(s / 2, rel=0.05)
    assert est.lower >= 0
    assert est.fplus.same_as(endpoint_flags(inner)[0])
    assert est.fminus.same_as(endpoint_flags(MODEL)[1])


def test_nest_estimate_requires_nesting():
    with pytest.raises(GeometryError):
        nest_estimate(MODEL, MODEL, 256)


def test_nest_estimate_monotone_in_s():
    values = [
        nest_estimate(MODEL, MODEL.translated_along_axis(s), 256).lower
        for s in (0.5, 1.0, 1.5, 2.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_nest_superadditivity_on_translates():
    u1 = MODEL
    u2 = MODEL.translated_along_axis(0.8)
    u3 = MODEL.translated_along_axis(2.1)
    e13 = nest_estimate(u1, u3, 400).lower
    e12 = nest_estimate(u1, u2, 400).lower
    e23 = nest_estimate(u2, u3, 400).lower
    assert e13 >= e12 + e23 - 0.05


def test_limit_flag_translates():
    cones = [MODEL.translated_along_axis(float(n)) for n in range(4)]
    f = limit_flag(cones, 256)
    assert f.same_as(endpoint_flags(MODEL)[0], tol=1e-10)


def test_limit_flag_rejects_constant_sequence():
    with pytest.raises(GeometryError):
        limit_flag([MODEL, MODEL, MODEL], 256)


def test_limit_flag_hyperbolic_element():
    # cones pushed by iterates of a conjugated axis transvection converge
    # to the conjugate of the forward endpoint flag
    rng = np.random.default_rng(0)
    h = random_group_elem(rng, scale=0.4)
    g = GroupElem(h.mat @ scipy.linalg.expm(0.75 * np.diag([1.0, 0.0, -1.0])) @ np.linalg.inv(h.mat))
    base = MODEL.transformed(h)
    cones = [base]
    for n in range(1, 4):
        cones.append(cones[-1].transformed(g))
    f = limit_flag(cones, 256)
    expected = act_on_flag(h, endpoint_flags(MODEL)[0])
    assert f.same_as(expected, tol=1e-8)
    gv = gap_vector(g)
    assert gv.lg12 >= 0 and gv.lg23 >= 0


def test_membership_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(4):
        g = random_group_elem(rng, scale=0.5)
        moved = MODEL.transformed(g)
        agree = 0
        total = 0
        for _ in range(250):
            f = random_flag(rng)
            try:
                c1 = contains_flag(moved, act_on_flag(g, f))
                c2 = contains_flag(MODEL, f)
            except Exception:
                continue
            total += 1
            agree += c1 == c2
        assert total > 200
        assert agree == total


def test_multicone_property_thickenings():
    rng = np.random.default_rng(2)
    fwd, bwd = endpoint_flags(MODEL)
    inside_count = 0
    outside_count = 0
    for _ in range(1100):
        if rng.random() < 0.5:
            y = rng.normal(size=3)
            y -= np.dot(y, fwd.line.coords) * fwd.line.coords
            if np.linalg.norm(y) < 1e-6:
                continue
            probe_in = Flag(fwd.line, ProjectiveCovector(y))
            x = rng.normal(size=3)
            x -= np.dot(x, bwd.plane.coords) * bwd.plane.coords
            if np.linalg.norm(x) < 1e-6:
                continue
            probe_out = Flag(ProjectivePoint(x), bwd.plane)
        else:
            x = rng.normal(size=3)
            x -= np.dot(x, fwd.plane.coords) * fwd.plane.coords
            if np.linalg.norm(x) < 1e-6:
                continue
            probe_in = Flag(ProjectivePoint(x), fwd.plane)
            y = rng.normal(size=3)
            y -= np.dot(y, bwd.line.coords) * bwd.line.coords
            if np.linalg.norm(y) < 1e-6:
                continue
            probe_out = Flag(bwd.line, ProjectiveCovector(y))
        assert thickening_contains(fwd, probe_in)
        assert contains_flag(MODEL, probe_in) == INSIDE
        inside_count += 1
        assert thickening_contains(bwd, probe_out)
        assert contains_flag(MODEL, probe_out) == OUTSIDE
        outside_count += 1
    assert inside_count >= 1000 and outside_count >= 1000


def test_side_flags_on_boundary():
    for f in side_flags(MODEL):
        assert contains_flag(MODEL, f) == BOUNDARY


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
def test_membership_rejects_invalid_tol(tol):
    # a negative tolerance would count this outside flag (sigma = -0.5) inside
    f = fiber_over_interior(PlanePoint(math.exp(-0.5), math.exp(0.5), 0.0), 0.4)
    assert contains_flag(MODEL, f) == OUTSIDE
    inner = MODEL.translated_along_axis(1.0)
    with pytest.raises(GeometryError):
        contains_flag(MODEL, f, tol)
    with pytest.raises(GeometryError):
        is_nested(MODEL, inner, 64, tol)
    with pytest.raises(GeometryError):
        nest_estimate(MODEL, inner, 64, tol)
    with pytest.raises(GeometryError):
        limit_flag([MODEL, inner, MODEL.translated_along_axis(2.0)], 64, tol)


def test_multicone_takes_a_group_element():
    with pytest.raises(GeometryError):
        Multicone(np.eye(3))


# --- the three-input recomposition the canonical frame replaced, kept as the reference


def _reference_total(frame, axis_angle):
    """frame . sqrt(base) . rot(axis_angle / 2), with the base at the identity."""
    g = frame @ plane_sqrt_frame(PlanePoint.identity()).mat
    return g @ embedded_rotation(axis_angle / 2.0).mat


def _same_bits(a, b):
    return np.array_equal(a + 0.0, b + 0.0)  # + 0.0 identifies -0.0 with 0.0


_CONE_MOVES = st.lists(
    st.one_of(
        st.tuples(st.just("transformed"), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("translated"), st.floats(-3.0, 3.0)),
    ),
    max_size=3,
)


@settings(deadline=None, max_examples=40)
@given(angle=st.floats(-2 * math.pi, 2 * math.pi), moves=_CONE_MOVES)
def test_canonical_frame_matches_three_input_recomposition(angle, moves):
    # model, transformed and translated_along_axis give the reference total
    # bit for bit; reversed_axis composes rot(pi/2) instead of adding pi to
    # the angle, so it agrees to rounding
    cone = Multicone.model(angle)
    frame, axis_angle = np.eye(3), angle
    assert _same_bits(cone.total.mat, _reference_total(frame, axis_angle))
    for move, arg in moves:
        total = _reference_total(frame, axis_angle)
        if move == "transformed":
            g = random_group_elem(np.random.default_rng(arg))
            cone, frame = cone.transformed(g), g.mat @ total
        else:
            cone, frame = cone.translated_along_axis(arg), total @ scipy.linalg.expm(0.5 * arg * AXIS_DIRECTION)
        axis_angle = 0.0
        assert _same_bits(cone.total.mat, _reference_total(frame, axis_angle))
    reversed_ref = _reference_total(frame, axis_angle + math.pi)
    scale = max(1.0, float(np.abs(reversed_ref).max()))
    assert np.abs(cone.reversed_axis().total.mat - reversed_ref).max() <= 1e-12 * scale

    # reversing twice gives the same cone: 200 probes on the boundaries of
    # the translates by +-0.5 (inside and outside) classify exactly alike
    twice = cone.reversed_axis().reversed_axis()
    theta, loglam = np.meshgrid(np.linspace(0, 2 * math.pi, 10, endpoint=False), np.linspace(-2, 2, 10))
    rows = [_chart_rows(cone.translated_along_axis(s), theta.ravel(), np.exp(loglam.ravel())) for s in (0.5, -0.5)]
    lines, planes = np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])
    expected = _classify_position(*_positions(cone, lines, planes), DEFAULT_TOL)
    assert expected.tolist() == [INSIDE] * 100 + [OUTSIDE] * 100
    assert np.array_equal(_classify_position(*_positions(twice, lines, planes), DEFAULT_TOL), expected)
