import math
import warnings

import numpy as np
import pytest

from flagcones.flags import GeometryError, gap_vector
from flagcones.reps import (
    GENERATOR_NAMES,
    NonHyperbolicError,
    OCTAGON_HALF_LENGTH,
    RELATION_WORD,
    SurfaceGroupPresentation,
    attracting_flag,
    barbot_twist,
    conic_position_check,
    cyclic_reduce,
    flow_nesting_certify,
    gap_scan,
    iota_irr,
    iota_red,
    irreducible_representation,
    is_cyclically_reduced,
    limit_flag_sample,
    octagon_fuchsian,
    random_reduced_word,
    reduce_word,
    reducible_representation,
)

FUCHSIAN = octagon_fuchsian()
RED = reducible_representation(FUCHSIAN)
IRR = irreducible_representation(FUCHSIAN)


def test_octagon_traces_and_length():
    target = 2 * (1 + math.sqrt(2))
    for m in FUCHSIAN:
        assert np.trace(m) == pytest.approx(target, abs=1e-9)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)
    assert 2 * OCTAGON_HALF_LENGTH == pytest.approx(3.05714, abs=1e-4)


def test_octagon_relation_residual():
    assert RED.relation_residual() <= 1e-9
    assert IRR.relation_residual() <= 1e-9


def test_presentation_shape():
    pres = SurfaceGroupPresentation()
    assert pres.genus == 2
    assert pres.generators == GENERATOR_NAMES
    assert reduce_word(pres.relation) == RELATION_WORD


def test_iota_red_examples():
    mu = 1.7
    out = iota_red(np.diag([mu, 1 / mu]))
    assert np.allclose(out.mat, np.diag([mu, 1 / mu, 1.0]))
    assert np.allclose(iota_red(np.eye(2)).mat, np.eye(3))


def _random_sl2(rng):
    while True:
        a = rng.normal(size=(2, 2))
        det = np.linalg.det(a)
        if det > 0.05:
            return a / math.sqrt(det)


def test_iota_red_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = _random_sl2(rng), _random_sl2(rng)
        lhs = iota_red(a @ b).mat
        rhs = iota_red(a).mat @ iota_red(b).mat
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_iota_irr_examples():
    mu = 1.3
    out = iota_irr(np.diag([mu, 1 / mu]))
    assert np.allclose(out.mat, np.diag([mu**2, 1.0, mu**-2]))
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = _random_sl2(rng), _random_sl2(rng)
        lhs = iota_irr(a @ b).mat
        rhs = iota_irr(a).mat @ iota_irr(b).mat
        assert np.abs(lhs - rhs).max() <= 1e-11 * max(1.0, np.abs(lhs).max())


def test_iota_irr_gap_doubling():
    for m in FUCHSIAN:
        lg_red = gap_vector(iota_red(m)).lg12
        lg_irr = gap_vector(iota_irr(m)).lg12
        assert lg_irr == pytest.approx(2 * lg_red, rel=1e-9)


def test_barbot_twist_examples():
    rep0 = barbot_twist(FUCHSIAN, (0.0, 0.0, 0.0, 0.0))
    for name in GENERATOR_NAMES:
        assert np.allclose(rep0.images[name].mat, RED.images[name].mat, atol=1e-14)
    rep1 = barbot_twist(FUCHSIAN, (1.0, 0.0, 0.0, 0.0))
    logs = np.sort(np.log(np.abs(np.linalg.eigvals(rep1.evaluate((1,))))))
    expected = np.sort([1 + OCTAGON_HALF_LENGTH, 1 - OCTAGON_HALF_LENGTH, -2.0])
    assert np.abs(logs - expected).max() <= 1e-9


def test_barbot_twist_relation_automatic():
    rng = np.random.default_rng(2)
    for _ in range(5):
        chi = rng.normal(size=4)
        rep = barbot_twist(FUCHSIAN, chi)
        assert rep.relation_residual() <= 1e-9
        assert rep.family == "barbot-twist"


def test_word_utilities():
    assert reduce_word((1, 2, -2, -1, 3)) == (3,)
    assert reduce_word(()) == ()
    assert is_cyclically_reduced((1, 2)) and not is_cyclically_reduced((1, 2, -1))
    assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = random_reduced_word(rng, 6)
        assert reduce_word(w) == w


def test_gap_scan_length_one_values():
    scan = gap_scan(RED, 2)
    assert scan.rows[0]["min_lg12"] == pytest.approx(OCTAGON_HALF_LENGTH, abs=1e-4)
    scan_irr = gap_scan(IRR, 1)
    assert scan_irr.rows[0]["min_lg12"] == pytest.approx(2 * OCTAGON_HALF_LENGTH, abs=1e-4)


def test_gap_scan_counts_and_fit():
    scan = gap_scan(RED, 5)
    assert [r["count"] for r in scan.rows] == [8, 56, 392, 2744, 19208]
    # regression floor for the shipped generators; the acceptance suite
    # asserts the full criterion value
    assert scan.slope_a > 0.19
    assert not scan.partial
    assert all(r["min_sg12"] >= 0 for r in scan.rows)
    assert all(r["min_sg12"] >= scan.rows[0]["min_sg12"] - 1e-9 for r in scan.rows)


def test_gap_scan_sampling_beyond_exhaustive():
    scan = gap_scan(RED, 7, sample_budget=400, seed=5)
    assert scan.rows[5]["length"] == 6 and scan.rows[5]["count"] == 200
    assert scan.rows[6]["length"] == 7
    scan_partial = gap_scan(RED, 7, sample_budget=1, seed=5)
    assert scan_partial.partial
    with pytest.raises(GeometryError):
        gap_scan(RED, 3, exhaustive_len=-1)


def test_gap_scan_rejects_overflowing_products():
    # plain float products of the irreducible family overflow near length 260
    with pytest.raises(GeometryError, match="length"):
        gap_scan(IRR, 400, sample_budget=400)


def test_evaluate_identity_and_invalid_letter():
    assert np.array_equal(RED.evaluate(()), np.eye(3))
    for bad in (0, 5, -5):
        with pytest.raises(GeometryError):
            RED.evaluate((1, bad))


def test_long_word_overflow_is_a_geometry_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="length 600"):
            limit_flag_sample(RED, (1,) * 600)


def test_gap_scan_inverse_identity():
    # exact at 1e-12 wherever the float SVD can resolve it (condition
    # number times machine epsilon below the tolerance); scale-aware above
    rng = np.random.default_rng(4)
    for _ in range(40):
        w = random_reduced_word(rng, int(rng.integers(1, 6)))
        gv = gap_vector(RED.evaluate(w))
        gvi = gap_vector(RED.evaluate(tuple(-l for l in reversed(w))))
        kappa = math.exp(gv.sg12 + gv.sg23)
        assert abs(gv.sg12 - gvi.sg23) <= max(1e-12, 20 * kappa * 2.3e-16)


def test_gap_scan_csv_and_json():
    scan = gap_scan(RED, 3)
    lines = list(scan.csv_lines())
    assert lines[0] == "length,count,min_sg12,med_sg12,min_sg23,min_lg12"
    assert len(lines) == 4
    payload = scan.to_json()
    assert payload["family"] == "reducible-fuchsian"
    assert payload["A"] == scan.slope_a


def test_barbot_large_twist_reported():
    scan0 = gap_scan(RED, 3)
    scan1 = gap_scan(barbot_twist(FUCHSIAN, (2.0, -2.0, 2.0, -2.0)), 3)
    # qualitative report: the twisted family's smallest eigenvalue gaps at
    # short lengths do not exceed the untwisted ones
    assert scan1.rows[2]["min_lg12"] <= scan0.rows[2]["min_lg12"] + 1e-9


def test_limit_flag_sample_block_structure():
    f = limit_flag_sample(RED, (1,))
    # attracting line of the block embedding lies in the first two coords
    assert abs(f.line.coords[2]) <= 1e-12
    m = RED.evaluate((1,))
    image_dir = m @ f.line.coords
    assert np.abs(np.cross(image_dir, f.line.coords)).max() <= 1e-9


def test_limit_flag_sample_equivariance():
    rng = np.random.default_rng(5)
    from flagcones.flags import GroupElem

    for _ in range(10):
        w = random_reduced_word(rng, int(rng.integers(1, 5)))
        conj = random_reduced_word(rng, 2)
        f1 = limit_flag_sample(RED, conj + w + tuple(-l for l in reversed(conj)))
        g = GroupElem(RED.evaluate(conj))
        f2 = f1  # computed flag
        expected_line = g.mat @ limit_flag_sample(RED, w).line.coords
        assert np.abs(np.cross(f2.line.coords, expected_line / np.linalg.norm(expected_line))).max() <= 1e-8


def test_limit_flag_sample_gap_positive():
    rng = np.random.default_rng(6)
    for _ in range(20):
        w = random_reduced_word(rng, int(rng.integers(1, 6)))
        f = limit_flag_sample(RED, w)
        assert abs(np.dot(f.line.coords, f.plane.coords)) <= 1e-10
        assert gap_vector(RED.evaluate(w)).lg12 > 0


def test_limit_flag_sample_rejects_identity():
    with pytest.raises(NonHyperbolicError):
        limit_flag_sample(RED, ())
    with pytest.raises(NonHyperbolicError):
        attracting_flag(np.eye(3))


def test_conic_position_check():
    report = conic_position_check(RED, n_samples=300, seed=0)
    assert report["lines_outside"] == 300
    assert report["planes_meet_interior"] == 300
    assert report["min_line_margin"] > 0
    assert report["min_plane_margin"] > 0


def test_conic_position_single_generators():
    # each generator's attracting line sits strictly outside the conic
    # after moving to the model-plane coordinates
    from flagcones.plane import conic_eval
    from flagcones.reps import attracting_flag, _SWAP_23

    for letter in (1, 2, 3, 4, -1, -2, -3, -4):
        m = RED.letter_matrix(letter)
        f = attracting_flag(_SWAP_23 @ m @ _SWAP_23)
        assert conic_eval(f.line) > 0.1


def test_conic_position_check_rejects_other_families():
    with pytest.raises(GeometryError):
        conic_position_check(IRR, n_samples=10)
    with pytest.raises(GeometryError):
        conic_position_check(barbot_twist(FUCHSIAN, (0.5, 0, 0, 0)), n_samples=10)
    with pytest.raises(GeometryError):
        conic_position_check(RED, n_samples=0)
    # zero twist is the reducible family
    report = conic_position_check(barbot_twist(FUCHSIAN, (0.0, 0, 0, 0)), n_samples=20, seed=1)
    assert report["lines_outside"] == 20


def test_flow_nesting_certify():
    report = flow_nesting_certify(0.0, (0.1, 0.5, 1.0, 2.0), 400)
    assert report["all_nested"]
    estimates = [r["estimate"] for r in report["results"]]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    for r in report["results"]:
        assert r["estimate"] == pytest.approx(r["t"] / 2, rel=0.05)


def test_flow_nesting_zero_time_not_nested():
    report = flow_nesting_certify(0.3, (0.0,), 256)
    assert not report["results"][0]["nested"]
    assert report["results"][0]["estimate"] is None


@pytest.mark.parametrize("n", [0, -5])
def test_flow_nesting_rejects_too_few_samples(n):
    with pytest.raises(GeometryError):
        flow_nesting_certify(0.0, (0.5,), n)


def test_flow_nesting_other_angle():
    report = flow_nesting_certify(1.0, (0.5,), 256)
    assert report["all_nested"]
    assert report["results"][0]["estimate"] == pytest.approx(0.25, rel=0.05)
