import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.flags import Flag, GeometryError, ProjectiveCovector, ProjectivePoint, gap_vector
from flagcones.plane import conic_eval
from flagcones.reps import (
    CONIC_REJECTS_PER_SAMPLE,
    GENERATOR_NAMES,
    HYPERBOLIC,
    NOT_SEPARATED,
    NonHyperbolicError,
    OCTAGON_HALF_LENGTH,
    RELATION_WORD,
    _attracting_rows,
    attracting_flag,
    barbot_twist,
    conic_position_check,
    flow_nesting_certify,
    gap_scan,
    iota_irr,
    iota_red,
    irreducible_representation,
    limit_flag_sample,
    octagon_fuchsian,
    random_reduced_word,
    reduce_word,
    reducible_representation,
)
from support import cyclic_reduce, is_cyclically_reduced, random_group_elem

FUCHSIAN = octagon_fuchsian()
RED = reducible_representation(FUCHSIAN)
IRR = irreducible_representation(FUCHSIAN)

#: Swap of the second and third coordinates: model-plane coordinates of the reducible family.
SWAP_23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _reference_attracting_flag(mat) -> Flag:
    """The scalar extraction that ``_attracting_rows`` replaced: one eig and one inv per matrix."""
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    m1, m2, m3 = np.abs(vals)
    if not (m1 > (1.0 + 1e-9) * m2 and m2 > (1.0 + 1e-9) * m3):
        raise NonHyperbolicError("eigenvalue moduli are not strictly separated")
    left = np.linalg.inv(vecs)[2, :]
    line = vecs[:, 0]
    if max(float(np.abs(line.imag).max()), float(np.abs(left.imag).max())) > 1e-9:
        raise NonHyperbolicError("dominant eigendata is not real")
    return Flag(ProjectivePoint(line.real), ProjectiveCovector(left.real))


def _reference_conic_position_check(rep, n_samples, seed):
    """The per-sample loop that the batched ``conic_position_check`` replaced."""
    rng = np.random.default_rng(seed)
    lines_outside = planes_meet = collected = 0
    min_line_margin = min_plane_margin = math.inf
    rejected = {"eigenvalue moduli are not strictly separated": 0, "dominant eigendata is not real": 0}
    while collected < n_samples:
        w = random_reduced_word(rng, int(rng.integers(1, 7)))
        try:
            f = _reference_attracting_flag(SWAP_23 @ rep.evaluate(w) @ SWAP_23)
        except NonHyperbolicError as exc:
            rejected[str(exc)] += 1
            continue
        collected += 1
        cv = conic_eval(f.line)
        dv = conic_eval(f.plane)
        lines_outside += cv > 0
        planes_meet += dv > 0
        min_line_margin = min(min_line_margin, cv)
        min_plane_margin = min(min_plane_margin, dv)
    return {
        "samples": n_samples,
        "lines_outside": lines_outside,
        "planes_meet_interior": planes_meet,
        "min_line_margin": min_line_margin,
        "min_plane_margin": min_plane_margin,
        "seed": seed,
        "rejected_not_separated": rejected["eigenvalue moduli are not strictly separated"],
        "rejected_not_real": rejected["dominant eigendata is not real"],
    }


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
    assert reduce_word(RELATION_WORD) == RELATION_WORD


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


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 42])
@pytest.mark.parametrize("n", [1, 20, 300])
def test_conic_position_check_matches_scalar_loop(seed, n):
    # same words, same flags, same report as the per-sample loop, bit for bit
    batched = conic_position_check(RED, n_samples=n, seed=seed)
    assert json.dumps(batched) == json.dumps(_reference_conic_position_check(RED, n, seed))


def test_conic_position_check_zero_twist_matches_scalar_loop():
    rep = barbot_twist(FUCHSIAN, (0.0, 0.0, 0.0, 0.0))
    batched = conic_position_check(rep, n_samples=50, seed=9)
    assert json.dumps(batched) == json.dumps(_reference_conic_position_check(rep, 50, 9))


def test_conic_position_check_counts_rejected_draws():
    # a1 elliptic, b1 trivial, a2 = b2 hyperbolic: the relation holds, and
    # every word in a1 and b1 alone has all eigenvalue moduli 1
    c, s = math.cos(0.7), math.sin(0.7)
    hyp = np.diag([2.0, 0.5])
    rep = reducible_representation((np.array([[c, -s], [s, c]]), np.eye(2), hyp, hyp))
    report = conic_position_check(rep, n_samples=40, seed=5)
    assert report["rejected_not_separated"] > 0
    assert report["rejected_not_real"] == 0
    assert json.dumps(report) == json.dumps(_reference_conic_position_check(rep, 40, 5))
    # every reduced word up to length 6 is hyperbolic for the octagon group
    report = conic_position_check(RED, n_samples=300, seed=0)
    assert report["rejected_not_separated"] == report["rejected_not_real"] == 0


def test_conic_position_check_gives_up_without_hyperbolic_words():
    # no word of the trivial representation has an attracting flag: every
    # round of 5 draws is rejected, and the check raises after the round
    # that takes the rejections past the cap instead of drawing forever
    rep = reducible_representation((np.eye(2),) * 4)
    rejected = 5 * (CONIC_REJECTS_PER_SAMPLE + 1)
    with pytest.raises(NonHyperbolicError, match=f"rejected_not_separated={rejected}, rejected_not_real=0"):
        conic_position_check(rep, n_samples=5)


def _matrix(kind, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(3, 3)) * scale
    if kind == "group":
        return random_group_elem(rng).mat
    if kind == "word":
        return RED.evaluate(random_reduced_word(rng, int(rng.integers(1, 7))))
    # a 2x2 block with a complex pair (rotation) or a double eigenvalue
    # (Jordan block), beside a real eigenvalue above, between or below it
    block = np.array([[0.0, -1.0], [1.0, 0.0]]) if kind == "rotation" else np.array([[1.0, 1.0], [0.0, 1.0]])
    out = np.zeros((3, 3))
    out[:2, :2] = block
    out[2, 2] = scale
    return out


MATRICES = st.builds(
    _matrix,
    st.sampled_from(["normal", "group", "word", "rotation", "jordan"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.25, 1.0, 4.0]),
)


@settings(deadline=None, max_examples=100)
@given(mats=st.lists(MATRICES, min_size=1, max_size=8))
def test_attracting_rows_are_independent(mats):
    # each row of a stack equals that row extracted alone, bit for bit, and
    # the one-row case agrees with the scalar extraction it replaced
    stack = np.array(mats)
    batch = _attracting_rows(stack)
    for i, m in enumerate(stack):
        alone = _attracting_rows(m[None])
        for name, column in batch._asdict().items():
            assert np.array_equal(column[i], getattr(alone, name)[0], equal_nan=True), name
        try:
            ref = _reference_attracting_flag(m)
        except NonHyperbolicError as exc:
            with pytest.raises(NonHyperbolicError, match=str(exc)):
                attracting_flag(m)
            continue
        f = attracting_flag(m)
        assert np.array_equal(f.line.coords, ref.line.coords)
        assert np.array_equal(f.plane.coords, ref.plane.coords)


def test_attracting_rows_mask_non_hyperbolic_rows():
    # identity, nilpotent Jordan block, complex dominant pair: masked
    # before the inverse, whose stack would be singular at the Jordan row
    rng = np.random.default_rng(11)
    words = [RED.evaluate(random_reduced_word(rng, 3)) for _ in range(3)]
    rotation = np.diag([0.0, 0.0, 0.25])
    rotation[:2, :2] = [[0.0, -2.0], [2.0, 0.0]]
    stack = np.array([words[0], np.eye(3), words[1], np.diag([1.0, 1.0], 1), rotation, words[2]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(stack)[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _attracting_rows(stack)
    assert rows.status.tolist() == [HYPERBOLIC, NOT_SEPARATED, HYPERBOLIC, NOT_SEPARATED, NOT_SEPARATED, HYPERBOLIC]
    assert np.isnan(rows.lines[[1, 3, 4]]).all() and np.isnan(rows.planes[[1, 3, 4]]).all()
    for i in (0, 2, 5):
        ref = _reference_attracting_flag(stack[i])
        assert np.array_equal(rows.lines[i], ref.line.coords)
        assert np.array_equal(rows.planes[i], ref.plane.coords)


def test_conic_position_single_generators():
    # each generator's attracting line sits strictly outside the conic
    # after moving to the model-plane coordinates
    for letter in (1, 2, 3, 4, -1, -2, -3, -4):
        m = RED.letter_matrix(letter)
        f = attracting_flag(SWAP_23 @ m @ SWAP_23)
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
