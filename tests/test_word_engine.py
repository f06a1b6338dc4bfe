"""Property tests: the batched word engine of ``reps`` against scalar word code."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.flags import GeometryError
from flagcones.reps import (
    LETTERS,
    _SUCCESSORS,
    _batch_gaps,
    _batch_lg12,
    _sample_words,
    _word_products,
    barbot_twist,
    gap_scan,
    irreducible_representation,
    octagon_fuchsian,
    random_reduced_word,
    reducible_representation,
)

FUCHSIAN = octagon_fuchsian()
FAMILIES = {
    "red": reducible_representation(FUCHSIAN),
    "irr": irreducible_representation(FUCHSIAN),
    "barbot": barbot_twist(FUCHSIAN, (0.5, 0.0, 0.0, 0.0)),
}
SEEDS = st.integers(0, 2**32 - 1)


def _scalar_word(rng, length):
    """One reduced word, one draw per letter among the letters allowed after the last."""
    out = []
    for _ in range(length):
        choices = [l for l in LETTERS if not out or l != -out[-1]]
        out.append(choices[rng.integers(len(choices))])
    return tuple(out)


def _scalar_product(rep, word):
    out = np.eye(3)
    for l in word:
        out = out @ rep.letter_matrix(l)
    return out


def _scalar_cofactor(rep, word):
    """The cofactor product of a word, one letter cofactor inv(A).T at a time."""
    out = np.eye(3)
    for l in word:
        out = out @ rep.letter_matrix(-l).T
    return out


def _scalar_row(rep, length, words, mats):
    cofs = np.stack([_scalar_cofactor(rep, w) for w in words])
    sg12, sg23 = _batch_gaps(mats, cofs)
    cyc = [i for i, w in enumerate(words) if w[0] != -w[-1]]
    return {"length": length, "count": len(words), "min_sg12": float(sg12.min()),
            "med_sg12": float(np.median(sg12)), "min_sg23": float(sg23.min()),
            "min_lg12": float(_batch_lg12(mats[cyc], cofs[cyc]).min()) if cyc else float("nan")}


def _scalar_scan(rep, max_len, sample_budget, seed, exhaustive_len=5):
    """``gap_scan(...).to_json()`` by tuple words and one 3x3 product at a time."""
    rng = np.random.default_rng(seed)
    rows, partial = [], False
    current = [((l,), rep.letter_matrix(l)) for l in LETTERS]
    for length in range(1, min(max_len, exhaustive_len) + 1):
        if length > 1:
            current = [(w + (l,), m @ rep.letter_matrix(l))
                       for w, m in current for l in LETTERS if l != -w[-1]]
        rows.append(_scalar_row(rep, length, [w for w, _ in current], np.stack([m for _, m in current])))
    extra = range(exhaustive_len + 1, max_len + 1)
    for L in extra:
        if sample_budget // len(extra) <= 0:
            partial = True
            break
        words = [_scalar_word(rng, L) for _ in range(sample_budget // len(extra))]
        rows.append(_scalar_row(rep, L, words, np.stack([_scalar_product(rep, w) for w in words])))
    if not rows:
        raise GeometryError("no length has a word")
    slope = offset = math.nan  # one length has no slope
    if len(rows) > 1:
        coef = np.polyfit([r["length"] for r in rows], [r["min_sg12"] for r in rows], 1)
        slope, offset = float(coef[0]), float(-coef[1])
    return {"A": slope, "B": offset, "family": rep.family,
            "parameters": dict(rep.params), "seed": seed, "max_len": max_len,
            "exhaustive_len": exhaustive_len, "partial": partial, "rows": rows}


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(0, 12), length=st.integers(0, 14))
def test_sample_words_matches_scalar_draws(seed, n, length):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    words = [tuple(LETTERS[i] for i in row) for row in _sample_words(rng, n, length)]
    assert words == [_scalar_word(ref, length) for _ in range(n)]
    assert rng.integers(1 << 30) == ref.integers(1 << 30)
    wrapped = [random_reduced_word(rng, length) for _ in range(n)]
    assert wrapped == [_scalar_word(ref, length) for _ in range(n)]
    assert rng.integers(1 << 30) == ref.integers(1 << 30)


@settings(deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    idx=st.integers(1, 8).flatmap(
        lambda n: st.integers(0, 12).flatmap(
            lambda length: st.lists(
                st.lists(st.integers(0, 7), min_size=length, max_size=length), min_size=n, max_size=n
            )
        )
    ),
)
def test_batched_products_bit_identical_to_evaluate(family, idx):
    rep = FAMILIES[family]
    idx = np.array(idx, dtype=np.intp).reshape(len(idx), -1)
    batched = _word_products(rep._letters, idx)
    for row, mat in zip(idx, batched):
        word = tuple(LETTERS[i] for i in row)
        assert np.array_equal(mat, rep.evaluate(word))
        assert np.array_equal(mat, _scalar_product(rep, word))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(deadline=None, max_examples=4)
@given(seed=SEEDS, budget=st.integers(1, 150))
def test_gap_scan_matches_scalar_reference(family, seed, budget):
    rep = FAMILIES[family]
    # compared as report text, where a NaN minimum (no cyclically reduced sample) equals itself
    scan = gap_scan(rep, 7, sample_budget=budget, seed=seed).to_json()
    assert json.dumps(scan) == json.dumps(_scalar_scan(rep, 7, budget, seed))


@pytest.mark.parametrize("exhaustive_len", range(6))
@settings(deadline=None, max_examples=8)
@given(family=st.sampled_from(sorted(FAMILIES)), max_len=st.integers(1, 9), seed=SEEDS, budget=st.integers(0, 40))
def test_gap_scan_prefix_table_matches_scalar_reference(exhaustive_len, family, max_len, seed, budget):
    # sampled words start from the enumerated products of their first
    # max(exhaustive_len, 1) letters; the report must not tell
    rep = FAMILIES[family]
    try:
        expected = json.dumps(_scalar_scan(rep, max_len, budget, seed, exhaustive_len))
    except GeometryError:
        with pytest.raises(GeometryError, match="no length"):
            gap_scan(rep, max_len, sample_budget=budget, seed=seed, exhaustive_len=exhaustive_len)
        return
    scan = gap_scan(rep, max_len, sample_budget=budget, seed=seed, exhaustive_len=exhaustive_len)
    assert json.dumps(scan.to_json()) == expected


def _norms(mats):
    return np.linalg.norm(mats, 2, axis=(1, 2))


def _rounding(rep, idx):
    """Rounding bounds of the (N, length) words' two float products.

    Multiplying n matrices in floats errs by at most about n eps |A1|...|An|
    entrywise, and the letters' cofactors carry the rounding of their
    inverses: returns n ||(|A1|...|An|)||_2 for the products and for the
    cofactor products.
    """
    n = idx.shape[1]
    return n * _norms(_word_products(np.abs(rep._letters), idx)), n * _norms(_word_products(np.abs(rep._cofactors), idx))


def _norm_conditioning(rep, idx):
    """Relative rounding of the two products' norms, s1 = ||P|| and s1 s2 = ||C||."""
    err_p, err_c = _rounding(rep, idx)
    return err_p / _norms(_word_products(rep._letters, idx)) + err_c / _norms(_word_products(rep._cofactors, idx))


def _mp_gaps(rep, word):
    """(sg12, sg23, lg12) of the exact product of a word's float letters, at 60 digits.

    Only dominant quantities are read off the products: s1 and |l1| from P,
    1/s3 and 1/|l3| from the exact inverse product, and the middle ones from
    det = s1 s2 s3 = |l1 l2 l3|.  Also returns |l1| and |l3|.
    """
    with mpmath.workdps(60):
        p, q, det = mpmath.eye(3), mpmath.eye(3), mpmath.mpf(1)
        for l in word:
            a = mpmath.matrix(rep.letter_matrix(l).tolist())
            p, q, det = p * a, mpmath.inverse(a) * q, det * mpmath.det(a)
        s1 = max(mpmath.svd_r(p, compute_uv=False))
        s3 = 1 / max(mpmath.svd_r(q, compute_uv=False))
        s2 = abs(det) / (s1 * s3)
        l1 = max(abs(v) for v in mpmath.eig(p, left=False, right=False))
        l3 = 1 / max(abs(v) for v in mpmath.eig(q, left=False, right=False))
        l2 = abs(det) / (l1 * l3)
        return [float(mpmath.log(x)) for x in (s1 / s2, s2 / s3, l1 / l2)], float(l1), float(l3)


EPS = np.finfo(float).eps


@settings(deadline=None, max_examples=150)
@given(family=st.sampled_from(sorted(FAMILIES)), seed=SEEDS, length=st.integers(1, 20))
def test_gap_kernels_match_mpmath(family, seed, length):
    # closed-form gaps against 60-digit singular values and eigenvalues,
    # within the rounding of the float products: relative to the norms for
    # the singular-value gaps, and through the traces relative to the
    # dominant roots |l1| and 1/|l3| for the eigenvalue gap
    rep = FAMILIES[family]
    idx = _sample_words(np.random.default_rng(seed), 1, length)
    mats, cofs = _word_products(rep._letters, idx), _word_products(rep._cofactors, idx)
    sg12, sg23 = _batch_gaps(mats, cofs)
    lg12 = _batch_lg12(mats, cofs)
    (r12, r23, rl), l1, l3 = _mp_gaps(rep, [LETTERS[i] for i in idx[0]])
    kappa_norm = _norm_conditioning(rep, idx)[0]
    err_p, err_c = (e[0] for e in _rounding(rep, idx))
    kappa_trace = err_p / l1 + err_c * l3
    assert abs(sg12[0] - r12) <= max(1e-11, 64 * EPS * kappa_norm)
    assert abs(sg23[0] - r23) <= max(1e-11, 64 * EPS * kappa_norm)
    assert abs(lg12[0] - rl) <= max(1e-11, 64 * EPS * kappa_trace)


def _all_words(length):
    """Every reduced word of a length, as (N, length) letter indices."""
    idx = np.arange(8)[:, None]
    for _ in range(length - 1):
        successors = _SUCCESSORS[idx[:, -1]]
        idx = np.concatenate([np.repeat(idx, 7, axis=0), successors.reshape(-1, 1)], axis=1)
    return idx


def _inverse_defect(rep, idx):
    """|sg12(w) - sg23(w^-1)| per word, and the rounding bound of the four products."""
    inv = idx[:, ::-1] ^ 1
    sg12, _ = _batch_gaps(_word_products(rep._letters, idx), _word_products(rep._cofactors, idx))
    _, sg23_inv = _batch_gaps(_word_products(rep._letters, inv), _word_products(rep._cofactors, inv))
    kappa = _norm_conditioning(rep, idx) + _norm_conditioning(rep, inv)
    return np.abs(sg12 - sg23_inv), np.maximum(1e-11, 64 * EPS * kappa)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gap_kernels_inverse_identity(family):
    # sg12(w) = sg23(w^-1) at 1e-11 on every word to length 6; on samples to
    # length 20 also within the rounding of products with heavy cancellation
    rep = FAMILIES[family]
    for length in range(1, 7):
        idx = _all_words(length)
        for lo in range(0, len(idx), 20000):
            assert _inverse_defect(rep, idx[lo:lo + 20000])[0].max() <= 1e-11
    rng = np.random.default_rng(17)
    for length in range(7, 21):
        defect, bound = _inverse_defect(rep, _sample_words(rng, 500, length))
        assert (defect <= bound).all()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exhaustive_rows_balance_the_gaps(family):
    # each exhaustive length is closed under inversion, which swaps sg12 and sg23
    for row in gap_scan(FAMILIES[family], 5).rows:
        assert abs(row["min_sg12"] - row["min_sg23"]) <= 1e-12


def _conjugated(block, seed):
    """A det-1 matrix conjugate to a block diagonal one, and its cofactor, each as a one-row stack."""
    s = np.random.default_rng(seed).normal(size=(3, 3)) + 3.0 * np.eye(3)
    s_inv = np.linalg.inv(s)
    return (s @ block @ s_inv)[None], (s_inv.T @ np.linalg.inv(block).T @ s.T)[None]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("radius", [0.3, 0.9, 1.5, 40.0])
def test_eigenvalue_gap_of_complex_pairs(seed, radius):
    # a complex pair of modulus r beside the real eigenvalue 1/r^2: the pair
    # dominates for r > 1, where the gap is exactly 0, and is the bottom pair
    # for r < 1, where it is log(1/r^2) - log r
    block = np.zeros((3, 3))
    block[:2, :2] = radius * np.array([[math.cos(1.1), -math.sin(1.1)], [math.sin(1.1), math.cos(1.1)]])
    block[2, 2] = radius ** -2
    lg12 = _batch_lg12(*_conjugated(block, seed))[0]
    if radius > 1:
        assert lg12 == 0.0
    else:
        assert lg12 == pytest.approx(-3.0 * math.log(radius), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("logs", [(0.0, 0.0, 0.0), (3.0, -1.0, -2.0), (2.0, 1.0, -3.0), (-1.0, -2.0, 3.0), (30.0, 1e-3, -30.001)])
def test_eigenvalue_gap_of_real_spectra(seed, logs):
    # signed real eigenvalues with moduli exp(logs), either sign on the largest
    vals = np.exp(logs) * np.array([-1.0, -1.0, 1.0]) ** seed
    lg12 = _batch_lg12(*_conjugated(np.diag(vals), seed))[0]
    top = sorted(logs, reverse=True)
    assert lg12 == pytest.approx(top[0] - top[1], abs=1e-9)
