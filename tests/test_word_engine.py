"""Property tests: the batched word engine of ``reps`` against scalar word code."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagcones.reps import (
    LETTERS,
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


def _scalar_row(length, words, mats):
    sg12, sg23 = _batch_gaps(mats)
    cyc = [i for i, w in enumerate(words) if w[0] != -w[-1]]
    return {"length": length, "count": len(words), "min_sg12": float(sg12.min()),
            "med_sg12": float(np.median(sg12)), "min_sg23": float(sg23.min()),
            "min_lg12": float(_batch_lg12(mats[cyc]).min()) if cyc else float("nan")}


def _scalar_scan(rep, max_len, sample_budget, seed, exhaustive_len=5):
    """``gap_scan(...).to_json()`` by tuple words and one 3x3 product at a time."""
    rng = np.random.default_rng(seed)
    rows, partial = [], False
    current = [((l,), rep.letter_matrix(l)) for l in LETTERS]
    for length in range(1, min(max_len, exhaustive_len) + 1):
        if length > 1:
            current = [(w + (l,), m @ rep.letter_matrix(l))
                       for w, m in current for l in LETTERS if l != -w[-1]]
        rows.append(_scalar_row(length, [w for w, _ in current], np.stack([m for _, m in current])))
    extra = range(exhaustive_len + 1, max_len + 1)
    for L in extra:
        if sample_budget // len(extra) <= 0:
            partial = True
            break
        words = [_scalar_word(rng, L) for _ in range(sample_budget // len(extra))]
        rows.append(_scalar_row(L, words, np.stack([_scalar_product(rep, w) for w in words])))
    coef = np.polyfit([r["length"] for r in rows], [r["min_sg12"] for r in rows], 1)
    return {"A": float(coef[0]), "B": float(-coef[1]), "family": rep.family,
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
