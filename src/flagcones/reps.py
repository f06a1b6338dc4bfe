"""Explicit genus-2 representations and their gap and position diagnostics.

The base Fuchsian group is the regular-octagon surface group: four
hyperbolic translations with trace 2(1 + sqrt 2) along axes rotated by
multiples of pi/4, assembled by a frozen recipe into generators that
satisfy the genus-2 commutator relation (verified at construction).

Representations into SL(3,R): the block embedding (reducible), the
symmetric-square embedding (irreducible), and character twists of the
reducible family inside GL(2,R) x R.

``gap_scan`` enumerates freely reduced words and records per-length
singular-value and eigenvalue gap statistics, the raw material of the
linear gap growth certifying the Anosov property.  The gaps come in
closed form from two products per word.  For det 1 the cofactor matrix
is cof A = A^-T, and cof(AB) = cof A cof B, so each word is multiplied
over the letter stack and over its cofactor stack.  With P the product
and C its cofactor, ||P||_2 = s1 and ||C||_2 = s1 s2, so
sg12 = 2 log||P|| - log||C|| and sg23 = 2 log||C|| - log||P||.  The
eigenvalue moduli depend only on tr P and tr C = tr P^-1: |l1| is the
largest root modulus of x^3 - tr P x^2 + tr C x - 1, and 1/|l3| that of
the cubic with the traces swapped.  No SVD or eigensolver is involved,
and each value is accurate to the rounding of the two products, however
far apart the singular values are.  ``limit_flag_sample``
extracts attracting eigenflags, ``conic_position_check`` locates them
relative to the fibration conic, and ``flow_nesting_certify`` runs the
cone-nestedness certificate along an axis flow.

Attracting eigenflags are extracted in batches: ``_attracting_rows``
takes an (N,3,3) stack through one stacked eigen-decomposition and
returns (N, 3) line and covector rows with a status code per row in
place of an exception; ``attracting_flag`` is its one-row case.

Words are handled as arrays of letter indices into ``LETTERS`` and
evaluated in batches: a stack of N words is multiplied left to right as
one (N,3,3) matmul per position against the (8,3,3) letter or cofactor
stack of the representation, and each exhaustive length is the previous
length's two product stacks times their 7 reduced successors.  Sampling
takes one seeded draw per length, letter for letter the draws of
``random_reduced_word``.
Enumeration order is deterministic (length, then lexicographic in
``LETTERS`` order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flags import Flag, GeometryError, GroupElem, ProjectiveCovector, ProjectivePoint, _flag_rows
from .cones import DEFAULT_TOL, Multicone, _all_inside, _inner_positions, _nest_lower
from .plane import _conic_rows

GENERATOR_NAMES = ("a1", "b1", "a2", "b2")

#: Half translation length of the octagon generators: arccosh(1 + sqrt 2).
OCTAGON_HALF_LENGTH = float(np.arccosh(1.0 + np.sqrt(2.0)))

RELATION_WORD = (1, 2, -1, -2, 3, 4, -3, -4)

#: Letter order of enumeration and sampling; letter index i has inverse i ^ 1.
LETTERS = (1, -1, 2, -2, 3, -3, 4, -4)
_LETTER_VALUES = np.array(LETTERS)
_LETTER_INDEX = {l: i for i, l in enumerate(LETTERS)}
#: Row i: the 7 letter indices that may follow index i in a reduced word, in letter order.
_SUCCESSORS = np.array([[j for j in range(8) if j != i ^ 1] for i in range(8)])

#: The swap of the second and third coordinates, as an index permutation.
_SWAP_23 = np.array([0, 2, 1])
_SWAP_23.setflags(write=False)

_TINY = np.finfo(float).tiny
_LN2 = math.log(2.0)
#: Rows per call of the gap kernels, whose (N,) temporaries then stay in cache.
_GAP_BLOCK = 4096


class NonHyperbolicError(GeometryError):
    """The element has no strictly dominant eigenvalue pair."""


def _rot2(psi: float) -> np.ndarray:
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s], [s, c]])


#: Frozen assembly of the commutator generators from the octagon's four
#: opposite-side translations t_k (axes through the center at angles
#: k pi/4): words in the letters 1..4, negatives meaning inverses.
#: Resolved empirically over all short-word generating quadruples, ranked
#: by the linear growth of the per-length gap minima; the relation is
#: re-verified at construction.
_OCTAGON_WORDS = ((2,), (-2, 1), (-2, 1, 3), (-4, 3))


def octagon_translations() -> tuple:
    """The four opposite-side pairing translations of the regular octagon.

    Hyperbolic, trace 2(1 + sqrt 2), axes through the center at angles
    k pi/4; they satisfy the alternating side-pairing relation rather
    than the commutator relation.
    """
    t0 = np.array(
        [
            [math.cosh(OCTAGON_HALF_LENGTH), math.sinh(OCTAGON_HALF_LENGTH)],
            [math.sinh(OCTAGON_HALF_LENGTH), math.cosh(OCTAGON_HALF_LENGTH)],
        ]
    )
    # an SL(2) rotation by psi rotates the hyperbolic plane by 2 psi
    return tuple(_rot2(k * math.pi / 8) @ t0 @ _rot2(-k * math.pi / 8) for k in range(4))


def octagon_fuchsian() -> tuple:
    """Four SL(2,R) generators of the regular-octagon genus-2 group.

    The generators are fixed short words in the octagon's opposite-side
    translations, chosen so that the commutator relation holds and every
    generator is again a systolic translation of trace 2(1 + sqrt 2)
    (translation length 2 arccosh(1 + sqrt 2)).  The relation residual is
    verified at build time.
    """
    letters = {}
    for k, t in enumerate(octagon_translations(), start=1):
        letters[k] = t
        letters[-k] = np.linalg.inv(t)
    quad = []
    for w in _OCTAGON_WORDS:
        m = np.eye(2)
        for l in w:
            m = m @ letters[l]
        if np.trace(m) < 0:
            m = -m
        quad.append(m)
    out = tuple(quad)

    word8 = np.eye(2)
    for m in (out[0], out[1], np.linalg.inv(out[0]), np.linalg.inv(out[1]),
              out[2], out[3], np.linalg.inv(out[2]), np.linalg.inv(out[3])):
        word8 = word8 @ m
    if float(np.abs(word8 - np.eye(2)).max()) > 1e-9:
        raise GeometryError("octagon construction: relation residual too large")
    return out


def iota_red(a2) -> GroupElem:
    """Block embedding SL(2,R) -> SL(3,R): diag(A, 1)."""
    a2 = np.asarray(a2, dtype=float)
    out = np.eye(3)
    out[:2, :2] = a2
    return GroupElem(out)


def iota_irr(a2) -> GroupElem:
    """Symmetric-square embedding SL(2,R) -> SL(3,R) preserving a quadratic form."""
    m = np.asarray(a2, dtype=float)
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    r2 = math.sqrt(2.0)
    return GroupElem(
        np.array(
            [
                [a * a, r2 * a * b, b * b],
                [r2 * a * c, a * d + b * c, r2 * b * d],
                [c * c, r2 * c * d, d * d],
            ]
        )
    )


def reduce_word(letters) -> tuple:
    """Freely reduce a letter sequence (letters are +-1..+-4)."""
    out = []
    for l in letters:
        l = int(l)
        if l == 0 or abs(l) > 4:
            raise GeometryError(f"invalid letter {l}")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def inverse_word(word) -> tuple:
    return tuple(-l for l in reversed(word))


def _letter_indices(word) -> np.ndarray:
    try:
        return np.array([_LETTER_INDEX[int(l)] for l in word], dtype=np.intp)
    except KeyError as exc:
        raise GeometryError(f"invalid letter {exc.args[0]}") from None


def _sample_words(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    """n seeded uniform reduced words as (n, length) letter indices.

    One ``rng.integers`` call draws every offset: 8 choices for a first
    letter, 7 for each later one, mapped through the successor table.  The
    draws, and the generator state afterwards, are those of n successive
    ``random_reduced_word`` calls.
    """
    if length == 0:
        return np.empty((n, 0), dtype=np.intp)
    offsets = rng.integers(np.tile(np.r_[8, np.full(length - 1, 7)], n)).reshape(n, length)
    return _reduced_words(offsets)


def _reduced_words(offsets: np.ndarray) -> np.ndarray:
    """(n, length) letter indices of reduced words from their drawn offsets.

    The first offset is a letter index; each later one picks among the 7
    successors of the letter before it.
    """
    idx = np.empty_like(offsets)
    idx[:, 0] = offsets[:, 0]
    for k in range(1, offsets.shape[1]):
        idx[:, k] = _SUCCESSORS[idx[:, k - 1], offsets[:, k]]
    return idx


def random_reduced_word(rng: np.random.Generator, length: int) -> tuple:
    return tuple(_LETTER_VALUES[_sample_words(rng, 1, length)[0]].tolist())


def _word_products(letters: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(N,3,3) images of the (N, length) index words, multiplied left to right from the identity."""
    out = np.tile(np.eye(3), (idx.shape[0], 1, 1))
    for k in range(idx.shape[1]):
        out = out @ letters[idx[:, k]]
    return out


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images in SL(3,R) with family metadata.

    Validates the genus-2 relation to 1e-9 at construction.
    """

    images: dict
    family: str
    params: dict

    def __post_init__(self):
        for name in GENERATOR_NAMES:
            if name not in self.images:
                raise GeometryError(f"missing generator image {name!r}")
        letters = []
        for name in GENERATOR_NAMES:
            g = self.images[name]
            m = g.mat if isinstance(g, GroupElem) else np.asarray(g, dtype=float)
            letters += [m, np.linalg.inv(m)]
        letters = np.stack(letters)
        letters.setflags(write=False)
        object.__setattr__(self, "_letters", letters)
        # cof A = A^-T for det 1, and letter i ^ 1 is the inverse of letter i
        cofactors = np.ascontiguousarray(letters[np.arange(8) ^ 1].transpose(0, 2, 1))
        cofactors.setflags(write=False)
        object.__setattr__(self, "_cofactors", cofactors)
        res = self.relation_residual()
        if res > 1e-9:
            raise GeometryError(f"relation residual {res:.3e} exceeds 1e-9")

    def relation_residual(self) -> float:
        return float(np.abs(self.evaluate(RELATION_WORD) - np.eye(3)).max())

    def evaluate(self, word) -> np.ndarray:
        idx = _letter_indices(word)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _word_products(self._letters, idx[None])[0]
        if not np.isfinite(out).all():
            raise GeometryError(f"the product of a word of length {idx.size} overflows float64")
        return out

    def letter_matrix(self, letter: int) -> np.ndarray:
        return self._letters[_letter_indices((letter,))[0]]


def reducible_representation(fuchsian=None) -> Representation:
    fuchsian = octagon_fuchsian() if fuchsian is None else fuchsian
    images = {n: iota_red(m) for n, m in zip(GENERATOR_NAMES, fuchsian)}
    return Representation(images, "reducible-fuchsian", {})


def irreducible_representation(fuchsian=None) -> Representation:
    fuchsian = octagon_fuchsian() if fuchsian is None else fuchsian
    images = {n: iota_irr(m) for n, m in zip(GENERATOR_NAMES, fuchsian)}
    return Representation(images, "irreducible-fuchsian", {})


def barbot_twist(fuchsian, chi) -> Representation:
    """Character twist of the reducible family: diag(e^chi A, e^(-2 chi)).

    chi assigns one real to each generator and extends to a homomorphism
    (characters vanish on commutators, so the relation is automatic).
    """
    chi = tuple(float(v) for v in np.atleast_1d(chi))
    if len(chi) != 4:
        raise GeometryError("chi must have four components")
    images = {}
    for name, m, x in zip(GENERATOR_NAMES, fuchsian, chi):
        out = np.zeros((3, 3))
        out[:2, :2] = math.exp(x) * np.asarray(m, dtype=float)
        out[2, 2] = math.exp(-2.0 * x)
        images[name] = GroupElem(out)
    return Representation(images, "barbot-twist", {"chi": chi})


@dataclass(frozen=True)
class GapScan:
    """Per-length gap statistics and the fitted linear growth of the minima.

    The fit is min_sg12(length) ~ slope_a * length - offset_b.
    """

    rows: tuple
    slope_a: float
    offset_b: float
    family: str
    params: dict
    seed: int
    max_len: int
    exhaustive_len: int
    partial: bool

    def csv_lines(self):
        yield "length,count,min_sg12,med_sg12,min_sg23,min_lg12"
        for r in self.rows:
            yield (
                f"{r['length']},{r['count']},{r['min_sg12']!r},{r['med_sg12']!r},"
                f"{r['min_sg23']!r},{r['min_lg12']!r}"
            )

    def to_json(self) -> dict:
        return {
            "A": self.slope_a,
            "B": self.offset_b,
            "family": self.family,
            "parameters": dict(self.params),
            "seed": self.seed,
            "max_len": self.max_len,
            "exhaustive_len": self.exhaustive_len,
            "partial": self.partial,
            "rows": [dict(r) for r in self.rows],
        }


def _log_norms(mats: np.ndarray) -> np.ndarray:
    """log of the spectral norm of each matrix of an (N,3,3) stack.

    ||M||_2^2 is the top eigenvalue of the Gram matrix G = M^T M, taken
    from the trigonometric closed form for symmetric 3x3 matrices.  Each
    row is first scaled by a power of two that brings its largest entry
    into [0.5, 1), so G cannot overflow; all work is on (N,) columns.
    """
    m = mats.reshape(len(mats), 9)
    top = np.abs(m[:, 0])
    for k in range(1, 9):
        np.maximum(top, np.abs(m[:, k]), out=top)
    e = np.frexp(top)[1]
    scale = np.ldexp(1.0, -e)
    c = [m[:, k] * scale for k in range(9)]
    g00 = c[0] * c[0] + c[3] * c[3] + c[6] * c[6]
    g11 = c[1] * c[1] + c[4] * c[4] + c[7] * c[7]
    g22 = c[2] * c[2] + c[5] * c[5] + c[8] * c[8]
    g01 = c[0] * c[1] + c[3] * c[4] + c[6] * c[7]
    g02 = c[0] * c[2] + c[3] * c[5] + c[6] * c[8]
    g12 = c[1] * c[2] + c[4] * c[5] + c[7] * c[8]
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    det = d0 * (d1 * d2 - g12 * g12) - g01 * (g01 * d2 - g12 * g02) + g02 * (g01 * g12 - d1 * g02)
    # a scalar G has p = det = 0, and then r = 0 gives its eigenvalue q
    r = np.clip(det / np.maximum(2.0 * p * p * p, _TINY), -1.0, 1.0)
    top_eig = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    return 0.5 * np.log(top_eig) + e * _LN2


def _batch_gaps(mats: np.ndarray, cofs: np.ndarray):
    """Singular-value gaps (sg12, sg23) of word products and their cofactor products.

    For det 1, s1 = ||P||_2 and s1 s2 = ||cof P||_2, so both gaps follow
    from the two norms, which ``_log_norms`` gets to a few ulps of the
    float products with no LAPACK call.
    """
    lp = _log_norms(mats)
    lc = _log_norms(cofs)
    return 2.0 * lp - lc, 2.0 * lc - lp


def _log_traces(mats: np.ndarray):
    """Traces of an (N,3,3) stack as (mantissa, exponent) rows, trace = m 2^k, free of overflow."""
    d0, d1, d2 = mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2]
    k = np.frexp(np.maximum(np.maximum(np.abs(d0), np.abs(d1)), np.abs(d2)))[1]
    return np.ldexp(d0, -k) + np.ldexp(d1, -k) + np.ldexp(d2, -k), k


def _log_real_root(ma, ka, mb, kb) -> np.ndarray:
    """log of the largest modulus among the real roots of x^3 - a x^2 + b x - 1.

    a = ma 2^ka and b = mb 2^kb.  The cubic is solved in z = x / 2^j, with
    2^j >= max(1, |a|, sqrt|b|) so that every coefficient is at most 3.
    Rows with three real roots take the trigonometric form and the larger
    modulus of its outer roots; the others take the one real root by
    Cardano, in the form that avoids cancellation.  Near a double root
    either form gives the root that stands apart to full accuracy.
    """
    j = np.maximum(np.maximum(ka, (kb + 1) // 2), 0)
    a3 = np.ldexp(ma, ka - j) / 3.0
    b = np.ldexp(mb, kb - 2 * j)
    # z = y + a3, with y^3 + p y + q = 0
    p = b - 3.0 * a3 * a3
    q = a3 * (b - 2.0 * a3 * a3) - np.ldexp(1.0, -3 * j)
    p3 = p / 3.0
    disc = 0.25 * q * q + p3 * p3 * p3
    three = disc < 0
    m = 2.0 * np.sqrt(np.where(three, -p3, 0.0))
    theta = np.arccos(np.clip(3.0 * q / np.where(three, p * m, -1.0), -1.0, 1.0)) / 3.0
    z = np.maximum(np.abs(a3 + m * np.cos(theta)), np.abs(a3 + m * np.cos(theta + 2.0 * math.pi / 3.0)))
    one = np.flatnonzero(~three)
    if one.size:
        p, q = p[one], q[one]
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc[one]), q))
        # u = 0 only for p = q = 0, the triple root z = a3
        z[one] = np.abs(a3[one] + u - p / (3.0 * np.where(u == 0.0, 1.0, u)))
    return np.log(np.maximum(z, _TINY)) + j * _LN2


def _batch_lg12(mats: np.ndarray, cofs: np.ndarray):
    """Eigenvalue gaps log(|l1| / |l2|) of word products and their cofactor products.

    For det 1 the eigenvalue moduli depend only on t1 = tr P and
    t2 = tr cof P = tr P^-1.  With R(t1, t2) the largest real-root modulus
    of x^3 - t1 x^2 + t2 x - 1, the largest root modulus is
    rho1 = max(R(t1, t2), sqrt R(t2, t1)): a dominant complex pair has
    modulus 1/sqrt|l3| = sqrt R(t2, t1), and otherwise the maximum is
    R(t1, t2).  So |l1| = rho1, 1/|l3| = rho2 (the same with t1, t2
    swapped) and lg12 = 2 log rho1 - log rho2, exactly 0 for a dominant
    complex pair.  Each root is taken where it is dominant, so the gap is
    as accurate as the traces allow: an error d in tr P moves log|l1| by
    about d / |l1|, and one in tr C moves log(1/|l3|) by about d |l3|.
    """
    m1, k1 = _log_traces(mats)
    m2, k2 = _log_traces(cofs)
    l1 = _log_real_root(m1, k1, m2, k2)
    l2 = _log_real_root(m2, k2, m1, k1)
    return 2.0 * np.maximum(l1, 0.5 * l2) - np.maximum(l2, 0.5 * l1)


def gap_scan(
    rep: Representation,
    max_len: int,
    sample_budget: int = 20000,
    seed: int = 0,
    exhaustive_len: int = 5,
) -> GapScan:
    """Scan gaps over freely reduced words.

    Lengths up to exhaustive_len are enumerated completely (deterministic
    order); longer lengths draw seeded uniform samples from the budget.
    Eigenvalue gaps are recorded on cyclically reduced words only, as
    conjugacy-class representatives.
    """
    if max_len < 1:
        raise GeometryError("max_len must be at least 1")
    if exhaustive_len < 0:
        raise GeometryError("exhaustive_len must be nonnegative")
    rng = np.random.default_rng(seed)
    rows = []
    partial = False

    # a row needs only each word's first and last letters (for the cyclic test)
    first = last = np.arange(8)
    mats, cofs = rep._letters, rep._cofactors
    for length in range(1, min(max_len, exhaustive_len) + 1):
        if length > 1:
            successors = _SUCCESSORS[last]
            mats = (mats[:, None] @ rep._letters[successors]).reshape(-1, 3, 3)
            cofs = (cofs[:, None] @ rep._cofactors[successors]).reshape(-1, 3, 3)
            first, last = np.repeat(first, 7), successors.reshape(-1)
        rows.append(_length_row(length, first, last, mats, cofs))

    extra = [L for L in range(exhaustive_len + 1, max_len + 1)]
    if extra:
        per_length = sample_budget // len(extra)
        for L in extra:
            if per_length <= 0:
                partial = True
                break
            idx = _sample_words(rng, per_length, L)
            # long plain-float products can overflow; _length_row rejects them by length
            with np.errstate(over="ignore", invalid="ignore"):
                mats = _word_products(rep._letters, idx)
                cofs = _word_products(rep._cofactors, idx)
            rows.append(_length_row(L, idx[:, 0], idx[:, -1], mats, cofs))

    lengths = np.array([r["length"] for r in rows], dtype=float)
    minima = np.array([r["min_sg12"] for r in rows], dtype=float)
    if len(rows) >= 2:
        coef = np.polyfit(lengths, minima, 1)
        slope_a, offset_b = float(coef[0]), float(-coef[1])
    else:
        slope_a, offset_b = float(minima[0]), 0.0
    return GapScan(
        rows=tuple(rows),
        slope_a=slope_a,
        offset_b=offset_b,
        family=rep.family,
        params=rep.params,
        seed=seed,
        max_len=max_len,
        exhaustive_len=exhaustive_len,
        partial=partial,
    )


def _length_row(length, first, last, mats, cofs):
    """Gap statistics of one length's words.

    The words enter as their first and last letter indices and their
    (N,3,3) product and cofactor-product stacks.
    """
    if not (np.isfinite(mats).all() and np.isfinite(cofs).all()):
        raise GeometryError(f"word products of length {length} overflow float64")
    sg12, sg23, lg12 = np.empty((3, len(mats)))
    for lo in range(0, len(mats), _GAP_BLOCK):
        block = slice(lo, lo + _GAP_BLOCK)
        sg12[block], sg23[block] = _batch_gaps(mats[block], cofs[block])
        lg12[block] = _batch_lg12(mats[block], cofs[block])
    cyc = first != (last ^ 1)
    min_lg12 = float(lg12[cyc].min()) if cyc.any() else math.nan
    return {
        "length": int(length),
        "count": len(mats),
        "min_sg12": float(sg12.min()),
        "med_sg12": float(np.median(sg12)),
        "min_sg23": float(sg23.min()),
        "min_lg12": min_lg12,
    }


#: Relative gap ``attracting_flag`` requires between successive eigenvalue moduli.
ATTRACTING_GAP_TOL = 1e-9

#: Row status codes of ``_attracting_rows``; failures carry ``NonHyperbolicError`` messages.
HYPERBOLIC, NOT_SEPARATED, NOT_REAL = 0, 1, 2
_NON_HYPERBOLIC = {
    NOT_SEPARATED: "eigenvalue moduli are not strictly separated",
    NOT_REAL: "dominant eigendata is not real",
}


class AttractingRows(NamedTuple):
    """Attracting eigenflags of N matrices, one entry per row.

    ``lines`` and ``planes`` are validated (N, 3) flag rows (nan on
    failed rows); ``status`` is HYPERBOLIC or the row's failure code.
    """

    lines: np.ndarray
    planes: np.ndarray
    status: np.ndarray


def _attracting_rows(mats) -> AttractingRows:
    """Attracting eigenflags of an (N,3,3) stack with strictly dominant eigenvalues.

    The line is the dominant eigenvector; the plane is the invariant
    hyperplane spanned by the two dominant eigendirections, i.e. the
    covector is the dominant left eigenvector of the inverse.  One stacked
    ``eig``; only rows whose moduli are separated by ATTRACTING_GAP_TOL
    reach the stacked ``inv``, since one defective row would make it raise.
    Every operation acts on each row alone, so a row's result does not
    depend on the rest of the batch.
    """
    mats = np.asarray(mats, dtype=float)
    vals, vecs = np.linalg.eig(mats)
    order = np.argsort(-np.abs(vals), axis=1)
    moduli = np.abs(np.take_along_axis(vals, order, axis=1))
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    m1, m2, m3 = moduli.T
    separated = (m1 > (1.0 + ATTRACTING_GAP_TOL) * m2) & (m2 > (1.0 + ATTRACTING_GAP_TOL) * m3)
    status = np.where(separated, HYPERBOLIC, NOT_SEPARATED)
    rows = np.flatnonzero(separated)
    vecs = vecs[rows]
    # eig returns complex data for the whole stack when any row has a
    # complex pair; a pair has equal moduli, so separated rows are real and
    # are inverted in real arithmetic, as they are alone
    if np.iscomplexobj(vecs) and not vecs.imag.any():
        vecs = vecs.real
    line = vecs[:, :, 0]
    left = np.linalg.inv(vecs)[:, 2, :]
    real = np.maximum(np.abs(line.imag).max(axis=1), np.abs(left.imag).max(axis=1)) <= 1e-9
    status[rows[~real]] = NOT_REAL
    lines = np.full((len(mats), 3), np.nan)
    planes = np.full((len(mats), 3), np.nan)
    lines[rows[real]], planes[rows[real]] = _flag_rows(line[real].real, left[real].real)
    return AttractingRows(lines, planes, status)


def attracting_flag(mat) -> Flag:
    """Attracting eigenflag of a matrix with strictly dominant eigenvalues.

    The one-row case of ``_attracting_rows``; raises ``NonHyperbolicError``
    when the moduli are not separated or the dominant eigendata is not real.
    """
    rows = _attracting_rows(np.asarray(mat, dtype=float)[None])
    status = int(rows.status[0])
    if status != HYPERBOLIC:
        raise NonHyperbolicError(_NON_HYPERBOLIC[status])
    return Flag(ProjectivePoint(rows.lines[0]), ProjectiveCovector(rows.planes[0]))


def limit_flag_sample(rep: Representation, word) -> Flag:
    """Attractor flag of the image of a word (hyperbolic image required)."""
    w = reduce_word(word)
    if not w:
        raise NonHyperbolicError("empty word has no attracting flag")
    return attracting_flag(rep.evaluate(w))


#: Offset bounds of one sampled word of each length 1..6, as ``_sample_words`` passes them.
_CONIC_WORD_BOUNDS = {length: np.r_[8, np.full(length - 1, 7)] for length in range(1, 7)}

#: ``conic_position_check`` gives up once its rejected draws exceed this many per sample.
CONIC_REJECTS_PER_SAMPLE = 100


def conic_position_check(rep: Representation, n_samples: int = 1000, seed: int = 0) -> dict:
    """Position of sampled limit flags relative to the fibration conic.

    Requires the untwisted reducible family.  Each sample is a seeded
    reduced word of uniform length 1..6, drawn as ``random_reduced_word``
    draws it; words whose images have no attracting flag are skipped, so
    the first n_samples hyperbolic words count, and the skipped draws are
    counted by cause (``rejected_not_separated``: eigenvalue moduli not
    separated; ``rejected_not_real``: dominant eigendata not real).  Once
    the rejected draws pass ``CONIC_REJECTS_PER_SAMPLE`` times n_samples
    it raises ``NonHyperbolicError`` with both counts.
    Images are conjugated into the model-plane coordinates (middle
    coordinate fixed) before the conic evaluations.  Lines are expected outside the conic, planes are
    expected to meet its interior; minimal margins are reported.

    Each round draws the samples still missing, multiplies them per length
    with ``_word_products`` and extracts their flags in one
    ``_attracting_rows`` call; the draws do not depend on the outcomes, so
    the rounds take the words one sample at a time would.
    """
    chi = rep.params.get("chi")
    if rep.family != "reducible-fuchsian" and not (
        rep.family == "barbot-twist" and chi is not None and max(abs(v) for v in chi) == 0.0
    ):
        raise GeometryError("conic_position_check needs the reducible Fuchsian family")
    if n_samples < 1:
        raise GeometryError("conic_position_check needs at least one sample")
    rng = np.random.default_rng(seed)
    line_margins, plane_margins = [], []
    rejected = np.zeros(3, dtype=np.intp)
    missing = n_samples
    while missing:
        lengths = np.empty(missing, dtype=np.intp)
        offsets = []
        for i in range(missing):
            lengths[i] = length = int(rng.integers(1, 7))
            offsets.append(rng.integers(_CONIC_WORD_BOUNDS[length]))
        mats = np.empty((missing, 3, 3))
        for length in np.unique(lengths):
            at = np.flatnonzero(lengths == length)
            mats[at] = _word_products(rep._letters, _reduced_words(np.stack([offsets[i] for i in at])))
        rows = _attracting_rows(mats[:, _SWAP_23][:, :, _SWAP_23])
        rejected += np.bincount(rows.status, minlength=3)
        ok = rows.status == HYPERBOLIC
        line_margins.append(_conic_rows(rows.lines[ok]))
        plane_margins.append(_conic_rows(rows.planes[ok]))
        missing -= int(ok.sum())
        if missing and rejected.sum() > CONIC_REJECTS_PER_SAMPLE * n_samples:
            raise NonHyperbolicError(
                f"conic_position_check: {n_samples - missing} of {n_samples} samples hyperbolic after "
                f"rejected_not_separated={int(rejected[NOT_SEPARATED])}, "
                f"rejected_not_real={int(rejected[NOT_REAL])} draws"
            )
    cv = np.concatenate(line_margins)
    dv = np.concatenate(plane_margins)
    return {
        "samples": n_samples,
        "lines_outside": int(np.count_nonzero(cv > 0)),
        "planes_meet_interior": int(np.count_nonzero(dv > 0)),
        "min_line_margin": float(cv.min()),
        "min_plane_margin": float(dv.min()),
        "seed": seed,
        "rejected_not_separated": int(rejected[NOT_SEPARATED]),
        "rejected_not_real": int(rejected[NOT_REAL]),
    }


def flow_nesting_certify(
    direction_angle: float, times, n_boundary_samples: int = 1024
) -> dict:
    """Nestedness of the model cone under its own axis flow.

    For each time t the cone translated by t along the axis geodesic is
    tested for strict nestedness inside the base cone, and the nestedness
    amount is estimated ((t - tol)/2, past t of about 47 a ``NumericalDomainError``).
    """
    if n_boundary_samples < 1:
        raise GeometryError("flow_nesting_certify: n_boundary_samples must be at least 1")
    base = Multicone.model(direction_angle)
    results = []
    all_nested = True
    for t in times:
        t = float(t)
        if t < 0 or not np.isfinite(t):
            raise GeometryError("times must be nonnegative")
        inner = base.translated_along_axis(t)
        # is_nested then nest_estimate, sharing one set of sampled positions
        positions = _inner_positions(base, inner, n_boundary_samples)
        nested = _all_inside(positions, DEFAULT_TOL)
        entry = {"t": t, "nested": bool(nested), "estimate": None}
        if nested:
            entry["estimate"] = _nest_lower(positions, DEFAULT_TOL)
        all_nested = all_nested and nested
        results.append(entry)
    return {
        "direction_angle": float(direction_angle),
        "samples": int(n_boundary_samples),
        "results": results,
        "all_nested": all_nested,
    }
