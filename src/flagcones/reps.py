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
linear gap growth certifying the Anosov property.  ``limit_flag_sample``
extracts attracting eigenflags, ``conic_position_check`` locates them
relative to the fibration conic, and ``flow_nesting_certify`` runs the
cone-nestedness certificate along an axis flow.

Words are handled as arrays of letter indices into ``LETTERS`` and
evaluated in batches: a stack of N words is multiplied left to right as
one (N,3,3) matmul per position against the (8,3,3) letter stack of the
representation, and each exhaustive length is the previous length's
product stack times its 7 reduced successors.  Sampling takes one seeded
draw per length, letter for letter the draws of ``random_reduced_word``.
Enumeration order is deterministic (length, then lexicographic in
``LETTERS`` order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .flags import Flag, GeometryError, GroupElem, ProjectiveCovector, ProjectivePoint
from .cones import DEFAULT_TOL, Multicone, _all_inside, _inner_positions, _nest_lower
from .plane import conic_eval, dual_conic_eval

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

_SWAP_23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_SWAP_23.setflags(write=False)


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


@dataclass(frozen=True)
class SurfaceGroupPresentation:
    """Genus-2 presentation: generators a1, b1, a2, b2 with one relation."""

    genus: int = 2
    generators: tuple = GENERATOR_NAMES
    relation: tuple = RELATION_WORD


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


def is_cyclically_reduced(word) -> bool:
    return len(word) == 0 or word[0] != -word[-1]


def cyclic_reduce(word) -> tuple:
    w = list(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


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
    idx = np.empty_like(offsets)
    idx[:, 0] = offsets[:, 0]
    for k in range(1, length):
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


def _batch_gaps(mats: np.ndarray):
    s = np.linalg.svd(mats, compute_uv=False)
    sg12 = np.log(s[:, 0] / s[:, 1])
    sg23 = np.log(s[:, 1] / s[:, 2])
    return sg12, sg23


def _batch_lg12(mats: np.ndarray):
    moduli = np.sort(np.abs(np.linalg.eigvals(mats)), axis=1)[:, ::-1]
    return np.log(moduli[:, 0] / moduli[:, 1])


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

    idx = np.arange(8)[:, None]
    mats = rep._letters
    for length in range(1, min(max_len, exhaustive_len) + 1):
        if length > 1:
            successors = _SUCCESSORS[idx[:, -1]]
            mats = (mats[:, None] @ rep._letters[successors]).reshape(-1, 3, 3)
            idx = np.concatenate([np.repeat(idx, 7, axis=0), successors.reshape(-1, 1)], axis=1)
        rows.append(_length_row(idx, mats))

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
            rows.append(_length_row(idx, mats))

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


def _length_row(idx, mats):
    """Gap statistics of one length's (N, length) index words and their (N,3,3) images."""
    length = idx.shape[1]
    if not np.isfinite(mats).all():
        raise GeometryError(f"word products of length {length} overflow float64")
    sg12, sg23 = _batch_gaps(mats)
    cyc = idx[:, 0] != (idx[:, -1] ^ 1)
    min_lg12 = float(_batch_lg12(mats[cyc]).min()) if cyc.any() else math.nan
    return {
        "length": int(length),
        "count": len(idx),
        "min_sg12": float(sg12.min()),
        "med_sg12": float(np.median(sg12)),
        "min_sg23": float(sg23.min()),
        "min_lg12": min_lg12,
    }


#: Relative gap ``attracting_flag`` requires between successive eigenvalue moduli.
ATTRACTING_GAP_TOL = 1e-9


def attracting_flag(mat) -> Flag:
    """Attracting eigenflag of a matrix with strictly dominant eigenvalues.

    The line is the dominant eigenvector; the plane is the invariant
    hyperplane spanned by the two dominant eigendirections, i.e. the
    covector is the dominant left eigenvector of the inverse.
    """
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    m1, m2, m3 = np.abs(vals)
    if not (m1 > (1.0 + ATTRACTING_GAP_TOL) * m2 and m2 > (1.0 + ATTRACTING_GAP_TOL) * m3):
        raise NonHyperbolicError("eigenvalue moduli are not strictly separated")
    left = np.linalg.inv(vecs)[2, :]
    line = vecs[:, 0]
    if max(float(np.abs(line.imag).max()), float(np.abs(left.imag).max())) > 1e-9:
        raise NonHyperbolicError("dominant eigendata is not real")
    return Flag(ProjectivePoint(line.real), ProjectiveCovector(left.real))


def limit_flag_sample(rep: Representation, word) -> Flag:
    """Attractor flag of the image of a word (hyperbolic image required)."""
    w = reduce_word(word)
    if not w:
        raise NonHyperbolicError("empty word has no attracting flag")
    return attracting_flag(rep.evaluate(w))


def conic_position_check(rep: Representation, n_samples: int = 1000, seed: int = 0) -> dict:
    """Position of sampled limit flags relative to the fibration conic.

    Requires the untwisted reducible family.  Images are conjugated into
    the model-plane coordinates (middle coordinate fixed) before the conic
    evaluations.  Lines are expected outside the conic, planes are
    expected to meet its interior; minimal margins are reported.
    """
    chi = rep.params.get("chi")
    if rep.family != "reducible-fuchsian" and not (
        rep.family == "barbot-twist" and chi is not None and max(abs(v) for v in chi) == 0.0
    ):
        raise GeometryError("conic_position_check needs the reducible Fuchsian family")
    if n_samples < 1:
        raise GeometryError("conic_position_check needs at least one sample")
    rng = np.random.default_rng(seed)
    lines_outside = 0
    planes_meet = 0
    min_line_margin = math.inf
    min_plane_margin = math.inf
    collected = 0
    while collected < n_samples:
        w = random_reduced_word(rng, int(rng.integers(1, 7)))
        try:
            m = rep.evaluate(w)
            f = attracting_flag(_SWAP_23 @ m @ _SWAP_23)
        except NonHyperbolicError:
            continue
        collected += 1
        cv = conic_eval(f.line)
        dv = dual_conic_eval(f.plane)
        if cv > 0:
            lines_outside += 1
        if dv > 0:
            planes_meet += 1
        min_line_margin = min(min_line_margin, cv)
        min_plane_margin = min(min_plane_margin, dv)
    return {
        "samples": n_samples,
        "lines_outside": lines_outside,
        "planes_meet_interior": planes_meet,
        "min_line_margin": min_line_margin,
        "min_plane_margin": min_plane_margin,
        "seed": seed,
    }


def flow_nesting_certify(
    direction_angle: float, times, n_boundary_samples: int = 1024
) -> dict:
    """Nestedness of the model cone under its own axis flow.

    For each time t the cone translated by t along the axis geodesic is
    tested for strict nestedness inside the base cone, and the nestedness
    amount is estimated (about t/2 for the model translates).
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
        nested = _all_inside(positions, 0.0, DEFAULT_TOL)
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
