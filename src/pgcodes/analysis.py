"""Codeword analytics: classification, spectra, search, traces, tangency.

Everything operates on plain uint8 words over the global point order.  The
spectrum enumerator and the information-set search delegate their inner
loops to the kernels module; this module owns the mathematics around them
(classification of what was found, deduplication, deterministic ordering).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from pgcodes import kernels
from pgcodes.code import (
    CodeModel,
    LengthMismatch,
    as_word,
    as_words,
    build_incidence_matrix,
    build_model,
    row_blocks,
)
from pgcodes.geometry import (
    DimensionOutOfRange,
    GeometrySpec,
    Hyperplane,
    ProjPoint,
    Subspace,
    as_point_index,
    enumerate_points,
    enumerate_subspaces,
    global_point_indices,
    hyperplane_point_indices,
    incidence_bool,
    line_through_pairs,
    point_array,
    subspace_point_indices,
    theta,
    _subspace_from_rows,
)

DEFAULT_BUDGET = 2**22


class DimensionTooLow(ValueError):
    """Subspace dimension below what the operation guarantees."""


class BudgetExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the message budget."""


class NoInformationSetFound(RuntimeError):
    """Could not systematize the generator on any sampled column set."""


class InconsistentSpectrum(RuntimeError):
    """A sweep's result cannot be right: its weight histogram violates the
    MacWilliams identities, or it dropped words it was sized to keep."""


class NotInCode(ValueError):
    """Word is not a codeword of the relevant code."""


class QInX(ValueError):
    """External point actually belongs to the point set."""


class WordKind(enum.Enum):
    ZERO = "Zero"
    HYPERPLANE_MULTIPLE = "HyperplaneMultiple"
    HYPERPLANE_DIFFERENCE = "HyperplaneDifference"
    OTHER = "Other"


@dataclass(frozen=True)
class WordClassification:
    kind: WordKind
    scalar: int | None = None
    h1: Hyperplane | None = None
    h2: Hyperplane | None = None


class TraceKind(enum.Enum):
    EMPTY = "Empty"
    HYPERPLANE = "HyperplaneOfS"
    SYMMETRIC_DIFFERENCE = "SymmetricDifferenceOfTwoHyperplanesOfS"
    AFFINE_COMPLEMENT = "AffineComplement"
    OTHER = "Other"


@dataclass(frozen=True)
class TraceClass:
    kind: TraceKind
    witnesses: tuple[Subspace, ...] = ()


@dataclass
class LineProfile:
    residues: dict[int, int]
    tangent_lines: int


@dataclass
class SpectrumReport:
    """Weight distribution plus the collected low-weight words.

    low_weight holds every nonzero word of weight <= collect_limit, sorted
    by (weight, entries) so output is identical across kernel backends.
    """

    weight_counts: dict[int, int]
    exhaustive: bool
    budget: int
    messages: int
    collect_limit: int
    low_weight: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "counts": {str(w): c for w, c in sorted(self.weight_counts.items())},
            "exhaustive": self.exhaustive,
            "budget": self.budget,
            "messages": self.messages,
        }

    def to_csv_rows(self) -> list[tuple[int, int]]:
        return sorted(self.weight_counts.items())


@dataclass
class SearchResult:
    """Distinct low-weight words found by randomized search.

    words contains every found word (all scalar multiples separately);
    orbit_representatives has one canonical word (leading entry 1) per
    scalar orbit.  Both sorted by (weight, entries).
    """

    words: np.ndarray
    orbit_representatives: np.ndarray
    iterations: int
    seed: int
    max_weight: int

    def to_json_dict(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "iterations": self.iterations,
            "seed": self.seed,
            "words": [digit_string(row) for row in self.words],
            "orbit_representatives": [
                digit_string(row) for row in self.orbit_representatives
            ],
        }


def digit_string(w: np.ndarray) -> str:
    """Word as a digit string over the global point order.

    Digits are joined bare while they are single characters (p < 11) and
    comma-separated otherwise to stay unambiguous.
    """
    digits = [str(int(x)) for x in np.asarray(w)]
    if all(len(d) == 1 for d in digits):
        return "".join(digits)
    return ",".join(digits)


# -- supports and restriction ------------------------------------------------


def support(w: np.ndarray) -> np.ndarray:
    """Indices of the nonzero entries."""
    return np.nonzero(np.asarray(w))[0]


def support_points(g: GeometrySpec, w) -> list[ProjPoint]:
    pts = enumerate_points(g)
    return [pts[int(i)] for i in support(as_word(g, w))]


def restrict(w, s: Subspace) -> np.ndarray:
    """Entries of w at the points of s, in s's internal point order."""
    word = as_word(s.geometry, w)
    return word[global_point_indices(s)]


def restriction_model(s: Subspace) -> CodeModel:
    """The point-hyperplane code of the subspace itself."""
    if s.dim < 2:
        raise DimensionTooLow(f"membership guarantee needs dim >= 2, got {s.dim}")
    return build_model(GeometrySpec(s.geometry.field, s.dim))


# -- line profiles -----------------------------------------------------------


def tally(values) -> dict[int, int]:
    """How often each distinct value occurs, in ascending order of value."""
    distinct, counts = np.unique(values, return_counts=True)
    return {int(v): int(c) for v, c in zip(distinct, counts)}


def line_profile(g: GeometrySpec, w) -> LineProfile:
    """Tally of support-line intersection residues mod p, plus tangents."""
    word = as_word(g, w)
    mask = word != 0
    counts = mask[subspace_point_indices(g, 1)].sum(axis=1)
    return LineProfile(residues=tally(counts % g.field.p), tangent_lines=int((counts == 1).sum()))


# -- classification ----------------------------------------------------------

# WordClassifications.kinds holds positions in this tuple
_KINDS = (
    WordKind.ZERO,
    WordKind.HYPERPLANE_MULTIPLE,
    WordKind.HYPERPLANE_DIFFERENCE,
    WordKind.OTHER,
)
_ZERO, _MULTIPLE, _DIFFERENCE, _OTHER = range(len(_KINDS))

@dataclass(frozen=True, eq=False)
class WordClassifications:
    """classify_words result: one entry per row, as parallel arrays.

    kinds holds positions in _KINDS; scalars is 0 and h1, h2 are -1
    (hyperplane indices otherwise) where a kind carries no such witness.
    Indexing gives the row's WordClassification.
    """

    geometry: GeometrySpec
    kinds: np.ndarray
    scalars: np.ndarray
    h1: np.ndarray
    h2: np.ndarray

    def __len__(self) -> int:
        return self.kinds.shape[0]

    def __getitem__(self, i: int) -> WordClassification:
        kind = _KINDS[self.kinds[i]]
        if kind in (WordKind.ZERO, WordKind.OTHER):
            return WordClassification(kind)
        g = self.geometry
        h2 = int(self.h2[i])
        return WordClassification(
            kind,
            scalar=int(self.scalars[i]),
            h1=_hyperplane_by_index(g, int(self.h1[i])),
            h2=_hyperplane_by_index(g, h2) if h2 >= 0 else None,
        )

    def of_kind(self, kind: WordKind) -> np.ndarray:
        """Boolean mask of the rows classified as kind."""
        return self.kinds == _KINDS.index(kind)

    def counts(self) -> dict[str, int]:
        """Rows per kind value, for the kinds that occur."""
        tally = np.bincount(self.kinds, minlength=len(_KINDS))
        return {kind.value: int(c) for kind, c in zip(_KINDS, tally) if c}


def _hyperplane_by_index(g: GeometrySpec, i: int) -> Hyperplane:
    return Hyperplane(g, tuple(int(x) for x in point_array(g)[i]))


@lru_cache(maxsize=None)
def _incidence_columns(g: GeometrySpec) -> np.ndarray:
    """Transposed incidence matrix as float32, for exact meet-count products."""
    return build_incidence_matrix(g).T.astype(np.float32)


def _meet_counts(g: GeometrySpec, sets: np.ndarray) -> np.ndarray:
    """(r, theta_n) sizes |set & H| of each boolean row set with each hyperplane."""
    return sets.astype(np.float32) @ _incidence_columns(g)


def classify_words(model: CodeModel, words) -> WordClassifications:
    """classify_word for every row of an (m, theta_n) word array.

    All hyperplane tests are products with the incidence matrix, which give
    |S & H| for a point set S and every hyperplane H at once:

    - a multiple is constant on a support of weight theta_{n-1} that meets
      some H in all its points;
    - for p = 2 a word w of weight 2q^{n-1} is v^H1 + v^H2 iff w + v^H1 is a
      hyperplane vector, which needs |supp(w) & H1| = q^{n-1}; each such H1
      is tested with a second product and the smallest one that works is
      the witness;
    - for odd p the value a at the first support index splits the support
      into its a- and -a-classes, each of q^{n-1} points; each class must
      lie in exactly one hyperplane, and a(v^H1 - v^H2) must rebuild w.
    """
    g = model.geometry
    arr = as_words(g, words)
    parts = [_classify_block(g, arr[rows]) for rows in row_blocks(*arr.shape)]
    return WordClassifications(g, *(np.concatenate(col) for col in zip(*parts)))


def _classify_block(g: GeometrySpec, arr: np.ndarray):
    p, q, n = g.field.p, g.q, g.n
    plane, half = theta(n - 1, q), q ** (n - 1)
    m = arr.shape[0]
    kinds = np.full(m, _OTHER, dtype=np.int64)
    scalars = np.zeros(m, dtype=np.int64)
    h1 = np.full(m, -1, dtype=np.int64)
    h2 = np.full(m, -1, dtype=np.int64)
    nonzero = arr != 0
    weights = nonzero.sum(axis=1)
    lead = arr[np.arange(m), nonzero.argmax(axis=1)]
    kinds[weights == 0] = _ZERO

    constant = ((arr == lead[:, None]) | ~nonzero).all(axis=1)
    cand = np.nonzero(constant & (weights == plane))[0]
    full = _meet_counts(g, nonzero[cand]) == plane
    hit = full.any(axis=1)
    rows = cand[hit]
    kinds[rows] = _MULTIPLE
    scalars[rows] = lead[rows]
    h1[rows] = full[hit].argmax(axis=1)

    cand = np.nonzero(weights == 2 * half)[0]
    if p == 2:
        pos, hyp = np.nonzero(_meet_counts(g, nonzero[cand]) == half)
        rest = nonzero[cand[pos]] ^ incidence_bool(g)[hyp]
        partner = _meet_counts(g, rest) == plane
        found = partner.any(axis=1)
        pos, hyp, partner = pos[found], hyp[found], partner[found].argmax(axis=1)
        first = np.unique(pos, return_index=True)[1]
        rows = cand[pos[first]]
        scalars[rows] = 1
        h1[rows] = hyp[first]
        h2[rows] = partner[first]
    else:
        a = lead[cand]
        words = arr[cand]
        class_a = words == a[:, None]
        class_b = words == (p - a)[:, None]
        balanced = (class_a.sum(axis=1) == half) & (class_b.sum(axis=1) == half)
        cand, a, words = cand[balanced], a[balanced], words[balanced]
        through_a = _meet_counts(g, class_a[balanced]) == half
        through_b = _meet_counts(g, class_b[balanced]) == half
        ha, hb = through_a.argmax(axis=1), through_b.argmax(axis=1)
        inc = build_incidence_matrix(g)
        rebuilt = (a[:, None].astype(np.int64) * (inc[ha].astype(np.int64) - inc[hb])) % p
        # the rebuild also rules out ha == hb, which would give the zero word
        ok = (
            (through_a.sum(axis=1) == 1)
            & (through_b.sum(axis=1) == 1)
            & (rebuilt == words).all(axis=1)
        )
        rows = cand[ok]
        scalars[rows] = a[ok]
        h1[rows] = ha[ok]
        h2[rows] = hb[ok]
    kinds[rows] = _DIFFERENCE
    return kinds, scalars, h1, h2


def classify_word(model: CodeModel, w) -> WordClassification:
    """Structural classification of a word against the two theorems' shapes.

    HyperplaneMultiple: constant nonzero entries on exactly a hyperplane's
    point set.  HyperplaneDifference: a * (v^H1 - v^H2) for distinct
    hyperplanes; only words of weight 2q^{n-1} can have this shape, so the
    weight acts as an exact gate, not a heuristic.  Witnesses are
    deterministic: the lexicographically smallest (H1, H2) pair for p = 2,
    and the pair anchored at the smallest support index for odd p.  This is
    the one-row case of classify_words.
    """
    return classify_words(model, as_word(model.geometry, w)[None])[0]


# -- spectrum ----------------------------------------------------------------


def _row_keys(words: np.ndarray) -> np.ndarray:
    """Each uint8 row as one byte string; these order like the rows' bytes."""
    return np.ascontiguousarray(words).view(np.dtype((np.void, words.shape[1]))).ravel()


def _sort_words(words: np.ndarray) -> np.ndarray:
    """Rows ordered by (weight, bytes)."""
    return words[np.lexsort((_row_keys(words), np.count_nonzero(words, axis=1)))]


def dual_weight_counts(hist, p: int, k: int) -> list[int]:
    """Weight distribution B_0..B_n of the dual of a k-dimensional code over
    F_p whose weight histogram is hist (hist[i] = A_i).

    The MacWilliams identities give B_j = p^-k sum_i A_i K_j(i), computed in
    exact integers.  The Krawtchouk values K_j(i) follow the recurrence
    (j+1) K_{j+1}(i) = (j + (p-1)(n-j) - p i) K_j(i) - (p-1)(n-j+1) K_{j-1}(i)
    over the nonzero A_i only.  Raises InconsistentSpectrum unless every B_j
    is a non-negative integer, B_0 = 1 and sum_j B_j = p^(n-k).
    """
    n = len(hist) - 1
    support = [(i, int(a)) for i, a in enumerate(hist) if a]
    prev, cur = [0] * len(support), [1] * len(support)
    counts = []
    for j in range(n + 1):
        total = sum(a * kj for (_, a), kj in zip(support, cur))
        if total < 0 or total % p**k:
            raise InconsistentSpectrum(f"MacWilliams: B_{j} = {total} / {p}^{k}")
        counts.append(total // p**k)
        prev, cur = cur, [
            ((j + (p - 1) * (n - j) - p * i) * kj - (p - 1) * (n - j + 1) * km) // (j + 1)
            for (i, _), kj, km in zip(support, cur, prev)
        ]
    if counts[0] != 1 or sum(counts) != p ** (n - k):
        raise InconsistentSpectrum(
            f"MacWilliams: B_0 = {counts[0]}, sum of B_j = {sum(counts)}, not p^(n-k)"
        )
    return counts


def enumerate_spectrum(
    model: CodeModel,
    budget: int = DEFAULT_BUDGET,
    collect_limit: int | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
) -> SpectrumReport:
    """Full weight distribution by Gray-coded enumeration of all messages.

    Collects every nonzero word of weight <= collect_limit (default
    2q^{n-1}); the collection buffer grows and retries on overflow so the
    returned set is complete even if the expected counts are exceeded.
    """
    g = model.geometry
    p = g.field.p
    messages = p**model.dimension
    if messages > budget:
        raise BudgetExceeded(
            f"p^dim = {messages} exceeds budget {budget}; use low_weight_search"
        )
    if collect_limit is None:
        collect_limit = 2 * g.q ** (g.n - 1)
    npts = g.num_points
    capacity = (p - 1) * npts + (p - 1) * npts * (npts - 1) // 2 + 64
    rows = np.ascontiguousarray(model.generator)
    while True:
        hist, words, overflow = kernels.spectrum(rows, p, collect_limit, capacity)
        if not overflow:
            break
        capacity *= 4
    dual_weight_counts(hist, p, model.dimension)
    words = _sort_words(words)
    if callback is not None:
        for w in words:
            callback(w)
    counts = {int(w): int(c) for w, c in enumerate(hist) if c}
    return SpectrumReport(
        weight_counts=counts,
        exhaustive=True,
        budget=budget,
        messages=messages,
        collect_limit=collect_limit,
        low_weight=words,
    )


# -- randomized low-weight search --------------------------------------------


def low_weight_search(
    model: CodeModel, max_weight: int, iterations: int, seed: int
) -> SearchResult:
    """Lee-Brickell style information-set search, deterministic given seed.

    Each round permutes the columns at random, re-systematizes, and keeps
    codewords spanned by at most two rows of the systematized generator.
    Rounds run in batches of kernels.isd_batch_size, drawing the same
    permutations in the same order as one round at a time.  Finds are
    deduplicated exactly as canonical (leading entry 1) scalar-orbit
    representatives, and words holds every scalar multiple of them.  Not
    guaranteed complete.
    """
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    g = model.geometry
    p = g.field.p
    npts = g.num_points
    empty = np.zeros((0, npts), dtype=np.uint8)
    if max_weight == 0:
        return SearchResult(empty, empty, iterations, seed, max_weight)
    if not model.generator[: model.dimension].any(axis=1).all():
        raise NoInformationSetFound("generator has a zero row")
    inverse = kernels._inverse_table(p)
    rng = np.random.default_rng(seed)
    batch = kernels.isd_batch_size(model.dimension, npts)
    orbits = empty
    for start in range(0, iterations, batch):
        perms = np.array([rng.permutation(npts) for _ in range(min(batch, iterations - start))])
        rows = kernels.isd_rounds(model.generator, perms, p, max_weight, inverse)[0]
        lead = rows[np.arange(rows.shape[0]), (rows != 0).argmax(axis=1)]
        canon = (rows * inverse[lead][:, None].astype(np.uint16)) % p
        orbits = np.concatenate([orbits, canon.astype(np.uint8)])
        orbits = orbits[np.unique(_row_keys(orbits), return_index=True)[1]]
    words = np.concatenate([(a * orbits.astype(np.uint16)) % p for a in range(1, p)])
    return SearchResult(
        _sort_words(words.astype(np.uint8)), _sort_words(orbits), iterations, seed, max_weight
    )


# -- subspace traces ---------------------------------------------------------


def _as_index_set(g: GeometrySpec, points) -> np.ndarray:
    """Coerce ProjPoints / indices / mask to a sorted unique index array."""
    if isinstance(points, np.ndarray) and points.dtype == bool:
        if points.shape != (g.num_points,):
            raise ValueError("mask length does not match the geometry")
        return np.nonzero(points)[0].astype(np.int32)
    return np.array(sorted({as_point_index(g, pt) for pt in points}), dtype=np.int32)


def _ambient_subspace_from_indices(g: GeometrySpec, idx: Iterable[int]) -> Subspace:
    rows = point_array(g)[np.asarray(list(idx), dtype=np.int64)]
    return _subspace_from_rows(g, rows)


def classify_subspace_traces(
    g: GeometrySpec, points, h: int
) -> dict[Subspace, TraceClass]:
    """Classify X's trace on every h-subspace against the trichotomy shapes.

    Kinds: Empty, SymmetricDifferenceOfTwoHyperplanesOfS, AffineComplement
    (S minus one of its hyperplanes), HyperplaneOfS, Other — checked in that
    priority order (for q = 2 a symmetric difference and an affine
    complement describe the same traces).
    """
    if not 1 <= h <= g.n - 1:
        raise DimensionOutOfRange(f"h must be in [1, {g.n - 1}], got {h}")
    xset = set(_as_index_set(g, points).tolist())
    spaces = enumerate_subspaces(g, h)
    space_pts = subspace_point_indices(g, h)
    out: dict[Subspace, TraceClass] = {}
    if h >= 2:
        internal = GeometrySpec(g.field, h)
        int_hyps = [set(row.tolist()) for row in hyperplane_point_indices(internal)]
    q = g.q
    for s, pts in zip(spaces, space_pts):
        pts_list = pts.tolist()
        trace = [i for i, gp in enumerate(pts_list) if gp in xset]
        tset = set(trace)
        if not tset:
            out[s] = TraceClass(TraceKind.EMPTY)
            continue
        if h == 1:
            if len(tset) == 2:
                wit = tuple(_ambient_subspace_from_indices(g, [pts_list[i]]) for i in trace)
                out[s] = TraceClass(TraceKind.SYMMETRIC_DIFFERENCE, wit)
            elif len(tset) == q:
                missing = [pts_list[i] for i in range(q + 1) if i not in tset]
                wit = (_ambient_subspace_from_indices(g, missing),)
                out[s] = TraceClass(TraceKind.AFFINE_COMPLEMENT, wit)
            elif len(tset) == 1:
                wit = (_ambient_subspace_from_indices(g, [pts_list[trace[0]]]),)
                out[s] = TraceClass(TraceKind.HYPERPLANE, wit)
            else:
                out[s] = TraceClass(TraceKind.OTHER)
            continue
        classified = False
        if len(tset) == 2 * q ** (h - 1):
            for i1 in range(len(int_hyps)):
                for i2 in range(i1 + 1, len(int_hyps)):
                    if int_hyps[i1] ^ int_hyps[i2] == tset:
                        wit = tuple(
                            _ambient_subspace_from_indices(g, (pts[sorted(int_hyps[j])]))
                            for j in (i1, i2)
                        )
                        out[s] = TraceClass(TraceKind.SYMMETRIC_DIFFERENCE, wit)
                        classified = True
                        break
                if classified:
                    break
        if classified:
            continue
        full = set(range(len(pts_list)))
        complement = full - tset
        if complement in int_hyps:
            wit = (_ambient_subspace_from_indices(g, pts[sorted(complement)]),)
            out[s] = TraceClass(TraceKind.AFFINE_COMPLEMENT, wit)
            continue
        if tset in int_hyps:
            wit = (_ambient_subspace_from_indices(g, pts[sorted(tset)]),)
            out[s] = TraceClass(TraceKind.HYPERPLANE, wit)
            continue
        out[s] = TraceClass(TraceKind.OTHER)
    return out


# -- tangent collinearity ----------------------------------------------------
#
# For a planar point set X and a point Q, the tangent points are the points
# P != Q of X whose line PQ meets X only at P.  Two distinct tangent points
# fix a line, so they are collinear iff there are fewer than two or one line
# holds them all.  Both counts are products with the point-line incidence
# matrix: |l & X| for every line l, then |l & T| for the tangent set T.


@lru_cache(maxsize=None)
def _line_columns(g: GeometrySpec) -> np.ndarray:
    """(theta_n, lines) float32 point-line incidence, for exact meet counts."""
    lines = subspace_point_indices(g, 1)
    cols = np.zeros((g.num_points, lines.shape[0]), dtype=np.float32)
    cols[lines, np.arange(lines.shape[0])[:, None]] = 1
    cols.setflags(write=False)
    return cols


def _tangent_block(g: GeometrySpec, sets: np.ndarray):
    """Per (set, Q) of an (r, theta_n) boolean block: |T|, the most points
    of T on one line, and that line's index."""
    lines = _line_columns(g)
    r, npts = sets.shape
    tangent = np.zeros((r, lines.shape[1] + 1), dtype=bool)
    tangent[:, :-1] = sets.astype(np.float32) @ lines == 1
    # the -1 that line_through_pairs holds for P = Q picks the last column,
    # which stays False; t[w, Q, P] says P is a tangent point of set w at Q
    t = tangent[:, line_through_pairs(g)] & sets[:, None, :]
    meets = t.reshape(r * npts, npts).astype(np.float32) @ lines
    best = meets.argmax(axis=1)
    top = meets[np.arange(best.size), best]
    return t.sum(axis=2), top.reshape(r, npts), best.reshape(r, npts)


def tangent_collinear_rows(g: GeometrySpec, inside) -> np.ndarray:
    """(m, theta_n) answers for an (m, theta_n) boolean array of planar point
    sets: are the tangent points of set w seen from point Q collinear?

    Entries at points Q of the set itself are True: every line through Q
    then meets the set twice, so there are no tangent points.
    """
    if g.n != 2:
        raise DimensionOutOfRange("tangent collinearity is a planar check")
    sets = np.asarray(inside, dtype=bool)
    if sets.ndim != 2 or sets.shape[1] != g.num_points:
        raise LengthMismatch(f"expected rows of length {g.num_points}, got shape {sets.shape}")
    ok = np.empty(sets.shape, dtype=bool)
    for rows in row_blocks(sets.shape[0], g.num_points**2):
        sizes, top, _ = _tangent_block(g, sets[rows])
        ok[rows] = (sizes < 2) | (top == sizes)
    return ok


def tangent_collinearity(model: CodeModel, points, q_point) -> tuple[bool, Subspace | None]:
    """For planar 0/1 codewords: are the tangent-through-Q points collinear?

    A point P of X counts when the line PQ meets X only at P.  Returns the
    common line as witness when at least two such points exist.  This is
    the one-row case of tangent_collinear_rows, after checking that Q lies
    outside X and that X's incidence vector is a codeword.
    """
    g = model.geometry
    if g.n != 2:
        raise DimensionOutOfRange("tangent collinearity is a planar check")
    xidx = _as_index_set(g, points)
    qi = as_point_index(g, q_point)
    if qi in xidx.tolist():
        raise QInX(f"point index {qi} lies in the set")
    mask = np.zeros(g.num_points, dtype=bool)
    mask[xidx] = True
    if not model.contains(mask.astype(np.uint8)):
        raise NotInCode("the set's incidence vector is not a codeword")
    size, top, best = (a[0, qi] for a in _tangent_block(g, mask[None]))
    if size < 2:
        return True, None
    if top != size:
        return False, None
    return True, _ambient_subspace_from_indices(g, subspace_point_indices(g, 1)[best].tolist())
