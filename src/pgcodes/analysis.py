"""Codeword analytics: classification, spectra, search, traces, tangency.

Everything operates on plain uint8 words over the global point order.  The
spectrum enumerator, the minimum-weight proof and the information-set
search delegate their inner loops to the kernels module; this module owns
the mathematics around them (classification of what was found,
deduplication, deterministic ordering, and the proof's bound and checks).

Word classification and subspace traces ask one question of a point set:
is it a hyperplane, or the symmetric difference of two hyperplanes?
_hyperplane_shapes answers it for a whole stack of sets with meet-count
products, for the supports of words in PG(n, q) and for the traces on the
h-subspaces in PG(h, q) alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from pgcodes import kernels
from pgcodes.code import CodeModel, as_word, as_words, build_model, in_row_space
from pgcodes.geometry import (
    DimensionOutOfRange,
    GeometrySpec,
    Hyperplane,
    ProjPoint,
    Subspace,
    as_mask,
    as_point_index,
    enumerate_subspaces,
    global_point_indices,
    incidence_bool,
    line_through_pairs,
    point_array,
    point_mask,
    points_at,
    subspace_point_indices,
    _subspace_from_rows,
)
from pgcodes.gf import make_field

DEFAULT_BUDGET = 2**22


class DimensionTooLow(ValueError):
    """Subspace dimension below what the operation guarantees."""


class BudgetExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the message budget."""


class InconsistentSpectrum(RuntimeError):
    """A sweep's result cannot be right: its weight histogram violates the
    MacWilliams identities."""


class InconsistentProof(RuntimeError):
    """A minimum-weight proof cannot be right: the symmetries it rests on, the
    message count of an enumerated weight, or the lightest word fails its
    check."""


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
    by (weight, entries), so the words of a lower limit are its leading rows.
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
    return points_at(g, support(as_word(g, w)))


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


def _hyperplane_shapes(inc: np.ndarray, sets: np.ndarray):
    """The hyperplane shapes of boolean point sets of a projective space.

    inc holds the space's hyperplanes as boolean rows over its points, and
    sets one point set per row.  Returns (equal, pairs): the hyperplane each
    set equals, and the pair h1 < h2 of hyperplanes whose symmetric
    difference it is, with -1 where there is none.

    Both tests are products with inc, which give |S & H| for a set S and
    every hyperplane H at once.  With theta_{d-1} points on a hyperplane of
    a d-space, S is H when |S| = |S & H| = theta_{d-1}.  Two hyperplanes
    share theta_{d-2} points and so differ in half = q^{d-1}: S = H1 ^ H2
    needs |S| = 2 half and |S & H1| = half.  When S is H1 ^ H2, every H
    with |S & H| = half pairs with the hyperplane S ^ H: for q > 2 only H1
    and H2 meet S in half points, and for q = 2 S is the complement of the
    third hyperplane H3 through H1 & H2, which every other H meets in half
    points, and S ^ H is the third hyperplane through H & H3.  So the first
    such H decides: S ^ H has theta_{d-1} points, a second product tells
    whether it is a hyperplane, and H and its partner are the smallest pair.
    """
    cols = inc.T.astype(np.float32)
    plane = int(inc[0].sum())
    half = plane - int((inc[0] & inc[1]).sum())
    sizes = sets.sum(axis=1)
    equal = np.full(sets.shape[0], -1, dtype=np.int64)
    pairs = np.full((sets.shape[0], 2), -1, dtype=np.int64)

    cand = np.nonzero(sizes == plane)[0]
    full = sets[cand].astype(np.float32) @ cols == plane
    hit = full.any(axis=1)
    equal[cand[hit]] = full[hit].argmax(axis=1)

    cand = np.nonzero(sizes == 2 * half)[0]
    meets = sets[cand].astype(np.float32) @ cols == half
    first = meets.argmax(axis=1)
    partner = (sets[cand] ^ inc[first]).astype(np.float32) @ cols == plane
    found = meets.any(axis=1) & partner.any(axis=1)
    pairs[cand[found]] = np.stack([first[found], partner[found].argmax(axis=1)], axis=1)
    return equal, pairs


def classify_words(model: CodeModel, words) -> WordClassifications:
    """classify_word for every row of an (m, theta_n) word array.

    _hyperplane_shapes tells which supports are a hyperplane H or a
    symmetric difference H1 ^ H2 of two (h1 < h2).  A multiple is a constant
    word on a support H.  A difference is a word on a support H1 ^ H2 that
    a(v^H1 - v^H2) or a(v^H2 - v^H1) rebuilds, with a its entry at the first
    support index.  The witness is (h1, h2) when that order rebuilds it,
    which it always does for p = 2, and (h2, h1) otherwise; for odd p this
    puts first the hyperplane that holds the first support point.
    """
    g = model.geometry
    arr = as_words(g, words)
    columns = np.empty((4, arr.shape[0]), dtype=np.int64)
    for rows in kernels.row_blocks(arr.shape[0], 4 * arr.shape[1]):
        columns[:, rows] = _classify_block(g, arr[rows])
    return WordClassifications(g, *columns)


def _classify_block(g: GeometrySpec, arr: np.ndarray):
    p = g.field.p
    inc = incidence_bool(g)
    m = arr.shape[0]
    kinds = np.full(m, _OTHER, dtype=np.int64)
    scalars = np.zeros(m, dtype=np.int64)
    h1 = np.full(m, -1, dtype=np.int64)
    h2 = np.full(m, -1, dtype=np.int64)
    nonzero = arr != 0
    lead = arr[np.arange(m), nonzero.argmax(axis=1)]
    equal, pairs = _hyperplane_shapes(inc, nonzero)
    kinds[~nonzero.any(axis=1)] = _ZERO

    constant = ((arr == lead[:, None]) | ~nonzero).all(axis=1)
    rows = np.nonzero(constant & (equal >= 0))[0]
    kinds[rows] = _MULTIPLE
    scalars[rows] = lead[rows]
    h1[rows] = equal[rows]

    # on its support H1 ^ H2, a(v^H1 - v^H2) is a on H1 and -a on H2
    cand = np.nonzero(pairs[:, 0] >= 0)[0]
    lo, hi = pairs[cand].T
    a, off = lead[cand], ~nonzero[cand]
    plus, minus = arr[cand] == a[:, None], arr[cand] == (p - a)[:, None]
    forward = ((plus & inc[lo]) | (minus & inc[hi]) | off).all(axis=1)
    ok = forward | ((plus & inc[hi]) | (minus & inc[lo]) | off).all(axis=1)
    rows = cand[ok]
    kinds[rows] = _DIFFERENCE
    scalars[rows] = a[ok]
    h1[rows] = np.where(forward, lo, hi)[ok]
    h2[rows] = np.where(forward, hi, lo)[ok]
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
) -> SpectrumReport:
    """Full weight distribution by one kernels.spectrum sweep of all messages.

    Collects every nonzero word of weight <= collect_limit (default
    2q^{n-1}), however many there are, sorted by (weight, entries).  The
    histogram must pass the MacWilliams identities (dual_weight_counts
    raises InconsistentSpectrum otherwise).
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
    hist, words = kernels.spectrum(model.generator, p, collect_limit)
    dual_weight_counts(hist, p, model.dimension)
    counts = {int(w): int(c) for w, c in enumerate(hist) if c}
    return SpectrumReport(
        weight_counts=counts,
        exhaustive=True,
        budget=budget,
        messages=messages,
        collect_limit=collect_limit,
        low_weight=_sort_words(words),
    )


# -- minimum weight from one information set ---------------------------------
#
# The single-set form of the Brouwer-Zimmermann algorithm (Zimmermann 1996;
# Brouwer, Handbook of Coding Theory, 1998), as used for cyclic codes.  A
# reduced basis is systematic on its k pivot columns I, so a word's message
# is the word on I.  Let G be a group of point permutations that preserves
# the code and is transitive on the n points.  Summed over G, the nonzeros
# that the images of a word c of weight w put on I come to |G| k w / n, so
# some image gc, a codeword of weight w too, has at most floor(k w / n) of
# them.  Once every message of weight at most t is enumerated, an unfound
# word therefore weighs at least ceil((t + 1) n / k), and the lightest word
# found is the minimum as soon as that bound reaches it.


def _orbit_messages(k: int, w: int, p: int) -> int:
    """Messages of weight w of a k-row basis, one per scalar orbit."""
    return comb(k, w) * (p - 1) ** (w - 1)


def _certify_symmetries(perms: np.ndarray, basis: np.ndarray, contains_rows) -> None:
    """Raise InconsistentProof unless the rows of perms, where row j maps
    point i to point perms[j, i], are permutations of the basis's n points
    that generate a group transitive on them (the orbit of point 0 is every
    point) and move every basis row into the code (contains_rows)."""
    k, n = basis.shape
    if perms.ndim != 2 or perms.shape[1] != n or not (np.sort(perms, axis=1) == np.arange(n)).all():
        raise InconsistentProof(f"the symmetries are no permutations of {n} points")
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = np.zeros(n, dtype=bool)
        new[perms[:, frontier]] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    if not reached.all():
        raise InconsistentProof(f"the symmetries reach {int(reached.sum())} of {n} points from point 0")
    # the image of row r under permutation j has basis[r, i] at perms[j, i]
    moved = basis[:, np.argsort(perms, axis=1)].reshape(-1, n)
    if not contains_rows(moved).all():
        raise InconsistentProof("a symmetry moves a basis row out of the code")


def minimum_weight(basis, p: int, symmetries, contains_rows=None):
    """The minimum weight of the code a reduced basis spans over F_p, or None
    for a basis with no rows, proved from the basis's own information set.

    symmetries is an (m, n) array of point permutations of the code, row j
    mapping point i to point row[i], that generate a group transitive on
    the points.  The basis is taken as kernels.spectrum takes it, and its
    lightest row is the first word to beat.  The proof enumerates the
    messages of weight t = 1, 2, ... one per scalar orbit
    (kernels.lightest_words) until ceil((t + 1) n / k) reaches the lightest
    word found.  contains_rows tests code membership of word rows (default:
    the basis's row space).  The proof checks its premise and each step,
    and raises InconsistentProof when one fails: the symmetries must pass
    _certify_symmetries, every enumerated weight must have its exact
    message count, and the lightest word, rebuilt from its message digits,
    must have the claimed weight and lie in the code.
    """
    basis, free = kernels._reduced_basis(basis, p)
    k, n = basis.shape
    if not k:
        return None
    pivots = np.flatnonzero(~free)
    if contains_rows is None:
        def contains_rows(words):
            return in_row_space(words, basis, pivots, p)
    _certify_symmetries(np.asarray(symmetries), basis, contains_rows)
    weights = np.count_nonzero(basis, axis=1)
    best, word = int(weights.min()), basis[weights.argmin()]
    # level t runs while ceil(t n / k) < best, that is while t n <= (best - 1) k
    top = min(k, (best - 1) * k // n)
    levels = kernels.lightest_words(basis, p, top)
    for t in range(1, top + 1):
        if -(-t * n // k) >= best:
            break
        messages, weight, found = next(levels)
        if messages != _orbit_messages(k, t, p):
            raise InconsistentProof(
                f"{messages} messages of weight {t}, not {_orbit_messages(k, t, p)}"
            )
        if weight < best:
            best, word = weight, found
    rebuilt = kernels._product_mod_p(word[pivots][None], basis, p)
    rebuilds = (rebuilt[0] == word).all() and np.count_nonzero(word) == best
    if not (rebuilds and contains_rows(rebuilt)[0]):
        raise InconsistentProof(f"the lightest word is no codeword of weight {best}")
    return best


# -- randomized low-weight search --------------------------------------------


def low_weight_search(
    model: CodeModel, max_weight: int, iterations: int, seed: int
) -> SearchResult:
    """Lee-Brickell style information-set search, deterministic given seed.

    Each round permutes the columns at random, re-systematizes, and keeps
    codewords spanned by at most two rows of the systematized generator.
    Rounds run in batches of kernels.row_blocks, k x theta_n bytes a round;
    one rng.permuted call draws a batch's permutations, the same
    permutations in the same order, and the same generator state, as one
    rng.permutation per round.  Finds are deduplicated exactly as canonical
    (leading entry 1) scalar-orbit representatives, and words holds every
    scalar multiple of them.  Not guaranteed complete.
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
    inverse = make_field(p).inv_table
    rng = np.random.default_rng(seed)
    orbits = empty
    for batch in kernels.row_blocks(iterations, model.dimension * npts):
        perms = rng.permuted(np.tile(np.arange(npts), (batch.stop - batch.start, 1)), axis=1)
        rows = kernels.isd_rounds(model.generator, perms, p, max_weight)[0]
        lead = rows[np.arange(rows.shape[0]), (rows != 0).argmax(axis=1)]
        canon = kernels._mod_p(rows * inverse[lead][:, None].astype(np.uint16), p)
        orbits = np.concatenate([orbits, canon.astype(np.uint8)])
        orbits = orbits[np.unique(_row_keys(orbits), return_index=True)[1]]
    wide = orbits.astype(np.uint16)
    words = np.concatenate([kernels._mod_p(a * wide, p) for a in range(1, p)])
    return SearchResult(
        _sort_words(words.astype(np.uint8)), _sort_words(orbits), iterations, seed, max_weight
    )


# -- subspace traces ---------------------------------------------------------


def _ambient_subspace_from_indices(g: GeometrySpec, idx) -> Subspace:
    return _subspace_from_rows(g, point_array(g)[list(idx)])


def classify_subspace_traces(
    g: GeometrySpec, points, h: int
) -> dict[Subspace, TraceClass]:
    """Classify X's trace on every h-subspace against the trichotomy shapes.

    Kinds: Empty, SymmetricDifferenceOfTwoHyperplanesOfS, AffineComplement
    (S minus one of its hyperplanes), HyperplaneOfS, Other — checked in that
    priority order (for q = 2 a symmetric difference and an affine
    complement describe the same traces).  One _hyperplane_shapes call
    takes every trace and one every trace's complement in S, over the
    hyperplanes of PG(h, q) in S's internal point order; a line's
    hyperplanes are its points.  Witnesses are those hyperplanes as ambient
    subspaces, the smaller internal index first.
    """
    if not 1 <= h <= g.n - 1:
        raise DimensionOutOfRange(f"h must be in [1, {g.n - 1}], got {h}")
    mask = point_mask(g, points)
    space_pts = subspace_point_indices(g, h)
    traces = mask[space_pts]
    inc = incidence_bool(GeometrySpec(g.field, h)) if h > 1 else np.eye(g.q + 1, dtype=bool)
    equal, pairs = _hyperplane_shapes(inc, traces)
    missing = _hyperplane_shapes(inc, ~traces)[0]
    shapes = zip(enumerate_subspaces(g, h), space_pts, traces.any(axis=1), equal, pairs, missing)
    out: dict[Subspace, TraceClass] = {}
    for s, pts, occupied, e, pair, m in shapes:
        if not occupied:
            kind, hyps = TraceKind.EMPTY, ()
        elif pair[0] >= 0:
            kind, hyps = TraceKind.SYMMETRIC_DIFFERENCE, pair
        elif m >= 0:
            kind, hyps = TraceKind.AFFINE_COMPLEMENT, (m,)
        elif e >= 0:
            kind, hyps = TraceKind.HYPERPLANE, (e,)
        else:
            kind, hyps = TraceKind.OTHER, ()
        witnesses = (_ambient_subspace_from_indices(g, pts[inc[j]]) for j in hyps)
        out[s] = TraceClass(kind, tuple(witnesses))
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
    """(m, theta_n) answers for an (m, theta_n) 0/1 mask array of planar
    point sets: are the tangent points of set w seen from point Q collinear?

    Entries at points Q of the set itself are True: every line through Q
    then meets the set twice, so there are no tangent points.
    """
    if g.n != 2:
        raise DimensionOutOfRange("tangent collinearity is a planar check")
    sets = as_mask(g, inside, 2)
    ok = np.empty(sets.shape, dtype=bool)
    for rows in kernels.row_blocks(sets.shape[0], 4 * g.num_points**2):
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
    mask = point_mask(g, points)
    qi = as_point_index(g, q_point)
    if mask[qi]:
        raise QInX(f"point index {qi} lies in the set")
    if not model.contains(mask.view(np.uint8)):
        raise NotInCode("the set's incidence vector is not a codeword")
    size, top, best = (a[0, qi] for a in _tangent_block(g, mask[None]))
    if size < 2:
        return True, None
    if top != size:
        return False, None
    return True, _ambient_subspace_from_indices(g, subspace_point_indices(g, 1)[best].tolist())
