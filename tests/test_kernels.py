"""Kernel tests: the spectrum sweep, the batched search rounds and the
eliminator against naive oracles.

The sweep enumerates in an implementation-defined order, so histograms are
compared exactly and collected words as sets.  The batched search rounds and
the batched eliminator are checked item by item against each item's RREF.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes import kernels
from pgcodes.code import build_model
from pgcodes.geometry import GeometrySpec
from pgcodes.gf import make_field
from pgcodes.kernels import isd_batch_size, isd_rounds, spectrum

from helpers import (
    brute_force_isd_candidates,
    brute_force_spectrum,
    brute_force_words_of_weight,
    rref_mod_p_reference,
)


def random_rank_rows(rng, k, n, p):
    while True:
        rows = rng.integers(0, p, size=(k, n)).astype(np.uint8)
        # full row rank wanted so the message count is p^k exactly
        from pgcodes.code import p_rank

        if p_rank(rows, p) == k:
            return rows


def random_basis(rng, k, n, p):
    """The RREF of random_rank_rows: a random reduced basis, as the sweep takes."""
    return rref_mod_p_reference(random_rank_rows(rng, k, n, p), p)[0]


def _hist_as_counter(hist):
    return Counter({w: int(c) for w, c in enumerate(hist) if c})


def _words_up_to(rows, p, limit):
    expected = set()
    for w in range(1, limit + 1):
        expected |= brute_force_words_of_weight(rows, p, w)
    return expected


@pytest.mark.parametrize("k,n", [(3, 7), (6, 15), (9, 21), (10, 73)])
def test_spectrum_gf2_numpy_matches_bruteforce(k, n):
    rng = np.random.default_rng(k * 100 + n)
    rows = random_basis(rng, k, n, 2)
    limit = n // 2
    hist, words, overflow = spectrum(rows, 2, limit, 1 << k)
    assert not overflow
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 2)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, 2, limit)


@pytest.mark.parametrize("p,k,n", [(3, 4, 13), (3, 7, 13), (5, 4, 11), (7, 3, 8)])
def test_spectrum_modp_numpy_matches_bruteforce(p, k, n):
    rng = np.random.default_rng(p * 1000 + k)
    rows = random_basis(rng, k, n, p)
    limit = n // 2
    hist, words, overflow = spectrum(rows, p, limit, p**k)
    assert not overflow
    assert int(hist.sum()) == p**k
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, p, limit)


def test_spectrum_modp_numpy_does_not_wrap_for_large_p():
    # entry sums reach 2p - 2 > 255 once p >= 128
    rows = np.array([[1, 0, 130], [0, 1, 5]], dtype=np.uint8)
    hist, words, overflow = spectrum(rows, 131, 3, 131**2)
    assert hist.tolist() == [1, 0, 390, 16770]
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 131)
    assert not overflow
    assert words.shape[0] == 131**2 - 1


def test_overflow_truncates_words_but_not_histogram():
    rng = np.random.default_rng(5)
    rows = random_basis(rng, 6, 15, 2)
    full_hist, full_words, _ = spectrum(rows, 2, 15, 1 << 6)
    hist, words, overflow = spectrum(rows, 2, 15, 3)
    assert overflow
    assert words.shape[0] == 3
    assert np.array_equal(hist, full_hist)
    assert full_words.shape[0] == (1 << 6) - 1


@pytest.mark.parametrize("p", [3, 5])
def test_odd_p_overflow_truncates_words_but_not_histogram(monkeypatch, p):
    # one middle row and no suffix: every top step with a leading digit of 1
    # holds words for all p - 1 of its multiples, and capacity 3 cuts into
    # such an expanded block
    monkeypatch.setattr(kernels, "_SPECTRUM_BYTES", 0)
    monkeypatch.setattr(kernels, "_MIDDLE_ROWS", 1)
    rng = np.random.default_rng(p)
    rows = random_basis(rng, 4, 9, p)
    full_hist, full_words, full_overflow = spectrum(rows, p, 9, p**4)
    hist, words, overflow = spectrum(rows, p, 9, 3)
    assert overflow and not full_overflow
    assert words.shape == (3, 9)
    assert np.array_equal(hist, full_hist)
    assert full_words.shape[0] == p**4 - 1
    full = {tuple(int(x) for x in w) for w in full_words}
    assert {tuple(int(x) for x in w) for w in words} <= full


def _rank_deficient_rows(p):
    # four rows of rank three: the last is 2 * row 0 + row 1
    rows = np.array(
        [[1, 2, 0, 1, 0, 3 % p, 1], [0, 1, 1, 4 % p, 2, 0, 1], [2, 0, 1, 1, 0, 1, 1]],
        dtype=np.int64,
    )
    return (np.vstack([rows, 2 * rows[0] + rows[1]]) % p).astype(np.uint8)


@pytest.mark.parametrize("kind", ["random", "deficient"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_orbit_walk_matches_oracles(monkeypatch, p, kind):
    # one middle row and no suffix, so the top rows number k - 1 >= 2 and
    # the walk computes one step per scalar orbit of top combinations
    monkeypatch.setattr(kernels, "_SPECTRUM_BYTES", 0)
    monkeypatch.setattr(kernels, "_MIDDLE_ROWS", 1)
    if kind == "random":
        rows = random_basis(np.random.default_rng(7 * p), {3: 5, 5: 4, 7: 3}[p], 10, p)
    else:
        basis, pivots = rref_mod_p_reference(_rank_deficient_rows(p), p)
        rows = basis[: len(pivots)]
    k, n = rows.shape
    limit = n - 2
    hist, words, overflow = spectrum(rows, p, limit, p**k)
    assert not overflow
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    expected = Counter(_words_up_to(rows, p, limit))
    assert Counter(tuple(int(x) for x in w) for w in words) == expected


# table sizes that leave two top rows and a block of 128 (p = 2) or 81
# (p = 3) entries: two steps share a product while (n + 1)^2 fits in it
@pytest.mark.parametrize(
    "p,k,n,shared", [(2, 9, 10, True), (2, 9, 11, False), (3, 6, 8, True), (3, 6, 9, False)]
)
def test_spectrum_on_both_sides_of_the_shared_product_bound(monkeypatch, p, k, n, shared):
    monkeypatch.setattr(kernels, "_SPECTRUM_BYTES", 768)
    monkeypatch.setattr(kernels, "_MIDDLE_ROWS", 32)
    rows = random_basis(np.random.default_rng(n + p), k, n, p)
    bins = []
    bincount = np.bincount

    def counting(x, minlength):
        bins.append(minlength)
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counting)
    hist, words, overflow = spectrum(rows, p, n, p**k)
    assert ((n + 1) ** 2 in bins) == shared
    assert not overflow
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    assert Counter(tuple(int(x) for x in w) for w in words) == Counter(_words_up_to(rows, p, n))


def test_orbit_walk_does_not_wrap_for_large_p(monkeypatch):
    # one middle row and no suffix leave two top rows, so the walk adds a
    # top row to a combination that already holds it: 130 + 130 must reduce
    # to 129 mod 131, not wrap past a byte
    monkeypatch.setattr(kernels, "_SPECTRUM_BYTES", 0)
    monkeypatch.setattr(kernels, "_MIDDLE_ROWS", 1)
    p, limit = 131, 3
    rows = np.array([[1, 0, 0, 130, 7], [0, 1, 0, 130, 130], [0, 0, 1, 5, 1]], dtype=np.uint8)
    hist, words, overflow = spectrum(rows, p, limit, p**3)
    # every message at once: 131^3 words of 5 entries
    messages = np.indices((p,) * 3, dtype=np.int32).reshape(3, -1).T
    expected = (messages @ rows.astype(np.int32)) % p
    weights = np.count_nonzero(expected, axis=1)
    assert not overflow
    assert np.array_equal(hist, np.bincount(weights, minlength=6))
    low = expected[(weights > 0) & (weights <= limit)]
    assert Counter(map(tuple, words.tolist())) == Counter(map(tuple, low.tolist()))


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[1, 1, 0], [0, 1, 2]], dtype=np.uint8),
        np.array([[1, 0, 2], [0, 0, 0]], dtype=np.uint8),
        np.array([[1, 0, 2], [0, 2, 1]], dtype=np.uint8),
        np.array([[1, 0, 3], [0, 1, 1]], dtype=np.uint8),
        # 257 would pass as 1 after a cast to bytes
        np.array([[1, 0, 257], [0, 1, 1]], dtype=np.int64),
    ],
    ids=["unreduced", "zero-row", "lead-2", "entry-3", "entry-257"],
)
def test_spectrum_refuses_anything_but_a_reduced_basis(rows):
    with pytest.raises(ValueError, match="reduced basis"):
        spectrum(rows, 3, 3, 9)


@pytest.mark.parametrize("n", [0, 4])
def test_spectrum_takes_a_basis_with_no_rows(n):
    hist, words, overflow = spectrum(np.zeros((0, n), dtype=np.uint8), 3, n, 1)
    assert hist.tolist() == [1] + [0] * n
    assert words.shape == (0, n) and not overflow


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rref_pivots_recognises_exactly_the_reduced_bases(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    k, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 6))
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    rows = np.array(values, dtype=np.uint8).reshape(k, n)
    if data.draw(st.booleans()):
        # random rows are seldom reduced: take their RREF's nonzero rows
        basis, pivots = rref_mod_p_reference(rows, p)
        rows = basis[: len(pivots)]
    expected, pivots = rref_mod_p_reference(rows, p)
    reduced = len(pivots) == len(rows) and np.array_equal(expected, rows)
    got = kernels._rref_pivots(rows)
    assert (got is not None) == reduced
    if reduced:
        assert got.tolist() == pivots


# largest k per p that the brute-force oracles enumerate quickly
_ORACLE_ROWS = {2: 9, 3: 6, 5: 4, 7: 3, 131: 2}


@st.composite
def _sweeps(draw):
    p = draw(st.sampled_from(sorted(_ORACLE_ROWS)))
    k = draw(st.integers(0, _ORACLE_ROWS[p]))
    n = draw(st.integers(0, 3 if p == 131 else 9))
    rows = draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    # the sweep takes a reduced basis: the RREF without its zero rows
    basis, pivots = rref_mod_p_reference(np.array(rows, dtype=np.int64).reshape(k, n), p)
    limit = draw(st.integers(-1, n + 1))
    # table sizes down to a single middle row and an empty suffix, so that
    # small k already walks top rows in Gray order
    sizes = draw(st.sampled_from([(0, 1), (1 << 10, 1), (1 << 12, 8), (1 << 20, 256)]))
    return p, basis[: len(pivots)], limit, sizes


@settings(max_examples=150, deadline=None)
@given(_sweeps())
def test_spectrum_matches_oracles_on_random_generators(sweep):
    p, rows, limit, (budget, middle_rows) = sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SPECTRUM_BYTES", budget)
        mp.setattr(kernels, "_MIDDLE_ROWS", middle_rows)
        hist, words, overflow = spectrum(rows, p, limit, p ** rows.shape[0])
    expected = brute_force_spectrum(rows, p)
    assert hist.shape == (rows.shape[1] + 1,)
    assert _hist_as_counter(hist) == expected
    assert not overflow
    assert words.dtype == np.uint8 and words.shape[1] == rows.shape[1]
    # one word per message
    assert words.shape[0] == sum(c for w, c in expected.items() if 0 < w <= limit)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, p, limit)


# sha256 of the int64 hull weight histograms, pinned from the byte-wise and
# bit-packed Gray sweeps that the matrix-product sweep replaced
HULL_DIGESTS = {
    (2, 3, 2): "790cd0f0f7b2fa2c6eea09e8848c3009dd2e431de9d3c150ddd950a8b7acff4a",
    (3, 1, 4): "b96d4d02b916eb1995c3096785b9bbd969cd90e03471ca6eb62058bbae1c99bb",
}


@pytest.mark.parametrize("p,h,n", sorted(HULL_DIGESTS))
def test_hull_histogram_matches_pinned_digest(p, h, n):
    model = build_model(GeometrySpec(make_field(p, h), n))
    hist, words, overflow = spectrum(model.hull, p, 0, 1)
    assert hist.dtype == np.int64 and words.shape == (0, model.geometry.num_points)
    assert not overflow
    assert hashlib.sha256(hist.tobytes()).hexdigest() == HULL_DIGESTS[(p, h, n)]


def _check_isd_output(rows, p, max_weight, found):
    from pgcodes.code import p_rank

    k = rows.shape[0]
    assert (np.count_nonzero(found, axis=1) <= max_weight).all()
    for w in found:
        # found word must lie in the row space
        stacked = np.vstack([rows, w[None, :]])
        assert p_rank(stacked, p) == k


@pytest.mark.parametrize("p,k,n", [(2, 6, 15), (3, 5, 13), (5, 4, 11)])
def test_isd_round_finds_only_codewords(p, k, n):
    rng = np.random.default_rng(p + k)
    rows = random_rank_rows(rng, k, n, p)
    inv = np.array([pow(a, p - 2, p) if a else 0 for a in range(p)], dtype=np.uint8)
    perm = rng.permutation(n)
    permuted = rows[:, perm]
    found = isd_rounds(permuted, np.arange(n)[None], p, n, inv)[0]
    _check_isd_output(permuted, p, n, found)
    # with max_weight = n every single-row word appears
    assert found.shape[0] >= k


@pytest.mark.parametrize("p", [2, 3])
def test_isd_round_respects_max_weight(p):
    rng = np.random.default_rng(31 * p)
    rows = random_rank_rows(rng, 5, 12, p)
    inv = np.array([pow(a, p - 2, p) if a else 0 for a in range(p)], dtype=np.uint8)
    found = isd_rounds(rows, np.arange(12)[None], p, 3, inv)[0]
    _check_isd_output(rows, p, 3, found)


def _inverse_table(p):
    return np.array([pow(a, p - 2, p) if a else 0 for a in range(p)], dtype=np.uint8)


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("p,k,n", [(2, 6, 15), (3, 5, 13), (5, 4, 11), (7, 4, 10), (131, 3, 6)])
def test_isd_rounds_match_each_items_rref_candidates(monkeypatch, p, k, n, chunk):
    if chunk is not None:
        # score the 7 rounds in chunks of 2, the last one short
        monkeypatch.setattr(kernels, "_BATCH_BYTES", chunk * 4 * p * k * n)
    rng = np.random.default_rng(p * 100 + k)
    # a zero column and a repeated column: items that meet them early get
    # pivots on different columns than items that do not
    core = random_rank_rows(rng, k, n - 2, p)
    rows = np.hstack([np.zeros((k, 1), dtype=np.uint8), core[:, :1], core])
    perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(6)])
    pivot_sets = {tuple(rref_mod_p_reference(rows[:, perm], p)[1]) for perm in perms}
    assert len(pivot_sets) > 1
    for max_weight in (n // 2, n):
        words, items = isd_rounds(rows, perms, p, max_weight, _inverse_table(p))
        assert words.dtype == np.uint8
        for b, perm in enumerate(perms):
            reduced, pivots = rref_mod_p_reference(rows[:, perm], p)
            candidates = brute_force_isd_candidates(reduced[: len(pivots)], p, max_weight)
            # entry t of a permuted candidate belongs to column perm[t]
            expected = [tuple(w[t] for t in np.argsort(perm)) for w in candidates]
            got = [tuple(int(x) for x in w) for w in words[items == b]]
            assert sorted(got) == sorted(expected)


def _gapped_matrices(p):
    """Named k x n matrices whose empty column runs the eliminator skips:
    runs longer than its look-ahead window, a run to the last column,
    repeated columns and an all-zero matrix."""
    rng = np.random.default_rng(p)
    w = kernels._LOOKAHEAD

    def low_rank(k, r, m):
        return rng.integers(0, p, (k, r)) @ rng.integers(0, p, (r, m)) % p

    def with_runs(mat, runs):
        # the column groups of mat, each followed by a zero run
        pieces = []
        for group, run in zip(np.array_split(mat, len(runs), axis=1), runs):
            pieces += [group, np.zeros((mat.shape[0], run), dtype=mat.dtype)]
        return np.hstack(pieces)

    dense = low_rank(9, 5, 12)
    return [
        ("runs longer than the window", with_runs(dense, [w + 1, 2 * w + 5, 1, 3 * w])),
        ("a run to the last column", with_runs(dense, [0, 0, 0, w - 1])),
        ("repeated columns", with_runs(np.repeat(low_rank(7, 3, 6), 3, axis=1), [w, 0, 2])),
        ("all zero", np.zeros((6, 2 * w + 3), dtype=np.int64)),
    ]


def _check_against_reference(mats, reduced, pivots, p, name):
    for b, mat in enumerate(mats):
        expected, expected_pivots = rref_mod_p_reference(mat, p)
        r = len(expected_pivots)
        assert np.array_equal(reduced[b], expected), (name, b)
        assert pivots[b, :r].tolist() == expected_pivots, (name, b)
        assert (pivots[b, r:] == mat.shape[1]).all(), (name, b)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_systematize_skips_empty_columns_as_the_reference_does(p):
    inv = make_field(p).inv_table
    cases = _gapped_matrices(p)
    for name, mat in cases:
        reduced, pivots = kernels._systematize(mat[None].astype(np.uint8), p, inv)
        _check_against_reference([mat], reduced, pivots, p, name)
    # one stack: each item pivots in columns that the others must skip
    mat = cases[0][1]
    stack = [mat, mat[:, ::-1], np.roll(mat, kernels._LOOKAHEAD // 2, axis=1), 0 * mat]
    reduced, pivots = kernels._systematize(np.array(stack, dtype=np.uint8), p, inv)
    _check_against_reference(stack, reduced, pivots, p, "stack")


def test_isd_batch_size_bounds_the_batch():
    # a batch's stacked k x n generators stay within 256 KB
    for k, n in [(28, 73), (16, 31), (29, 57), (3, 6)]:
        b = isd_batch_size(k, n)
        assert b * k * n <= 1 << 18 < (b + 1) * k * n
    assert isd_batch_size(2000, 2000) == 1
