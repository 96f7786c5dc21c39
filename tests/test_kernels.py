"""Kernel tests: the spectrum sweep, the batched search rounds and the
eliminator against naive oracles.

The sweep enumerates in an implementation-defined order, so histograms are
compared exactly and collected words as sets.  The batched search rounds and
the batched eliminator are checked item by item against each item's RREF.
"""

import hashlib
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes import kernels
from pgcodes.analysis import _sort_words
from pgcodes.code import build_model
from pgcodes.geometry import GeometrySpec
from pgcodes.gf import make_field
from pgcodes.kernels import isd_rounds, row_blocks, spectrum

from helpers import (
    brute_force_isd_candidates,
    brute_force_lightest_by_message_weight,
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
    hist, words = spectrum(rows, 2, limit)
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 2)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, 2, limit)


@pytest.mark.parametrize("p,k,n", [(3, 4, 13), (3, 7, 13), (5, 4, 11), (7, 3, 8)])
def test_spectrum_modp_numpy_matches_bruteforce(p, k, n):
    rng = np.random.default_rng(p * 1000 + k)
    rows = random_basis(rng, k, n, p)
    limit = n // 2
    hist, words = spectrum(rows, p, limit)
    assert int(hist.sum()) == p**k
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, p, limit)


def test_spectrum_modp_numpy_does_not_wrap_for_large_p():
    # entry sums reach 2p - 2 > 255 once p >= 128
    rows = np.array([[1, 0, 130], [0, 1, 5]], dtype=np.uint8)
    hist, words = spectrum(rows, 131, 3)
    assert hist.tolist() == [1, 0, 390, 16770]
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 131)
    assert words.shape[0] == 131**2 - 1


def _rank_deficient_rows(p):
    # four rows of rank three: the last is 2 * row 0 + row 1
    rows = np.array(
        [[1, 2, 0, 1, 0, 3 % p, 1], [0, 1, 1, 4 % p, 2, 0, 1], [2, 0, 1, 1, 0, 1, 1]],
        dtype=np.int64,
    )
    return (np.vstack([rows, 2 * rows[0] + rows[1]]) % p).astype(np.uint8)


# a zero budget leaves streamed chunks and blocks of a single row, and held
# parts of four rows
@pytest.mark.parametrize("kind", ["random", "deficient", "every-word"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_sweep_in_single_row_chunks_matches_oracles(monkeypatch, p, kind):
    # one message per scalar orbit is swept, counted p - 1 times and its
    # collected words expanded to every multiple
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 0)
    if kind == "random":
        rows = random_basis(np.random.default_rng(7 * p), {3: 5, 5: 4, 7: 3}[p], 10, p)
    elif kind == "deficient":
        basis, pivots = rref_mod_p_reference(_rank_deficient_rows(p), p)
        rows = basis[: len(pivots)]
    else:
        # every word is collected, each of the p - 1 multiples of an orbit;
        # six rows for p = 3 give the left half 13 unit rows, held in four
        # parts against the 27 right rows
        rows = random_basis(np.random.default_rng(p), 6 if p == 3 else 4, 9, p)
    k, n = rows.shape
    limit = n if kind == "every-word" else n - 2
    hist, words = spectrum(rows, p, limit)
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    expected = Counter(_words_up_to(rows, p, limit))
    assert Counter(tuple(int(x) for x in w) for w in words) == expected
    if kind == "every-word":
        assert words.shape == (p**k - 1, n)


@pytest.mark.parametrize("p,k,n", [(2, 9, 10), (2, 9, 11), (3, 6, 8), (3, 6, 9)])
def test_spectrum_weighs_each_orbit_once_across_short_chunks(monkeypatch, p, k, n):
    rows = random_basis(np.random.default_rng(n + p), k, n, p)
    # streamed chunks of three rows, held parts of twelve (the last one
    # short) and blocks of a few rows: each half splits into several chunks
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 6 * (n - k) * (1 if p == 2 else p))
    blocks = []
    product_blocks = kernels._blocks

    def counting(*args):
        for i, j, block in product_blocks(*args):
            blocks.append(block.size)
            yield i, j, block

    monkeypatch.setattr(kernels, "_blocks", counting)
    hist, words = spectrum(rows, p, n)
    # every nonzero message's orbit is one entry of one histogram block
    assert len(blocks) > 2 and sum(blocks) == (p**k - 1) // (p - 1)
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    assert Counter(tuple(int(x) for x in w) for w in words) == Counter(_words_up_to(rows, p, n))


def test_sweep_sums_do_not_wrap_for_large_p(monkeypatch):
    # one left row and two right rows: the held part is the one left row
    # whose leading digit is 1, and the 131^2 right rows stream in 18 chunks
    # of 1,000.  The words of weight 4 include row 0 + row 1, whose left and
    # right rows are both 130 in column 3: 260 must reduce to 129 mod 131,
    # not wrap past a byte
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 1 << 19)
    p, limit = 131, 4
    rows = np.array([[1, 0, 0, 130, 7], [0, 1, 0, 130, 130], [0, 0, 1, 5, 1]], dtype=np.uint8)
    hist, words = spectrum(rows, p, limit)
    # every message at once: 131^3 words of 5 entries
    messages = np.indices((p,) * 3, dtype=np.int32).reshape(3, -1).T
    expected = (messages @ rows.astype(np.int32)) % p
    weights = np.count_nonzero(expected, axis=1)
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
        spectrum(rows, 3, 3)


@pytest.mark.parametrize("n", [0, 4])
def test_spectrum_takes_a_basis_with_no_rows(n):
    hist, words = spectrum(np.zeros((0, n), dtype=np.uint8), 3, n)
    assert hist.tolist() == [1] + [0] * n
    assert words.shape == (0, n)


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
    # table budgets down to chunks and blocks of a single row
    budget = draw(st.sampled_from([0, 1 << 10, 1 << 12, 1 << 20]))
    return p, basis[: len(pivots)], limit, budget


@settings(max_examples=150, deadline=None)
@given(_sweeps())
def test_spectrum_matches_oracles_on_random_generators(sweep):
    p, rows, limit, budget = sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_BYTES", budget // 2)
        hist, words = spectrum(rows, p, limit)
    expected = brute_force_spectrum(rows, p)
    assert hist.shape == (rows.shape[1] + 1,)
    assert _hist_as_counter(hist) == expected
    assert words.dtype == np.uint8 and words.shape[1] == rows.shape[1]
    # one word per message
    assert words.shape[0] == sum(c for w, c in expected.items() if 0 < w <= limit)
    got = {tuple(int(x) for x in w) for w in words}
    assert got == _words_up_to(rows, p, limit)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rref_pivots_tests_a_stack_as_each_of_its_items(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    count, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    items = []
    for _ in range(count):
        values = data.draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
        rows = np.array(values, dtype=np.uint8).reshape(k, n)
        if data.draw(st.booleans()):
            basis, pivots = rref_mod_p_reference(rows, p)
            if len(pivots) == k:
                rows = basis
        items.append(rows)
    stack = np.stack(items)
    each = [kernels._rref_pivots(rows) for rows in items]
    got = kernels._rref_pivots(stack)
    assert (got is not None) == all(pivots is not None for pivots in each)
    if got is not None:
        assert got.tolist() == [pivots.tolist() for pivots in each]


@settings(max_examples=100, deadline=None)
@given(_sweeps())
def test_lightest_words_match_the_messages_of_each_weight(sweep):
    p, rows, _, budget = sweep
    k = rows.shape[0]
    expected = brute_force_lightest_by_message_weight(rows, p)
    with pytest.MonkeyPatch.context() as mp:
        # small blocks split a weight class into several products
        mp.setattr(kernels, "BLOCK_BYTES", budget // 2)
        levels = list(kernels.lightest_words(rows, p, k))
    assert len(levels) == k
    for t, (messages, weight, word) in enumerate(levels, start=1):
        count, lightest = expected[t]
        assert messages == count == comb(k, t) * (p - 1) ** (t - 1)
        assert weight == lightest == np.count_nonzero(word)
        assert tuple(int(x) for x in word) in brute_force_words_of_weight(rows, p, weight)


@pytest.mark.parametrize("p,k,limit", [(2, 6, 2), (3, 4, 3), (5, 3, 0), (7, 2, 2)])
def test_combinations_with_a_digit_cap_keep_the_full_tables_order(p, k, limit):
    rows = np.eye(k, dtype=np.uint8)
    full = kernels._combinations(rows, p, k)
    capped = kernels._combinations(rows, p, limit)
    assert np.array_equal(capped, full[np.count_nonzero(full, axis=1) <= limit])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_half_tables_group_each_halfs_combinations_by_digit_count(data):
    # both enumerators read their message ranges off this layout: a group's
    # bounds, its unit rows first, and the non-pivot columns first
    p = data.draw(st.sampled_from([2, 3, 5]))
    k, n = data.draw(st.integers(0, 5 if p < 5 else 4)), data.draw(st.integers(0, 8))
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    basis, pivots = rref_mod_p_reference(np.array(values, dtype=np.int64).reshape(k, n), p)
    rows = basis[: len(pivots)].astype(np.uint8)
    cap = data.draw(st.integers(0, len(rows) + 1))
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    columns, *halves = kernels._half_tables(rows, p, free, cap)
    n_free = int(free.sum())
    assert sorted(columns.tolist()) == list(range(n))
    assert set(columns[:n_free].tolist()) == set(np.flatnonzero(free).tolist())
    assert columns[n_free:].tolist() == pivots
    half = len(rows) // 2
    for part, (table, starts, units) in zip([rows[:half], rows[half:]], halves):
        words = np.empty_like(table)
        words[:, columns] = table
        expected = kernels._combinations(part, p, cap)
        assert Counter(map(tuple, words.tolist())) == Counter(map(tuple, expected.tolist()))
        assert len(starts) == cap + 2 and starts[0] == 0 and starts[-1] == len(table)
        digits = np.count_nonzero(words[:, pivots], axis=1)
        for d in range(cap + 1):
            assert starts[d] <= units[d] <= starts[d + 1]
            assert (digits[starts[d] : starts[d + 1]] == d).all()
            leads = [int(w[np.flatnonzero(w)[0]]) if w.any() else 0 for w in words[starts[d] : starts[d + 1]]]
            assert leads == sorted(leads, key=lambda lead: lead != 1)
            assert leads.count(1) == units[d] - starts[d]


# sha256 of the int64 hull weight histograms, pinned from the byte-wise and
# bit-packed Gray sweeps that the matrix-product sweep replaced
HULL_DIGESTS = {
    (2, 3, 2): "790cd0f0f7b2fa2c6eea09e8848c3009dd2e431de9d3c150ddd950a8b7acff4a",
    (3, 1, 4): "b96d4d02b916eb1995c3096785b9bbd969cd90e03471ca6eb62058bbae1c99bb",
}


@pytest.mark.parametrize("p,h,n", sorted(HULL_DIGESTS))
def test_hull_histogram_matches_pinned_digest(p, h, n):
    model = build_model(GeometrySpec(make_field(p, h), n))
    hist, words = spectrum(model.hull, p, 0)
    assert hist.dtype == np.int64 and words.shape == (0, model.geometry.num_points)
    assert hashlib.sha256(hist.tobytes()).hexdigest() == HULL_DIGESTS[(p, h, n)]


# word counts and sha256 of the int64 histogram and the words sorted as
# enumerate_spectrum sorts them, for the generator sweeps that `pgcodes code
# spectrum` runs with --budget 43046721 (PG(4,3), 3^16 messages) and
# 67108864 (PG(4,4), 2^26); pinned from the Gray-walk sweep that the two half
# tables replaced
GENERATOR_DIGESTS = {
    (3, 1, 4): (14762, "1f4b57f27d1c7079d37567c056e09abf1022f2f3bd29a22c144c5aff5b155a80"),
    (2, 2, 4): (58311, "4ec3b0538e3025f292fa706803795a8d01ab6a0906b5f5ea6823a6f614b81d8a"),
}


@pytest.mark.parametrize("p,h,n", sorted(GENERATOR_DIGESTS))
def test_generator_sweep_matches_pinned_digest(p, h, n):
    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    hist, words = spectrum(model.generator, p, 2 * g.q ** (n - 1))
    count, digest = GENERATOR_DIGESTS[(p, h, n)]
    assert hist.dtype == np.int64 and words.shape == (count, g.num_points)
    assert int(hist.sum()) == p**model.dimension
    low = np.ascontiguousarray(_sort_words(words))
    assert hashlib.sha256(hist.tobytes() + low.tobytes()).hexdigest() == digest


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
    perm = rng.permutation(n)
    permuted = rows[:, perm]
    found = isd_rounds(permuted, np.arange(n)[None], p, n)[0]
    _check_isd_output(permuted, p, n, found)
    # with max_weight = n every single-row word appears
    assert found.shape[0] >= k


@pytest.mark.parametrize("p", [2, 3])
def test_isd_round_respects_max_weight(p):
    rng = np.random.default_rng(31 * p)
    rows = random_rank_rows(rng, 5, 12, p)
    found = isd_rounds(rows, np.arange(12)[None], p, 3)[0]
    _check_isd_output(rows, p, 3, found)


def _lightest_pair_weight(reduced, p):
    """The least weight of u_i + c*u_j (i < j, c != 0) over the rows of an RREF."""
    rows = reduced.astype(np.int64)
    return min(
        int(np.count_nonzero((rows[i] + c * rows[j]) % p))
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        for c in range(1, p)
    )


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize(
    "p,k,n",
    [(2, 6, 15), (3, 5, 13), (5, 4, 11), (7, 4, 10), (11, 4, 10), (13, 4, 9), (17, 3, 8), (131, 3, 6)],
)
def test_isd_rounds_match_each_items_rref_candidates(monkeypatch, p, k, n, chunk):
    # p = 11 and 13 are the last primes whose row sums stay bytes, p = 17 the
    # first whose eliminated rows are uint16
    if chunk is not None:
        # score the 7 rounds in chunks of 2, the last one short, and the
        # pairs that pass the bound in short blocks
        monkeypatch.setattr(kernels, "BLOCK_BYTES", chunk * (8 * (n - k) * k + 18 * k * k))
    rng = np.random.default_rng(p * 100 + k)
    # a zero column and a repeated column: items that meet them early get
    # pivots on different columns than items that do not
    core = random_rank_rows(rng, k, n - 2, p)
    rows = np.hstack([np.zeros((k, 1), dtype=np.uint8), core[:, :1], core])
    perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(6)])
    pivot_sets = {tuple(rref_mod_p_reference(rows[:, perm], p)[1]) for perm in perms}
    assert len(pivot_sets) > 1
    reduced = [rref_mod_p_reference(rows[:, perm], p) for perm in perms]
    # each item's lightest pair weight, where a pair first passes the cap,
    # and one below it, where none of that item's pairs may
    lightest = {_lightest_pair_weight(r[: len(piv)], p) for r, piv in reduced}
    caps = {n // 2, n} | lightest | {w - 1 for w in lightest}
    for max_weight in sorted(caps):
        words, items = isd_rounds(rows, perms, p, max_weight)
        assert words.dtype == np.uint8
        for b, perm in enumerate(perms):
            r, piv = reduced[b]
            candidates = brute_force_isd_candidates(r[: len(piv)], p, max_weight)
            # entry t of a permuted candidate belongs to column perm[t]
            expected = [tuple(w[t] for t in np.argsort(perm)) for w in candidates]
            got = [tuple(int(x) for x in w) for w in words[items == b]]
            assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("p,c", [(3, 1), (3, 2), (5, 2), (7, 3), (11, 7), (13, 12)])
def test_isd_rounds_find_a_pair_that_meets_the_character_bound(p, c):
    # rows 0 and 1 of an RREF with a_0 = -c * a_1 on every shared non-pivot
    # column: every shared column counts in z_c, so z_c = s = (s + |Q|)/2
    # and the bound on the pair's weight is its weight at c
    rng = np.random.default_rng(p * c)
    k, n = 3, 14
    a1 = np.zeros(n - k, dtype=np.int64)
    a1[:8] = rng.integers(1, p, 8)
    a0 = (-c * a1) % p
    a0[7], a0[8] = 0, 1
    rows = np.zeros((k, n), dtype=np.uint8)
    rows[:, :k] = np.eye(k, dtype=np.uint8)
    rows[0, k:], rows[1, k:] = a0, a1
    rows[2, k:] = rng.integers(1, p, n - k)
    pair = tuple(int(x) for x in (rows[0].astype(np.int64) + c * rows[1]) % p)
    # the pair is nonzero on its two pivots and on the one column that
    # each of its rows holds alone
    weight = sum(1 for x in pair if x)
    assert weight == 4 and np.count_nonzero(rows, axis=1).min() == 9
    assert _lightest_pair_weight(rows, p) == weight
    identity = np.arange(n)[None]
    words = isd_rounds(rows, identity, p, weight)[0]
    assert [tuple(int(x) for x in w) for w in words] == [pair]
    assert isd_rounds(rows, identity, p, weight - 1)[0].shape == (0, n)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_isd_rounds_refuse_a_generator_without_full_row_rank(p):
    rng = np.random.default_rng(p)
    rows = random_rank_rows(rng, 3, 10, p)
    # the third row is the sum of the first two: every round's RREF has a
    # zero row, whose pivot column would be n
    deficient = np.vstack([rows[:2], (rows[0].astype(np.int64) + rows[1]) % p]).astype(np.uint8)
    perms = np.array([np.arange(10), rng.permutation(10)])
    with pytest.raises(ValueError, match="full row rank"):
        isd_rounds(deficient, perms, p, 10)


def _gapped_matrices(p):
    """Named k x n matrices whose empty column runs the eliminator skips:
    runs longer than its look-ahead window, a run to the last column,
    repeated columns, an all-zero matrix and runs across word boundaries."""
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

    def on_columns(cols, n):
        # nonzero only on the given columns
        mat = np.zeros((4, n), dtype=np.int64)
        mat[:, cols] = low_rank(4, 3, len(cols))
        return mat

    dense = low_rank(9, 5, 12)
    return [
        ("runs longer than the window", with_runs(dense, [w + 1, 2 * w + 5, 1, 3 * w])),
        ("a run to the last column", with_runs(dense, [0, 0, 0, w - 1])),
        ("repeated columns", with_runs(np.repeat(low_rank(7, 3, 6), 3, axis=1), [w, 0, 2])),
        ("all zero", np.zeros((6, 2 * w + 3), dtype=np.int64)),
        # runs that cross the 64-column words of the F_2 pass
        ("a run across a word", on_columns([5, 6, 70, 128], 129)),
        ("either side of a word boundary", on_columns([62, 63, 64, 65], 129)),
        ("a run across two words", on_columns([0, 1, 128], 129)),
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
    cases = _gapped_matrices(p)
    for name, mat in cases:
        reduced, pivots = kernels._systematize(mat[None].astype(np.uint8), p)
        _check_against_reference([mat], reduced, pivots, p, name)
    # one stack: each item pivots in columns that the others must skip
    mat = cases[0][1]
    stack = [mat, mat[:, ::-1], np.roll(mat, kernels._LOOKAHEAD // 2, axis=1), 0 * mat]
    reduced, pivots = kernels._systematize(np.array(stack, dtype=np.uint8), p)
    _check_against_reference(stack, reduced, pivots, p, "stack")


def _binary_items(rng, k, n):
    """Random k x n 0/1 items of rank at most min(k, n), 2, 1 and 0."""
    return [
        rng.integers(0, 2, (k, r)) @ rng.integers(0, 2, (r, n)) % 2
        for r in sorted({min(k, n), 2, 1, 0}, reverse=True)
    ]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_systematize_over_f2_matches_the_reference_at_word_boundaries(n):
    # F_2 rows are 64-column words: widths on both sides of one and two
    # words, more rows than columns, and items of different ranks (a zero
    # item among them) in one stack
    rng = np.random.default_rng(n)
    for k in (3, n + 2):
        stack = _binary_items(rng, k, n)
        reduced, pivots = kernels._systematize(np.array(stack, dtype=np.uint8), 2)
        assert reduced.dtype == np.uint8
        _check_against_reference(stack, reduced, pivots, 2, f"k={k}")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_systematize_over_f2_matches_the_reference_on_random_stacks(data):
    b, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 5))
    n = data.draw(st.one_of(st.integers(0, 9), st.integers(60, 68), st.integers(126, 130)))
    bits = data.draw(st.lists(st.booleans(), min_size=b * k * n, max_size=b * k * n))
    stack = np.array(bits, dtype=np.uint8).reshape(b, k, n)
    reduced, pivots = kernels._systematize(stack, 2)
    _check_against_reference(stack, reduced, pivots, 2, "random")


def test_row_blocks_cut_every_row_once_to_block_bytes():
    # a search batch of PG(2,8) rounds, its scoring chunks, word tests
    for rows, row_bytes in [(500, 28 * 73), (500, 8 * 45 * 28 + 18 * 28 * 28), (300, 4 * 585)]:
        blocks = row_blocks(rows, row_bytes)
        step = blocks[0].stop
        assert step * row_bytes <= kernels.BLOCK_BYTES < (step + 1) * row_bytes
        assert blocks == [slice(s, min(s + step, rows)) for s in range(0, rows, step)]
    # a row wider than a block is a block of its own, and no rows no block
    assert row_blocks(3, 2000 * 2000) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert row_blocks(0, 100) == []
