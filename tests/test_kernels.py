"""Kernel agreement tests: numba vs numpy vs the naive oracle.

The spectrum implementations enumerate in different orders, so histograms
are compared exactly and collected words as sets.  The batched search
rounds are checked item by item against each item's RREF.
"""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from pgcodes import kernels
from pgcodes.kernels import (
    HAVE_NUMBA,
    isd_batch_size,
    isd_round,
    isd_rounds,
    pack_bits,
    spectrum_gf2_numpy,
    spectrum_modp_numpy,
    unpack_bits,
)

from helpers import (
    brute_force_isd_candidates,
    brute_force_spectrum,
    brute_force_words_of_weight,
    rref_mod_p_reference,
)

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")


def random_rank_rows(rng, k, n, p):
    while True:
        rows = rng.integers(0, p, size=(k, n)).astype(np.uint8)
        # full row rank wanted so the message count is p^k exactly
        from pgcodes.code import p_rank

        if p_rank(rows, p) == k:
            return rows


@pytest.mark.parametrize("n", [3, 17, 63, 64, 65, 73, 130])
def test_pack_unpack_roundtrip(n):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2, size=(5, n)).astype(np.uint8)
    packed = pack_bits(rows)
    assert packed.shape == (5, (n + 63) // 64)
    assert np.array_equal(unpack_bits(packed, n), rows)


def _hist_as_counter(hist):
    return Counter({w: int(c) for w, c in enumerate(hist) if c})


@pytest.mark.parametrize("k,n", [(3, 7), (6, 15), (9, 21), (10, 73)])
def test_spectrum_gf2_numpy_matches_bruteforce(k, n):
    rng = np.random.default_rng(k * 100 + n)
    rows = random_rank_rows(rng, k, n, 2)
    limit = n // 2
    hist, words, overflow = spectrum_gf2_numpy(rows, limit, 1 << k)
    assert not overflow
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 2)
    got = {tuple(int(x) for x in w) for w in words}
    expected = set()
    for w in range(1, limit + 1):
        expected |= brute_force_words_of_weight(rows, 2, w)
    assert got == expected


@pytest.mark.parametrize("p,k,n", [(3, 4, 13), (3, 7, 13), (5, 4, 11), (7, 3, 8)])
def test_spectrum_modp_numpy_matches_bruteforce(p, k, n):
    rng = np.random.default_rng(p * 1000 + k)
    rows = random_rank_rows(rng, k, n, p)
    limit = n // 2
    hist, words, overflow = spectrum_modp_numpy(rows, p, limit, p**k)
    assert not overflow
    assert int(hist.sum()) == p**k
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, p)
    got = {tuple(int(x) for x in w) for w in words}
    expected = set()
    for w in range(1, limit + 1):
        expected |= brute_force_words_of_weight(rows, p, w)
    assert got == expected


def test_spectrum_modp_numpy_does_not_wrap_for_large_p():
    # entry sums reach 2p - 2 > 255 once p >= 128
    rows = np.array([[1, 0, 130], [0, 1, 5]], dtype=np.uint8)
    hist, words, overflow = spectrum_modp_numpy(rows, 131, 3, 131**2)
    assert hist.tolist() == [1, 0, 390, 16770]
    assert _hist_as_counter(hist) == brute_force_spectrum(rows, 131)
    assert not overflow
    assert words.shape[0] == 131**2 - 1


@needs_numba
@pytest.mark.parametrize("k,n", [(3, 7), (8, 21), (10, 73), (12, 40)])
def test_spectrum_gf2_numba_agrees_with_numpy(k, n):
    rng = np.random.default_rng(k + n)
    rows = random_rank_rows(rng, k, n, 2)
    limit = max(2, n // 3)
    h_np, w_np, o_np = spectrum_gf2_numpy(rows, limit, 1 << k)
    h_nb, w_nb, o_nb = kernels.spectrum_gf2_numba(rows, limit, 1 << k)
    assert np.array_equal(h_np, h_nb)
    assert o_np == o_nb is False
    assert {w.tobytes() for w in w_np} == {w.tobytes() for w in w_nb}


@needs_numba
@pytest.mark.parametrize("p,k,n", [(3, 6, 13), (5, 5, 31), (7, 4, 20)])
def test_spectrum_modp_numba_agrees_with_numpy(p, k, n):
    rng = np.random.default_rng(p * k)
    rows = random_rank_rows(rng, k, n, p)
    limit = max(2, n // 3)
    h_np, w_np, o_np = spectrum_modp_numpy(rows, p, limit, p**k)
    h_nb, w_nb, o_nb = kernels.spectrum_modp_numba(rows, p, limit, p**k)
    assert np.array_equal(h_np, h_nb)
    assert o_np == o_nb is False
    assert {w.tobytes() for w in w_np} == {w.tobytes() for w in w_nb}


def test_overflow_truncates_words_but_not_histogram():
    rng = np.random.default_rng(5)
    rows = random_rank_rows(rng, 6, 15, 2)
    full_hist, full_words, _ = spectrum_gf2_numpy(rows, 15, 1 << 6)
    hist, words, overflow = spectrum_gf2_numpy(rows, 15, 3)
    assert overflow
    assert words.shape[0] == 3
    assert np.array_equal(hist, full_hist)
    if HAVE_NUMBA:
        hist_nb, words_nb, over_nb = kernels.spectrum_gf2_numba(rows, 15, 3)
        assert over_nb
        assert words_nb.shape[0] == 3
        assert np.array_equal(hist_nb, full_hist)
    assert full_words.shape[0] == (1 << 6) - 1


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
    found = isd_round(permuted, p, n, inv)
    _check_isd_output(permuted, p, n, found)
    # with max_weight = n every single-row word appears
    assert found.shape[0] >= k


@pytest.mark.parametrize("p", [2, 3])
def test_isd_round_respects_max_weight(p):
    rng = np.random.default_rng(31 * p)
    rows = random_rank_rows(rng, 5, 12, p)
    inv = np.array([pow(a, p - 2, p) if a else 0 for a in range(p)], dtype=np.uint8)
    found = isd_round(rows, p, 3, inv)
    _check_isd_output(rows, p, 3, found)


def test_dispatcher_matches_direct_variants():
    rng = np.random.default_rng(2)
    rows = random_rank_rows(rng, 5, 13, 3)
    h_direct, w_direct, _ = spectrum_modp_numpy(rows, 3, 6, 3**5)
    h_disp, w_disp, _ = kernels.spectrum(rows, 3, 6, 3**5)
    assert np.array_equal(h_direct, h_disp)
    assert {w.tobytes() for w in w_direct} == {w.tobytes() for w in w_disp}


def test_env_flag_disables_numba_in_subprocess():
    env = dict(os.environ, PGCODES_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from pgcodes import kernels; print(kernels.USE_NUMBA)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


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


def test_isd_round_is_the_single_item_batch():
    p = 5
    rng = np.random.default_rng(9)
    rows = random_rank_rows(rng, 4, 11, p)
    perm = rng.permutation(11)
    got = isd_round(rows[:, perm], p, 6, _inverse_table(p))
    words, items = isd_rounds(rows, perm[None], p, 6, _inverse_table(p))
    assert np.array_equal(got[:, np.argsort(perm)], words)
    assert (items == 0).all()


def test_isd_batch_size_bounds_the_batch():
    # a batch's stacked k x n generators stay within 256 KB
    for k, n in [(28, 73), (16, 31), (29, 57), (3, 6)]:
        b = isd_batch_size(k, n)
        assert b * k * n <= 1 << 18 < (b + 1) * k * n
    assert isd_batch_size(2000, 2000) == 1
