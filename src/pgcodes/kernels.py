"""Hot kernels: spectrum sweeps, batched search rounds and the mod-p eliminator.

The two hot loops are full-spectrum enumeration (p^dim messages, Gray-coded
so each step is one basis-row update) and the randomized information-set
rounds of the low-weight search.

spectrum dispatches to a numba-compiled sweep when numba is importable, or
to a vectorized numpy sweep otherwise.  Setting the environment variable
PGCODES_NO_NUMBA=1 forces the numpy path; both variants are also exported
directly so tests can compare them.

_systematize is the package's one mod-p Gauss-Jordan eliminator: a single
pass brings every item of a (B, k, n) stack to reduced row-echelon form.
code.rref_mod_p, and through it every rank, basis and nullspace of the code
model, is its one-item case.

isd_rounds runs a whole batch of Lee-Brickell rounds at once in numpy:
_systematize reduces a stack of column-permuted generators, and matrix
products score every row pair, so only the pairs within the weight cap are
ever built.  isd_round is its one-round case.

Representation notes: words over F_2 are bit-packed into uint64 lanes with
popcount-based weights inside the kernels; words over odd p stay byte
vectors.  Packing assumes a little-endian platform (bit j of a row lands in
bit j%64 of lane j//64).
"""

from __future__ import annotations

import os

import numpy as np

_ENV_FLAG = "PGCODES_NO_NUMBA"


def _numba_requested() -> bool:
    return os.environ.get(_ENV_FLAG, "") in ("", "0")


HAVE_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a hard dependency
        HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA


# -- bit packing -------------------------------------------------------------


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """(m, n) 0/1 uint8 -> (m, ceil(n/64)) uint64, bit j at lane j//64."""
    m, n = rows.shape
    lanes = (n + 63) // 64
    padded = np.zeros((m, lanes * 64), dtype=np.uint8)
    padded[:, :n] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack_bits(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits, trimming the lane padding back to n columns."""
    if packed.shape[0] == 0:
        return np.zeros((0, n), dtype=np.uint8)
    as_bytes = packed.view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n]


# -- numba kernels -----------------------------------------------------------

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_S1 = np.uint64(1)
_S2 = np.uint64(2)
_S4 = np.uint64(4)
_S56 = np.uint64(56)

if HAVE_NUMBA:

    @njit(cache=True)
    def _spectrum_gf2_jit(rows, nbits, total, collect_limit, capacity):
        k, lanes = rows.shape
        hist = np.zeros(nbits + 1, dtype=np.int64)
        words = np.zeros((capacity, lanes), dtype=np.uint64)
        cur = np.zeros(lanes, dtype=np.uint64)
        hist[0] += 1
        stored = 0
        overflow = False
        for t in range(1, total):
            tt = t
            r = 0
            while tt & 1 == 0:
                tt >>= 1
                r += 1
            w = 0
            for j in range(lanes):
                cur[j] ^= rows[r, j]
                x = cur[j]
                x = x - ((x >> _S1) & _M1)
                x = (x & _M2) + ((x >> _S2) & _M2)
                x = (x + (x >> _S4)) & _M4
                w += np.int64((x * _H01) >> _S56)
            hist[w] += 1
            if 0 < w <= collect_limit:
                if stored < capacity:
                    for j in range(lanes):
                        words[stored, j] = cur[j]
                    stored += 1
                else:
                    overflow = True
        return hist, stored, words, overflow

    @njit(cache=True)
    def _spectrum_modp_jit(rows, p, total, collect_limit, capacity):
        k, n = rows.shape
        hist = np.zeros(n + 1, dtype=np.int64)
        words = np.zeros((capacity, n), dtype=np.uint8)
        cur = np.zeros(n, dtype=np.uint8)
        hist[0] += 1
        stored = 0
        overflow = False
        for t in range(1, total):
            x = t - 1
            r = 0
            while x % p == p - 1:
                x //= p
                r += 1
            w = 0
            for j in range(n):
                v = cur[j] + rows[r, j]
                if v >= p:
                    v -= p
                cur[j] = v
                if v != 0:
                    w += 1
            hist[w] += 1
            if 0 < w <= collect_limit:
                if stored < capacity:
                    for j in range(n):
                        words[stored, j] = cur[j]
                    stored += 1
                else:
                    overflow = True
        return hist, stored, words, overflow


# -- pure numpy implementations ----------------------------------------------

_SUFFIX_TARGET = 1 << 14


def spectrum_gf2_numpy(rows: np.ndarray, collect_limit: int, capacity: int):
    """Spectrum over F_2 by suffix tabling + Gray-coded prefix sweep."""
    k, n = rows.shape
    packed = pack_bits(rows)
    split = 0
    while split < k and (1 << (split + 1)) <= _SUFFIX_TARGET:
        split += 1
    k_hi = k - split
    suffix = np.zeros((1, packed.shape[1]), dtype=np.uint64)
    for i in range(split):
        suffix = np.concatenate([suffix, suffix ^ packed[k_hi + i]])
    hist = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    stored = 0
    overflow = False
    cur = np.zeros(packed.shape[1], dtype=np.uint64)
    for t in range(1 << k_hi):
        if t:
            cur = cur ^ packed[(t & -t).bit_length() - 1]
        block = suffix ^ cur
        weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
        hist += np.bincount(weights, minlength=n + 1)
        mask = (weights > 0) & (weights <= collect_limit)
        if mask.any():
            sel = block[mask]
            room = capacity - stored
            if sel.shape[0] > room:
                overflow = True
                sel = sel[:room]
            if sel.shape[0]:
                chunks.append(sel)
                stored += sel.shape[0]
    words = unpack_bits(np.vstack(chunks) if chunks else np.zeros((0, packed.shape[1]), np.uint64), n)
    return hist, words, overflow


def spectrum_modp_numpy(rows: np.ndarray, p: int, collect_limit: int, capacity: int):
    """Spectrum over odd F_p by suffix tabling + Gray-coded prefix sweep.

    Sums of two entries reach 2p - 2, so p >= 128 accumulates in uint16
    (and builds the suffix table in int32) instead of uint8 and int16.
    """
    k, n = rows.shape
    acc, wide = (np.uint8, np.int16) if p < 128 else (np.uint16, np.int32)
    rows = rows.astype(acc, copy=False)
    split = 0
    while split < k and p ** (split + 1) <= _SUFFIX_TARGET:
        split += 1
    k_hi = k - split
    suffix = np.zeros((1, n), dtype=acc)
    for i in range(split):
        row = rows[k_hi + i].astype(wide)
        suffix = np.vstack([((suffix.astype(wide) + a * row) % p) for a in range(p)]).astype(acc)
    hist = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    stored = 0
    overflow = False
    cur = np.zeros(n, dtype=acc)
    for t in range(p**k_hi):
        if t:
            x = t - 1
            r = 0
            while x % p == p - 1:
                x //= p
                r += 1
            cur = cur + rows[r]
            cur = np.where(cur >= p, cur - p, cur).astype(acc)
        block = cur[None, :] + suffix
        block = np.where(block >= p, block - p, block)
        weights = np.count_nonzero(block, axis=1)
        hist += np.bincount(weights, minlength=n + 1)
        mask = (weights > 0) & (weights <= collect_limit)
        if mask.any():
            sel = block[mask].astype(np.uint8)
            room = capacity - stored
            if sel.shape[0] > room:
                overflow = True
                sel = sel[:room]
            if sel.shape[0]:
                chunks.append(sel)
                stored += sel.shape[0]
    words = np.vstack(chunks).astype(np.uint8) if chunks else np.zeros((0, n), np.uint8)
    return hist, words, overflow


# -- batched Lee-Brickell rounds ---------------------------------------------

# a batch's stacked generators, and each scoring chunk's float32 copies (the
# support and one indicator per nonzero value), stay near this many bytes
_BATCH_BYTES = 1 << 18


def isd_batch_size(k: int, n: int) -> int:
    """Rounds per isd_rounds call for a k x n generator."""
    return max(1, _BATCH_BYTES // (k * n))


def _systematize(gens: np.ndarray, p: int, inv_mod: np.ndarray):
    """RREF of every item of a (B, k, n) stack in one batched Gauss-Jordan pass.

    This is the package's mod-p eliminator: code.rref_mod_p is its one-item
    case and isd_rounds runs it on a batch of column-permuted generators.
    Each item tracks which of its rows already hold a pivot; one column step
    pivots every item that has a free row nonzero in that column and leaves
    the others unchanged, and the pass stops once every item has k pivots.
    A step rewrites only the columns from the pivot on, in the rows that are
    nonzero in that column for some item.  Entries stay reduced, so the row
    updates fit uint8 while p^2 <= 256 and uint16 up to p = 251.  Returns
    (reduced, pivots): rows come back in pivot-column order, and pivots[b, i]
    is the pivot column of row i of item b, or n for a zero row.
    """
    b, k, n = gens.shape
    dtype = np.uint8 if p * p <= 256 else np.uint16
    u = gens.astype(dtype)
    inv = inv_mod.astype(dtype)
    free = np.ones((b, k), dtype=bool)
    pivot_col = np.full((b, k), n)
    items = np.arange(b)
    for c in range(n):
        if not free.any():
            break
        col = u[:, :, c].copy()
        eligible = (col != 0) & free
        has = eligible.any(axis=1)
        if not has.any():
            continue
        row = eligible.argmax(axis=1)
        prow = u[items, row, c:]
        touched = np.flatnonzero(col.any(axis=0))
        col = col[:, touched, None]
        if p == 2:
            prow *= has[:, None]
            u[:, touched, c:] ^= col & prow[:, None, :]
        else:
            # items without a pivot here get a zero pivot row: a no-op update;
            # x - (x // p) * p is several times faster than x % p
            prow *= (inv[prow[:, 0]] * has)[:, None]
            prow -= (prow // p) * p
            update = (p - col) * prow[:, None, :]
            update += u[:, touched, c:]
            update -= (update // p) * p
            u[:, touched, c:] = update
        hit = np.nonzero(has)[0]
        u[hit, row[hit], c:] = prow[hit]
        free[hit, row[hit]] = False
        pivot_col[hit, row[hit]] = c
    order = np.argsort(pivot_col, axis=1, kind="stable")
    pivots = np.take_along_axis(pivot_col, order, axis=1)
    return np.take_along_axis(u, order[:, :, None], axis=1), pivots


def _low_weight_combinations(u: np.ndarray, p: int, max_weight: int):
    """Rows and row pairs u_i + c*u_j (i < j) of weight <= max_weight.

    Pair weights come from matrix products instead of building every
    combination: wt(u_i + c*u_j) = wt_i + wt_j - |supp_i & supp_j| - z_c,
    where z_c counts positions with u_i = -c*u_j != 0.  Over F_2, z_1 is the
    whole overlap; for odd p it is a product of one-hot value indicators.
    Only the pairs within max_weight are built.
    """
    b, k, n = u.shape
    support = u != 0
    weights = support.sum(axis=2)
    flat = support.astype(np.float32)
    shared = flat @ flat.transpose(0, 2, 1)
    i_idx, j_idx = np.triu_indices(k, 1)
    base = weights[:, i_idx] + weights[:, j_idx] - shared[:, i_idx, j_idx]
    if p == 2:
        pair_weights = (base - shared[:, i_idx, j_idx])[:, :, None]
    else:
        values = np.arange(1, p)
        onehot = (u[:, :, None, :] == values[:, None]).astype(np.float32).reshape(b, k, -1)
        pair_weights = np.empty((b, i_idx.size, p - 1), dtype=np.float32)
        for c in range(1, p):
            # u_i = v meets u_j = -v/c, for each value v in the same order
            partner = u[:, :, None, :] == ((-values * pow(c, p - 2, p)) % p)[:, None]
            partner = partner.astype(np.float32).reshape(b, k, -1)
            zeros = onehot @ partner.transpose(0, 2, 1)
            pair_weights[:, :, c - 1] = base - zeros[:, i_idx, j_idx]
    item, pair, coeff = np.nonzero(pair_weights <= max_weight)
    i, j = i_idx[pair], j_idx[pair]
    combos = u[item, i] + (coeff + 1).astype(u.dtype)[:, None] * u[item, j]
    combos -= (combos // p) * p
    single_item, single_row = np.nonzero(weights <= max_weight)
    words = np.concatenate([u[single_item, single_row], combos]).astype(np.uint8)
    return words, np.concatenate([single_item, item])


def isd_rounds(
    gen: np.ndarray, perms: np.ndarray, p: int, max_weight: int, inv_mod: np.ndarray
):
    """Lee-Brickell rounds, one per row of perms, on a k x n generator.

    Round b systematizes gen[:, perms[b]].  Returns (words, items): the rows
    and row-pair combinations u_i + c*u_j (i < j, c != 0) of each round's
    RREF with weight <= max_weight, in gen's own column order, and the round
    index of every word.
    """
    reduced = _systematize(np.ascontiguousarray(gen[:, perms].transpose(1, 0, 2)), p, inv_mod)[0]
    # column t of round b is gen's column perms[b, t]; weights do not depend
    # on the column order, so restoring it first leaves the scores unchanged
    restored = np.empty_like(reduced)
    np.put_along_axis(restored, perms[:, None, :], reduced, axis=2)
    b, k, n = restored.shape
    step = max(1, _BATCH_BYTES // (4 * p * k * n))
    starts = range(0, b, step)
    found = [_low_weight_combinations(restored[s : s + step], p, max_weight) for s in starts]
    words = np.concatenate([w for w, _ in found])
    return words, np.concatenate([items + s for s, (_, items) in zip(starts, found)])


# -- numba-dispatching wrappers ----------------------------------------------


def spectrum_gf2_numba(rows: np.ndarray, collect_limit: int, capacity: int):
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not available")
    n = rows.shape[1]
    total = 1 << rows.shape[0]
    hist, stored, words, overflow = _spectrum_gf2_jit(
        pack_bits(rows), n, total, collect_limit, capacity
    )
    return hist, unpack_bits(words[:stored], n), overflow


def spectrum_modp_numba(rows: np.ndarray, p: int, collect_limit: int, capacity: int):
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not available")
    total = p ** rows.shape[0]
    hist, stored, words, overflow = _spectrum_modp_jit(
        np.ascontiguousarray(rows), p, total, collect_limit, capacity
    )
    return hist, words[:stored].copy(), overflow


def spectrum(rows: np.ndarray, p: int, collect_limit: int, capacity: int):
    """Dispatching full-spectrum enumeration.

    Returns (hist, collected words with weight in [1, collect_limit],
    overflow flag).  The word order is implementation-defined; callers that
    need determinism must sort.
    """
    if USE_NUMBA:
        if p == 2:
            return spectrum_gf2_numba(rows, collect_limit, capacity)
        return spectrum_modp_numba(rows, p, collect_limit, capacity)
    if p == 2:
        return spectrum_gf2_numpy(rows, collect_limit, capacity)
    return spectrum_modp_numpy(rows, p, collect_limit, capacity)


def isd_round(gen_permuted: np.ndarray, p: int, max_weight: int, inv_mod: np.ndarray):
    """One Lee-Brickell round on an already column-permuted generator: the
    one-round case of isd_rounds."""
    identity = np.arange(gen_permuted.shape[1])[None]
    return isd_rounds(gen_permuted, identity, p, max_weight, inv_mod)[0]
