"""Hot kernels: the spectrum sweep, batched search rounds and the mod-p eliminator.

The two hot loops are full-spectrum enumeration (all p^k messages of a k-row
generator) and the randomized information-set rounds of the low-weight
search.  Both are plain numpy whose inner work is float32 matrix products.

spectrum is a meet-in-the-middle sweep, one code path for every p: tables of
all combinations of a suffix and a middle group of rows are built once, the
remaining top rows are walked in mixed-radix Gray order, and at each step one
matrix product gives the weight of every (suffix, middle) sum.  Over F_2 the
tables hold +-1 entries; over odd p they hold one-hot value indicators.

_systematize is the package's one mod-p Gauss-Jordan eliminator: a single
pass brings every item of a (B, k, n) stack to reduced row-echelon form.
code.rref_mod_p, and through it every rank, basis and nullspace of the code
model, is its one-item case.

isd_rounds runs a whole batch of Lee-Brickell rounds at once in numpy:
_systematize reduces a stack of column-permuted generators, and matrix
products score every row pair, so only the pairs within the weight cap are
ever built.  isd_round is its one-round case.

Every float32 product here is a sum of small integers whose partial sums
stay far below 2^24, so it is exact whatever order BLAS sums in, and results
do not depend on threading.
"""

from __future__ import annotations

import numpy as np

# -- spectrum sweep ----------------------------------------------------------

# the suffix table's float32 encoding and each step's float32 weight block
# stay near this many bytes
_SPECTRUM_BYTES = 1 << 19
# the middle table holds at most this many rows, or p rows if p is larger
_MIDDLE_ROWS = 256


def _combinations(rows: np.ndarray, p: int) -> np.ndarray:
    """All p^m combinations sum_i c_i rows[i] mod p of m rows, as uint8 rows."""
    n = rows.shape[1]
    table = np.zeros((1, n), dtype=np.uint16)
    coeffs = np.arange(p, dtype=np.uint16)[:, None, None]
    for row in rows:
        # c * row + entry stays below 251 * 251 < 2^16
        table = ((table + coeffs * row) % p).reshape(p * len(table), n)
    return table.astype(np.uint8)


def _encode(values: np.ndarray, p: int, negated: bool = False) -> np.ndarray:
    """float32 rows whose products count the zeros of sums of two words.

    Over F_2, entry x becomes 1 - 2x, and the product of the encodings of u
    and v is n - 2 wt(u + v).  Over odd p, entry x becomes the p indicators
    [x = t] (negated: [-x = t]), and the product of u's encoding and v's
    negated encoding is the number of zeros of u + v.
    """
    if p == 2:
        return 1 - 2 * values.astype(np.float32)
    targets = ((-np.arange(p)) % p if negated else np.arange(p)).astype(np.uint8)
    return (values[:, :, None] == targets).reshape(len(values), -1).astype(np.float32)


def spectrum(rows: np.ndarray, p: int, collect_limit: int, capacity: int):
    """Weight histogram of all p^k messages of a k x n generator over F_p.

    Returns (hist, words, overflow): hist[w] counts the messages whose word
    has weight w; words holds the words of weight in [1, collect_limit],
    at most capacity of them, and overflow says whether any were dropped.
    The word order is implementation-defined; callers that need determinism
    must sort.
    """
    k, n = rows.shape
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    scale = 2 if p == 2 else 1
    width = n * (1 if p == 2 else p) + 1
    middle = min(k, 1)
    while middle < k and p ** (middle + 1) <= _MIDDLE_ROWS:
        middle += 1
    suffix = 0
    while suffix < k - middle and p ** (suffix + 1) * 4 * max(width, p**middle) <= _SPECTRUM_BYTES:
        suffix += 1
    top = k - middle - suffix
    suffix_values = _combinations(rows[top + middle :], p)
    middle_values = _combinations(rows[top : top + middle], p).astype(np.uint16)
    # suffix rows [-code(u), n] times middle rows [negated code(v), 1] give
    # n - (n - 2 wt(u + v)) over F_2 and n - zeros(u + v) over odd p
    suffix_code = np.hstack(
        [-_encode(suffix_values, p), np.full((len(suffix_values), 1), n, dtype=np.float32)]
    )
    ones = np.ones((len(middle_values), 1), dtype=np.float32)
    hist = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    stored = 0
    overflow = False
    cur = np.zeros(n, dtype=np.uint16)
    for t in range(p**top):
        if t:
            # mixed-radix Gray order: step t adds top row r, where r counts
            # the trailing (p - 1) digits of t - 1 in base p
            x, r = t - 1, 0
            while x % p == p - 1:
                x //= p
                r += 1
            cur = (cur + rows[r]) % p
        shifted = ((middle_values + cur) % p).astype(np.uint8)
        middle_code = np.hstack([_encode(shifted, p, negated=True), ones])
        # scale * weight of suffix row i plus shifted middle row j
        weights = (suffix_code @ middle_code.T).astype(np.int32)
        hist += np.bincount(weights.ravel(), minlength=scale * n + 1)[::scale]
        if collect_limit < 1:
            continue
        i, j = np.nonzero((weights > 0) & (weights <= scale * collect_limit))
        if i.size > capacity - stored:
            overflow = True
            i, j = i[: capacity - stored], j[: capacity - stored]
        if i.size:
            chunks.append(((suffix_values[i] + shifted[j].astype(np.uint16)) % p).astype(np.uint8))
            stored += i.size
    words = np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.uint8)
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


def isd_round(gen_permuted: np.ndarray, p: int, max_weight: int, inv_mod: np.ndarray):
    """One Lee-Brickell round on an already column-permuted generator: the
    one-round case of isd_rounds."""
    identity = np.arange(gen_permuted.shape[1])[None]
    return isd_rounds(gen_permuted, identity, p, max_weight, inv_mod)[0]
