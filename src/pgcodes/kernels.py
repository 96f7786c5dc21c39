"""Hot kernels: the spectrum sweep, search rounds, the mod-p eliminator and product.

The hot loops are full-spectrum enumeration (all p^k messages of a k-row
generator), the enumeration of low-weight messages behind a minimum-weight
proof, and the randomized information-set rounds of the low-weight search.
All are plain numpy whose inner work is float32 matrix products.

spectrum is a meet-in-the-middle sweep, one code path for every p.  It takes
a reduced basis, as every basis of a code model is, and refuses any other
input after one look at its shape (_rref_pivots): a word's entries on the
pivot columns are its message digits, so only the other columns enter the
products and the digit counts are added as constant columns.  Tables of all
combinations of a suffix and a middle group of rows are built and encoded
once, the remaining top rows are walked in mixed-radix Gray order, and a
step's matrix product gives the weight of every (suffix, middle) sum.  Over
F_2 the tables hold +-1 entries; over odd p they hold one-hot value
indicators, and a step is computed only for one top combination per scalar
orbit {c x : c != 0}.  While n is small beside the tables, two steps share
one product and one bincount, their weights packed as two base-(n+1) digits.
It returns the weight histogram and every word of weight 1..collect_limit,
with no cap on their number; analysis._sweep checks the one against the
MacWilliams identities and sorts the other.

lightest_words serves analysis.minimum_weight's Brouwer-Zimmermann proof
with the same machinery: it enumerates the messages of one weight t at a
time, one per scalar orbit, from two half tables built by _combinations
with at most t digits and encoded by _encode, one product per split of t
between the halves, and yields the lightest word of each weight.

_systematize is the package's one mod-p Gauss-Jordan eliminator: a single
pass brings every item of a (B, k, n) stack to reduced row-echelon form.
code.rref_mod_p, and through it every rank, basis and nullspace of the code
model, is its one-item case.  A model's matrices have rank far below their
width (65 of 585 columns on PG(3,8)), so most columns can hold no pivot; the
pass finds the next column that can with one look-ahead over a window of
columns, in place of a numpy step per column.

isd_rounds runs a whole batch of Lee-Brickell rounds at once in numpy:
_systematize reduces a stack of column-permuted generators, and matrix
products score every row pair, so only the pairs within the weight cap are
ever built.  A batch of one round, with the identity permutation, scores one
already permuted generator.

_product_mod_p is the package's one mod-p matrix product, behind code,
analysis, verify and geometry's GF(q) products: an exact float product on
BLAS whose whole-number entries are reduced in the narrowest unsigned type
that holds them.

Every float32 product here is a sum of small integers, or of halves, whose
partial sums stay below 2^23 (2^24 in _product_mod_p, which switches to
float64 beyond), so it is exact whatever order BLAS sums in, and results do
not depend on threading.
"""

from __future__ import annotations

import numpy as np

# -- spectrum sweep ----------------------------------------------------------

# the suffix table's float32 encoding and each step's float32 weight block
# stay near this many bytes
_SPECTRUM_BYTES = 1 << 19
# the middle table holds at most this many rows, or p rows if p is larger
_MIDDLE_ROWS = 256


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x % p in place, for unsigned x; x - (x // p) * p is several times
    faster than x % p."""
    q = x // p
    q *= p
    x -= q
    return x


def _exact_float(inner: int, p: int) -> type:
    """Float type whose sums of `inner` products of entries in [0, p) are
    exact: float32 while they stay below 2^24, float64 beyond."""
    return np.float32 if inner * (p - 1) ** 2 < 2**24 else np.float64


def _product_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p as uint8 for matrices with entries in [0, p).

    The product is one exact float product on BLAS (operands already in the
    exact float type are not copied).  Its entries are whole numbers of at
    most inner * (p-1)^2, so they are reduced as integers in the narrowest
    unsigned type that holds that bound (a byte for the short inner sizes of
    geometry's GF(q) products, up to uint64 for float64 sums), by _mod_p,
    which is much faster than a float remainder.
    """
    inner = a.shape[1]
    exact = _exact_float(inner, p)
    whole = np.min_scalar_type(inner * (p - 1) ** 2)
    sums = (a.astype(exact, copy=False) @ b.astype(exact, copy=False)).astype(whole)
    return _mod_p(sums, p).astype(np.uint8, copy=False)


def _combinations(rows: np.ndarray, p: int, max_digits: int | None = None) -> np.ndarray:
    """All p^m combinations sum_i c_i rows[i] mod p of m rows, as uint8 rows;
    with max_digits, only those with at most that many nonzero c_i, in the
    same order."""
    n = rows.shape[1]
    # c * row + entry stays below p (p - 1) + 1: a byte holds it up to p = 13,
    # and 2^16 up to p = 251
    dtype = np.uint8 if p * (p - 1) < 256 else np.uint16
    table = np.zeros((1, n), dtype=dtype)
    digits = np.zeros(1, dtype=np.intp)
    coeffs = np.arange(p, dtype=dtype)[:, None, None]
    for row in rows:
        table = _mod_p(table + coeffs * row.astype(dtype), p).reshape(p * len(table), n)
        if max_digits is not None:
            digits = (digits + (coeffs.ravel() != 0)[:, None]).ravel()
            table, digits = table[digits <= max_digits], digits[digits <= max_digits]
    return table.astype(np.uint8)


def _encode(values: np.ndarray, p: int, middle: bool = False) -> np.ndarray:
    """float32 rows whose products count the nonzeros of sums of two words.

    Over F_2, entry x becomes x - 1/2 (middle: 1 - 2x), so a column adds 1/2
    to the product of u's and v's encodings where u + v is 1 and -1/2 where
    it is 0: the product is wt(u + v) - n/2.  Over odd p, entry x becomes the
    p indicators -[x = t] (middle: [-x = t]), so a column adds -1 where
    u + v is 0: the product is wt(u + v) - n.
    """
    if p == 2:
        x = values.astype(np.float32)
        if middle:
            x *= -2
            x += 1
        else:
            x -= 0.5
        return x
    targets = ((-np.arange(p)) % p if middle else np.arange(p)).astype(np.uint8)
    onehot = (values[:, :, None] == targets).reshape(len(values), -1).astype(np.float32)
    return onehot if middle else -onehot


def _rref_pivots(rows: np.ndarray):
    """The pivot columns of a matrix in reduced row-echelon form with no zero
    row, or None for any other matrix; for a (..., r, c) stack of matrices,
    the (..., r) pivots if every one is so reduced, and None otherwise.

    Entries are field element indices, and every field's order puts 0 and 1
    first, so the test holds over any GF(q): each row leads with a 1, the
    leads move right, and since entries are not negative, a total of r over
    the r x r pivot submatrix leaves no other nonzero entry in the pivot
    columns.  A matrix with no rows is reduced, with no pivots.
    """
    if not rows.size:
        return None if len(rows) else np.zeros(rows.shape[:-1], dtype=np.intp)
    lead = (rows != 0).argmax(axis=-1)
    # at_lead[..., i, j] is rows[..., i, lead[..., j]]
    at_lead = np.take_along_axis(rows, lead[..., None, :], axis=-1)
    if (
        (lead[..., 1:] > lead[..., :-1]).all()
        and (np.diagonal(at_lead, axis1=-2, axis2=-1) == 1).all()
        and (at_lead.sum(axis=(-2, -1)) == rows.shape[-2]).all()
    ):
        return lead
    return None


def _reduced_basis(rows, p: int):
    """(rows as contiguous uint8, mask of the non-pivot columns) for a reduced
    basis over F_p; ValueError for any other input."""
    rows = np.asarray(rows)
    pivots = _rref_pivots(rows)
    if pivots is None or (rows.size and (rows.min() < 0 or rows.max() >= p)):
        raise ValueError(f"expected a reduced basis over F_{p}")
    free = np.ones(rows.shape[1], dtype=bool)
    free[pivots] = False
    return np.ascontiguousarray(rows, dtype=np.uint8), free


def _orbit_steps(rows: np.ndarray, p: int):
    """The top combinations a sweep computes, with their digit counts.

    The combinations of the rows are walked in mixed-radix Gray order, and
    the zero combination and every one whose leading nonzero digit is 1
    are yielded: one per scalar orbit {c x : c != 0}.  Over F_2 that is
    every combination.
    """
    # uint16: two entries below 251 add up to more than a byte holds
    cur = np.zeros(rows.shape[1], dtype=np.uint16)
    digits = [0] * len(rows)
    for t in range(p ** len(rows)):
        if t:
            # step t adds row j, where j counts the trailing (p - 1) digits
            # of t - 1 in base p
            x, j = t - 1, 0
            while x % p == p - 1:
                x //= p
                j += 1
            cur = (cur + rows[j]) % p
            digits[j] = (digits[j] + 1) % p
        nonzero = [d for d in digits if d]
        if not nonzero or nonzero[-1] == 1:
            yield cur, len(nonzero)


def spectrum(rows: np.ndarray, p: int, collect_limit: int):
    """Weight histogram of all p^k messages of a k x n basis over F_p.

    The rows must be a reduced basis: in reduced row-echelon form, with no
    zero row and entries below p, as every basis of a code model is; any
    other input raises ValueError.  Returns (hist, words): hist[w] counts
    the messages whose word has weight w, and words holds every word of
    weight in [1, collect_limit], one per message.  The word order is
    implementation-defined; analysis._sweep checks the histogram and sorts.

    A word's entries on the pivot columns are its message digits, so its
    weight is its number of nonzero digits plus its weight on the n - k
    other columns, and only those columns enter the products.  The rows
    are split into a suffix and a middle group, whose tables of all
    combinations are built and encoded once, and top rows, walked by
    _orbit_steps.  A step's matrix product gives the weight of every
    (suffix, middle) sum plus the step's top combination.  For odd p only
    one step per scalar orbit is computed: c times its block is the block
    of its c-th multiple, with the same weights, so it is counted p - 1
    times and its collected words are expanded by c = 1..p-1.  Two steps
    share one product while the block has at least (n+1)^2 entries: their
    step codes combine as (n+1) C_a + C_b, so an entry is (n+1) w_a + w_b,
    and one bincount over (n+1)^2 bins counts both.
    """
    rows, free = _reduced_basis(rows, p)
    k, n = rows.shape
    n_free = int(free.sum())
    width = n_free * (1 if p == 2 else p)
    middle = min(k, 1)
    while middle < k and p ** (middle + 1) <= _MIDDLE_ROWS:
        middle += 1
    suffix = 0
    while suffix < k - middle and p ** (suffix + 1) * 4 * max(width + 2, p**middle) <= _SPECTRUM_BYTES:
        suffix += 1
    top = k - middle - suffix
    suffix_values = _combinations(rows[top + middle :], p)
    middle_values = _combinations(rows[top : top + middle], p)
    # suffix rows [code(u), n_free (or n_free / 2) + digits(u), 1] times
    # middle columns [middle code(v + cur), 1, digits(v) + digits(cur)]
    # give the weight of u + v + cur
    offset = n_free / 2 if p == 2 else n_free
    suffix_code = np.hstack(
        [
            _encode(suffix_values[:, free], p),
            (offset + (suffix_values[:, ~free] != 0).sum(axis=1))[:, None],
            np.ones((len(suffix_values), 1)),
        ]
    ).astype(np.float32)
    middle_code = np.ascontiguousarray(_encode(middle_values[:, free], p, middle=True).T)
    middle_digits = (middle_values[:, ~free] != 0).sum(axis=1)
    # over odd p, row (col, t) of the middle code is [-v = t], and
    # [-(v + c) = t] = [-v = t + c]: a shift is a gather of rows
    gather_base = np.arange(n_free)[:, None] * p
    values = np.arange(p)

    def encode_step(cur, ndigits, out):
        cur_free = cur[free]
        if p == 2:
            np.multiply(middle_code, (1 - 2 * cur_free.astype(np.float32))[:, None], out=out[:width])
        else:
            shift = (gather_base + (values + cur_free[:, None]) % p).ravel()
            np.take(middle_code, shift, axis=0, out=out[:width], mode="clip")
        out[width] = 1
        out[width + 1] = middle_digits + ndigits

    step_code = np.empty((width + 2, len(middle_values)), dtype=np.float32)
    spare = np.empty_like(step_code)
    block = np.empty((len(suffix_values), len(middle_values)), dtype=np.float32)
    # two steps share a product while its (n + 1)^2 bins are no more than
    # the block's entries, of which there are at most _SPECTRUM_BYTES / 4
    # = 2^17.  Then n < 362, and the partial sums of a shared product, at
    # most (n + 2) 2n in absolute value (2n for one step's), are exact in
    # float32, which holds multiples of 1/2 exactly below 2^23
    base = n + 1
    per_product = 2 if base * base <= block.size else 1
    hist = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    # each weight of a step stands for these multiples of its word (c = 1
    # alone at the zero top combination)
    multiples = [np.arange(1, m, dtype=np.uint16) for m in (2, p)]
    steps = list(_orbit_steps(rows[:top], p))
    for first in range(0, len(steps), per_product):
        group = steps[first : first + per_product]
        encode_step(*group[-1], step_code)
        if len(group) == 2:
            # the first step's weight is the high digit in base n + 1
            encode_step(*group[0], spare)
            spare *= base
            step_code += spare
        np.matmul(suffix_code, step_code, out=block)
        counts = np.bincount(block.ravel().astype(np.intp), minlength=base ** len(group))
        counts = counts.reshape(-1, base)
        lane_counts = [counts.sum(axis=1), counts.sum(axis=0)][-len(group) :]
        for (cur, ndigits), lane in zip(group, lane_counts):
            hist += lane * multiples[ndigits > 0].size
        if collect_limit < 1:
            continue
        # the block holds whole numbers, so float32 arithmetic on it is exact
        lane_weights = [block]
        if len(group) == 2:
            high = block // base
            block -= base * high
            lane_weights.insert(0, high)
        for (cur, ndigits), lane in zip(group, lane_weights):
            scales = multiples[ndigits > 0]
            i, j = np.nonzero((lane > 0) & (lane <= collect_limit))
            if i.size:
                # entries stay below 3p and p^2, within uint16
                hits = middle_values[j].astype(np.uint16)
                hits += suffix_values[i]
                hits += cur
                found = _mod_p(hits, p)[None]
                if scales.size > 1:
                    found = _mod_p(scales[:, None, None] * found, p)
                chunks.append(found.reshape(-1, n).astype(np.uint8))
    words = np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.uint8)
    return hist, words


def _digit_groups(rows: np.ndarray, p: int, max_digits: int, free: np.ndarray):
    """The combinations of rows of a reduced basis with at most max_digits
    nonzero digits, grouped: (table, starts, units), where the rows with d
    digits are table[starts[d]:starts[d + 1]] and those of them whose
    leading digit is 1 are table[starts[d]:units[d]]."""
    table = _combinations(rows, p, max_digits)
    nonzero = table != 0
    # the zero combination leads with no digit, as does every one of a
    # basis with no columns
    unit = np.zeros(len(table), dtype=bool)
    if table.shape[1]:
        unit = table[np.arange(len(table)), nonzero.argmax(axis=1)] == 1
    digits = nonzero[:, ~free].sum(axis=1)
    order = np.lexsort((~unit, digits))
    starts = np.searchsorted(digits[order], np.arange(max_digits + 2))
    return table[order], starts, starts[:-1] + np.bincount(digits[unit], minlength=max_digits + 1)


def lightest_words(rows: np.ndarray, p: int, max_weight: int):
    """For t = 1..max_weight in turn, the lightest word of the messages of
    weight t of a k x n reduced basis over F_p, one message per scalar orbit
    {c x : c != 0}.

    The basis is taken as spectrum takes it.  A generator: it yields
    (messages, weight, word) for each t, the number of messages enumerated,
    which is C(k, t)(p-1)^(t-1) when none is lost, and the least weight of
    their words, with one word of that weight (None and None when there is
    no message).

    A message of weight t puts w digits on the first k // 2 rows and t - w
    on the others.  The combinations of each half with at most max_weight
    nonzero digits are built once (_combinations) and grouped by their digit
    count; one message per orbit is kept, the one whose leading digit, the
    first nonzero entry of its word, is 1.  Each weight class (w, t - w) is
    then one float32 product of the two groups' encodings (_encode), which
    gives the weight on the non-pivot columns of every sum; the t pivot
    columns add t.  The tables stay uint8 and each class is encoded when it
    is multiplied, so a proof that keeps one enumerator per information set
    holds their bytes, not four times as many.
    """
    rows, free = _reduced_basis(rows, p)
    k = rows.shape[0]
    half = k // 2
    left, left_starts, left_units = _digit_groups(rows[:half], p, max_weight, free)
    right, right_starts, right_units = _digit_groups(rows[half:], p, max_weight, free)
    # the product is wt - n_free / 2 over F_2 and wt - n_free over odd p
    offset = int(free.sum()) / (2 if p == 2 else 1)
    for t in range(1, max_weight + 1):
        messages, weight, word = 0, None, None
        for w in range(max(0, t - (k - half)), min(t, half) + 1):
            # the leading digit is the first half's unless it has none
            a = left[left_starts[w] : left_units[w] if w else left_starts[1]]
            b = right[right_starts[t - w] : right_units[t] if w == 0 else right_starts[t - w + 1]]
            messages += len(a) * len(b)
            if not (len(a) and len(b)):
                continue
            b_code = _encode(b[:, free], p, middle=True)
            step = max(1, _SPECTRUM_BYTES // (4 * len(b)))
            for start in range(0, len(a), step):
                block = _encode(a[start : start + step, free], p) @ b_code.T
                i, j = np.unravel_index(block.argmin(), block.shape)
                lightest = t + int(block[i, j] + offset)
                if weight is None or lightest < weight:
                    # entries stay below 2p, within uint16
                    found = a[start + i].astype(np.uint16) + b[j]
                    weight, word = lightest, _mod_p(found, p).astype(np.uint8)
        yield messages, weight, word


# -- batched Lee-Brickell rounds ---------------------------------------------

# a batch's stacked generators, and each scoring chunk's float32 copies (the
# support and one indicator per nonzero value), stay near this many bytes
_BATCH_BYTES = 1 << 18
# a column where no free row of any item is nonzero looks this many columns
# ahead for the next one where some item can pivot
_LOOKAHEAD = 64


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
    nonzero in that column for some item.  At a column where no item has
    such a row, one look-ahead over the free rows of every item finds the
    next column of the following _LOOKAHEAD where one has, or passes the
    whole window: the skipped columns hold no eligible entry and nothing
    changes while skipping, so pivots and rows are those of a pass that
    visits every column.  Entries stay reduced, so the row updates fit uint8
    while p^2 <= 256 and uint16 up to p = 251.  Returns (reduced, pivots):
    rows come back in pivot-column order, and pivots[b, i] is the pivot
    column of row i of item b, or n for a zero row.
    """
    b, k, n = gens.shape
    dtype = np.uint8 if p * p <= 256 else np.uint16
    u = gens.astype(dtype)
    inv = inv_mod.astype(dtype)
    free = np.ones((b, k), dtype=bool)
    pivot_col = np.full((b, k), n)
    items = np.arange(b)
    c = 0
    while c < n and free.any():
        col = u[:, :, c].copy()
        eligible = (col != 0) & free
        has = eligible.any(axis=1)
        if not has.any():
            ahead = np.flatnonzero(u[:, :, c + 1 : c + 1 + _LOOKAHEAD][free].any(axis=0))
            c += 1 + (ahead[0] if ahead.size else _LOOKAHEAD)
            continue
        row = eligible.argmax(axis=1)
        prow = u[items, row, c:]
        touched = np.flatnonzero(col.any(axis=0))
        col = col[:, touched, None]
        if p == 2:
            prow *= has[:, None]
            u[:, touched, c:] ^= col & prow[:, None, :]
        else:
            # items without a pivot here get a zero pivot row: a no-op update
            prow *= (inv[prow[:, 0]] * has)[:, None]
            _mod_p(prow, p)
            update = (p - col) * prow[:, None, :]
            update += u[:, touched, c:]
            _mod_p(update, p)
            u[:, touched, c:] = update
        hit = np.nonzero(has)[0]
        u[hit, row[hit], c:] = prow[hit]
        free[hit, row[hit]] = False
        pivot_col[hit, row[hit]] = c
        c += 1
    order = np.argsort(pivot_col, axis=1, kind="stable")
    return u[items[:, None], order], pivot_col[items[:, None], order]


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
    _mod_p(combos, p)
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
