"""Hot kernels: the spectrum sweep, search rounds, the mod-p eliminator and product.

The hot loops are full-spectrum enumeration (all p^k messages of a k-row
generator), the enumeration of low-weight messages behind a minimum-weight
proof, and the randomized information-set rounds of the low-weight search.
All are plain numpy whose inner work is float32 matrix products.

spectrum is a meet-in-the-middle sweep, one code path for every p.  It takes
a reduced basis, as every basis of a code model is, and refuses any other
input after one look at its shape (_rref_pivots): a word's entries on the
pivot columns are its message digits, so only the other columns enter the
products and the digit counts are added as constant columns.  The tables of
all combinations of the first k // 2 rows and of the others are built once,
and a float32 product of their encodings gives the weight of every sum of a
left and a right row in a block: one bincount per block counts them.  Over
F_2 the encodings hold +-1/2 and +-1 entries; over odd p they hold one-hot
value indicators.  One message per scalar orbit {c x : c != 0} is weighed,
the one whose leading digit is 1.  It returns the weight histogram and
every word of weight 1..collect_limit, with no cap on their number.  The
package sweeps only the generator: analysis.enumerate_spectrum checks the
histogram against the MacWilliams identities and sorts the words.

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
columns, in place of a numpy step per column.  Over F_2 it keeps rows as
64-column uint64 words, so a column step is one XOR of words over the whole
stack (the packed layout of Albrecht, Bard and Hart's M4RI); over odd p it
keeps one byte, or two, per entry.

isd_rounds runs a whole batch of Lee-Brickell rounds at once in numpy:
_systematize reduces a stack of column-permuted generators, one gather puts
every round's columns back in the generator's order and one more takes each
round's non-pivot columns.  Rows of a reduced generator never meet on a
pivot, so row pairs are scored on those columns alone.  Over F_2 one overlap
product gives every pair's weight.  Over odd p the overlap and one product
of quadratic characters bound the weight of every multiple u_i + c u_j from
below, and only the pairs whose bound is within the weight cap are expanded
over c, so only the words within the cap are ever built.  A batch of one
round, with the identity permutation, scores one already permuted generator.

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

from pgcodes.gf import make_field

# -- spectrum sweep ----------------------------------------------------------

# a right chunk's float32 encoding and each float32 weight block stay near
# this many bytes, and a left chunk's encoding near four times as many
_SPECTRUM_BYTES = 1 << 19


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


def _encode(values: np.ndarray, p: int, right: bool = False) -> np.ndarray:
    """float32 rows whose products count the nonzeros of sums of two words.

    Over F_2, entry x becomes x - 1/2 (right: 1 - 2x), so a column adds 1/2
    to the product of u's and v's encodings where u + v is 1 and -1/2 where
    it is 0: the product is wt(u + v) - n/2.  Over odd p, entry x becomes the
    p indicators -[x = t] (right: [-x = t]), so a column adds -1 where
    u + v is 0: the product is wt(u + v) - n.  Those indicators are laid out
    target by target, column t n + c holding target t of column c: one
    comparison per target fills a contiguous block.
    """
    if p == 2:
        x = values.astype(np.float32)
        if right:
            x *= -2
            x += 1
        else:
            x -= 0.5
        return x
    onehot = np.empty((len(values), p, values.shape[1]), dtype=np.float32)
    for t in range(p):
        onehot[:, t] = values == ((-t) % p if right else t)
    if not right:
        np.negative(onehot, out=onehot)
    return onehot.reshape(len(values), -1)


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


def _digits_and_units(table: np.ndarray, free: np.ndarray):
    """(digits, unit) for combinations of rows of a reduced basis: each one's
    number of nonzero message digits, its nonzero entries on the pivot
    columns, and whether its leading digit, its first nonzero entry, is 1."""
    nonzero = table != 0
    # the zero combination leads with no digit, as does every one of a
    # basis with no columns
    unit = np.zeros(len(table), dtype=bool)
    if table.shape[1]:
        unit = table[np.arange(len(table)), nonzero.argmax(axis=1)] == 1
    return nonzero[:, ~free].sum(axis=1), unit


def spectrum(rows: np.ndarray, p: int, collect_limit: int):
    """Weight histogram of all p^k messages of a k x n basis over F_p.

    The rows must be a reduced basis: in reduced row-echelon form, with no
    zero row and entries below p, as every basis of a code model is; any
    other input raises ValueError.  Returns (hist, words): hist[w] counts
    the messages whose word has weight w, and words holds every word of
    weight in [1, collect_limit], one per message.  The word order is
    implementation-defined; analysis.enumerate_spectrum checks the histogram
    and sorts.

    A word's entries on the pivot columns are its message digits, so its
    weight is its number of nonzero digits plus its weight on the n - k
    other columns, and only those columns enter the products.  A message is
    a sum u + v of a combination u of the first k // 2 rows and one v of
    the others, and the two tables of all such combinations are built by
    _combinations.  One message per scalar orbit {c x : c != 0} is swept:
    a left row whose leading digit is 1 with any right row, or the zero
    left row with a right row whose leading digit is 1.  Left rows encode
    as [code(u), digits(u), 1] and right rows as [code(v), 1, digits(v)
    plus the offset of _encode], so a float32 product of the two gives the
    weight of every u + v of its block.  Each block is counted p - 1 times,
    the zero message once, and over odd p its collected words are expanded
    by c = 1..p-1.
    """
    rows, free = _reduced_basis(rows, p)
    k, n = rows.shape
    left, right = _combinations(rows[: k // 2], p), _combinations(rows[k // 2 :], p)
    left_digits, left_units = _digits_and_units(left, free)
    right_digits, right_units = _digits_and_units(right, free)
    n_free = int(free.sum())
    # the product of the codes is wt - n_free / 2 over F_2, wt - n_free over
    # odd p
    offset = n_free / 2 if p == 2 else n_free

    def encode(values, digits, is_right):
        code = _encode(values[:, free], p, right=is_right)
        ones = np.ones((len(values), 1), dtype=np.float32)
        digits = digits[:, None].astype(np.float32) + (offset if is_right else 0)
        return np.hstack([code, ones, digits] if is_right else [code, digits, ones])

    chunk = max(1, _SPECTRUM_BYTES // (4 * (n_free * (1 if p == 2 else p) + 2)))
    hist = np.zeros(n + 1, dtype=np.int64)
    hist[0] = 1
    collected = []
    scales = np.arange(1, p, dtype=np.uint16)[:, None, None]
    # the zero combination is row 0 of a table
    everything, zero = np.arange(len(right)), np.zeros(1, dtype=np.intp)
    for a, b in [(np.flatnonzero(left_units), everything), (zero, np.flatnonzero(right_units))]:
        # a few chunks of left rows are encoded at a time, and the right
        # table once for each of them
        for a_start in range(0, len(a), 4 * chunk):
            a_rows = a[a_start : a_start + 4 * chunk]
            a_code = encode(left[a_rows], left_digits[a_rows], False)
            for b_start in range(0, len(b), chunk):
                b_rows = b[b_start : b_start + chunk]
                b_code = encode(right[b_rows], right_digits[b_rows], True).T
                step = max(1, _SPECTRUM_BYTES // (4 * len(b_rows)))
                for start in range(0, len(a_rows), step):
                    block = a_code[start : start + step] @ b_code
                    hist += np.bincount(block.ravel().astype(np.intp), minlength=n + 1) * (p - 1)
                    if collect_limit < 1:
                        continue
                    # every message here is nonzero, of weight at least 1; flat
                    # indices, as np.nonzero of a 2-d mask is many times slower
                    i, j = np.divmod(np.flatnonzero(block <= collect_limit), block.shape[1])
                    if i.size:
                        # sums stay below 2p and multiples below p^2, within uint16
                        found = left[a_rows[start + i]].astype(np.uint16)
                        found += right[b_rows[j]]
                        found = _mod_p(found, p)[None]
                        if p > 2:
                            found = _mod_p(scales * found, p)
                        collected.append(found.reshape(-1, n).astype(np.uint8))
    words = np.concatenate(collected) if collected else np.zeros((0, n), dtype=np.uint8)
    return hist, words


def _digit_groups(rows: np.ndarray, p: int, max_digits: int, free: np.ndarray):
    """The combinations of rows of a reduced basis with at most max_digits
    nonzero digits, grouped: (table, starts, units), where the rows with d
    digits are table[starts[d]:starts[d + 1]] and those of them whose
    leading digit is 1 are table[starts[d]:units[d]]."""
    table = _combinations(rows, p, max_digits)
    digits, unit = _digits_and_units(table, free)
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
    then float32 products of the two groups' encodings (_encode), which
    give the weight on the non-pivot columns of every sum; the t pivot
    columns add t.  The tables stay uint8 and each class is encoded in
    chunks as it is multiplied, so that each chunk's encoding and each
    product block stay near _SPECTRUM_BYTES.
    """
    rows, free = _reduced_basis(rows, p)
    k = rows.shape[0]
    half = k // 2
    left, left_starts, left_units = _digit_groups(rows[:half], p, max_weight, free)
    right, right_starts, right_units = _digit_groups(rows[half:], p, max_weight, free)
    # the non-pivot columns first, so that _encode reads rows of them, which
    # is several times faster than reading a selection of columns
    columns = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    left, right = left[:, columns], right[:, columns]
    n_free = int(free.sum())
    width = n_free * (1 if p == 2 else p)
    chunk = max(1, _SPECTRUM_BYTES // (4 * max(width, 1)))
    # the product is wt - n_free / 2 over F_2 and wt - n_free over odd p
    offset = n_free / (2 if p == 2 else 1)
    for t in range(1, max_weight + 1):
        messages, weight, word = 0, None, None
        for w in range(max(0, t - (k - half)), min(t, half) + 1):
            # the leading digit is the first half's unless it has none
            a = left[left_starts[w] : left_units[w] if w else left_starts[1]]
            b = right[right_starts[t - w] : right_units[t] if w == 0 else right_starts[t - w + 1]]
            messages += len(a) * len(b)
            for b_start in range(0, len(b), chunk):
                b_code = _encode(b[b_start : b_start + chunk, :n_free], p, right=True)
                step = max(1, _SPECTRUM_BYTES // (4 * max(width, len(b_code))))
                for start in range(0, len(a), step):
                    block = _encode(a[start : start + step, :n_free], p) @ b_code.T
                    i, j = np.unravel_index(block.argmin(), block.shape)
                    lightest = t + int(block[i, j] + offset)
                    if weight is None or lightest < weight:
                        # entries stay below 2p, within uint16
                        found = a[start + i].astype(np.uint16) + b[b_start + j]
                        weight, word = lightest, np.empty(len(columns), dtype=np.uint8)
                        word[columns] = _mod_p(found, p)
        yield messages, weight, word


# -- batched Lee-Brickell rounds ---------------------------------------------

# a batch's stacked generators, and each scoring chunk's float32 copies (the
# support and the quadratic character of its rounds' non-pivot entries, and
# their k x k products), stay near this many bytes
_BATCH_BYTES = 1 << 18
# over odd p, a column where no free row of any item is nonzero looks this
# many columns ahead for the next one where some item can pivot
_LOOKAHEAD = 64
# over F_2, rows are packed 64 columns to a little-endian word: column c is
# bit c % 64 of word c // 64, and _WORD_BITS[c % 64] selects it
_WORD_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def isd_batch_size(k: int, n: int) -> int:
    """Rounds per isd_rounds call for a k x n generator."""
    return max(1, _BATCH_BYTES // (k * n))


def _systematize(gens: np.ndarray, p: int):
    """RREF of every item of a (B, k, n) stack in one batched Gauss-Jordan pass.

    This is the package's mod-p eliminator: code.rref_mod_p is its one-item
    case and isd_rounds runs it on a batch of column-permuted generators.
    Each item tracks which of its rows already hold a pivot; one column step
    pivots every item that has a free row nonzero in that column and leaves
    the others unchanged, and the pass stops once every item has k pivots.
    A step rewrites only the columns from the pivot on.  At a column where
    no item has such a row, one look-ahead over the free rows of every item
    finds the next column where one has, within a window: the skipped
    columns hold no eligible entry and nothing changes while skipping, so
    pivots and rows are those of a pass that visits every column.  Over F_2
    the rows are 64-column words (_eliminate_f2); over odd p they are
    bytes (_eliminate_mod_p).  Returns (reduced, pivots) with uint8 rows for
    p = 2 and p^2 <= 256, uint16 beyond: rows come back in pivot-column
    order, and pivots[b, i] is the pivot column of row i of item b, or n for
    a zero row.
    """
    if p == 2:
        u, pivot_col = _eliminate_f2(gens)
    else:
        u, pivot_col = _eliminate_mod_p(gens, p)
    items = np.arange(len(u))[:, None]
    order = np.argsort(pivot_col, axis=1, kind="stable")
    return u[items, order], pivot_col[items, order]


def _eliminate_f2(gens: np.ndarray):
    """_systematize's pass over F_2 on (words, items, rows) planes of uint64.

    Plane w holds word w of every row, so a column step reads its bit from
    one plane and adds the pivot row's words, from the pivot's word on, to
    every other row that has the bit, in one XOR over the stack whose inner
    loop runs over rows.  Free rows are zero left of the current column, so
    the look-ahead is one OR over the free rows' current word and a scan for
    its lowest bit, or a jump to the next word.  Returns the rows unpacked
    to uint8 bytes, in their pass order, and their pivot columns.
    """
    b, k, n = gens.shape
    nwords = -(-n // 64)
    packed = np.zeros((b, k, 8 * nwords), dtype=np.uint8)
    packed[:, :, : -(-n // 8)] = np.packbits(gens, axis=2, bitorder="little")
    planes = np.ascontiguousarray(packed.view("<u8").transpose(2, 0, 1))
    zero = np.uint64(0)
    free = np.ones((b, k), dtype=bool)
    pivot_col = np.full((b, k), n)
    items = np.arange(b)
    c = 0
    while c < n and free.any():
        w, bit = divmod(c, 64)
        plane = planes[w]
        hot = (plane & _WORD_BITS[bit]) != 0
        eligible = hot & free
        has = eligible.any(axis=1)
        if not has.any():
            ahead = int(np.bitwise_or.reduce(plane[free]))
            c = 64 * w + ((ahead & -ahead).bit_length() - 1 if ahead else 64)
            continue
        row = eligible.argmax(axis=1)
        hit = np.nonzero(has)[0]
        # items without a pivot here get a zero pivot row: a no-op update
        prow = planes[w:, items, row]
        prow *= has
        hot[hit, row[hit]] = False
        planes[w:] ^= np.where(hot, prow[:, :, None], zero)
        free[hit, row[hit]] = False
        pivot_col[hit, row[hit]] = c
        c += 1
    rows = np.ascontiguousarray(planes.transpose(1, 2, 0)).view(np.uint8)
    return np.unpackbits(rows, axis=2, count=n, bitorder="little"), pivot_col


def _eliminate_mod_p(gens: np.ndarray, p: int):
    """_systematize's pass over odd p on bytes.

    A step rewrites only the rows that are nonzero in the pivot column for
    some item, and the look-ahead reads the next _LOOKAHEAD columns of the
    free rows.  Entries stay reduced, so the row updates fit uint8 while
    p^2 <= 256 and uint16 up to p = 251.  Returns the rows in their pass
    order and their pivot columns.
    """
    b, k, n = gens.shape
    dtype = np.uint8 if p * p <= 256 else np.uint16
    u = gens.astype(dtype)
    inv = make_field(p).inv_table.astype(dtype)
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
    return u, pivot_col


def _quadratic_character(p: int) -> np.ndarray:
    """chi(x) for x in F_p, odd p, as float32: 0, +1 on squares, -1 beyond."""
    chi = np.full(p, -1, dtype=np.float32)
    chi[0] = 0
    chi[np.arange(1, p) ** 2 % p] = 1
    return chi


def _low_weight_combinations(u: np.ndarray, a: np.ndarray, p: int, max_weight: int):
    """Rows and row pairs u_i + c*u_j (i < j) of weight <= max_weight.

    u is a stack of reduced generators, and a[b, t, i] is row i of item b
    on its t-th non-pivot column.  Rows never meet on a pivot, so with a_i
    row i on the non-pivot columns, wt_i = wt(u_i) = 1 + wt(a_i) and
    wt(u_i + c*u_j) = 2 + wt(a_i + c*a_j) = wt_i + wt_j - s - z_c, where
    s = |S_i & S_j| and z_c counts the positions with a_i = -c*a_j.  Over
    F_2, z_1 = s: one overlap product gives every pair weight.  Over odd p
    the positions of S_i & S_j split by the quadratic character of
    -a_i/a_j, and all those counted by one z_c lie in one class; with
    Q = sum chi(a_i) chi(a_j), the classes hold (s + Q)/2 and (s - Q)/2
    positions, so z_c <= (s + |Q|)/2, with equality for p = 3.  One +-1
    product gives Q, and only the pairs that can reach max_weight under
    that bound are expanded over c = 1..p-1, on their non-pivot entries.
    Only the words within max_weight are built.
    """
    k = u.shape[1]
    support = (a != 0).astype(np.float32)
    weights = support.sum(axis=1) + 1
    # entries are 0/1 and 0/+-1 over fewer than 2^24 columns: the products
    # are exact in float32.  least[b, i, j] ends as the least weight that
    # any multiple c can give the pair
    least = support.transpose(0, 2, 1) @ support
    if p == 2:
        least *= 2
    else:
        agree = _quadratic_character(p)[a]
        agree = agree.transpose(0, 2, 1) @ agree
        np.abs(agree, out=agree)
        agree += least
        agree *= 0.5
        least += agree
    np.subtract(weights[:, :, None], least, out=least)
    least += weights[:, None, :]
    item, i, j = np.nonzero((least <= max_weight) & np.triu(np.ones((k, k), dtype=bool), 1))
    coeff = np.ones(item.size, dtype=u.dtype)
    if p > 2:
        # the exact weights of those pairs for every c, from their sums
        # laid out (c, column, pair), so that counting adds contiguous rows
        scales = np.arange(1, p, dtype=u.dtype)[:, None, None]
        count = np.min_scalar_type(a.shape[1] + 2)
        keep = [np.zeros((0, 2), dtype=np.intp)]
        step = max(1, _BATCH_BYTES // (4 * (p - 1) * max(1, a.shape[1])))
        for s in range(0, item.size, step):
            pair = slice(s, s + step)
            sums = scales * a[item[pair], :, j[pair]].T
            sums += a[item[pair], :, i[pair]].T
            light = (_mod_p(sums, p) != 0).sum(axis=1, dtype=count) + 2 <= max_weight
            keep.append(np.argwhere(light.T) + [s, 1])
        keep = np.concatenate(keep)
        item, i, j, coeff = item[keep[:, 0]], i[keep[:, 0]], j[keep[:, 0]], keep[:, 1].astype(u.dtype)
    combos = u[item, i] + coeff[:, None] * u[item, j]
    _mod_p(combos, p)
    single_item, single_row = np.nonzero(weights <= max_weight)
    words = np.concatenate([u[single_item, single_row], combos]).astype(np.uint8)
    return words, np.concatenate([single_item, item])


def _round_columns(reduced: np.ndarray, pivots: np.ndarray, perms: np.ndarray):
    """(restored, non_pivot) for a batch of reduced rounds: each round's rows
    in the generator's column order, and a[b, t, i], row i of round b on its
    t-th non-pivot column; ValueError if a round has a zero row.

    Column t of round b is the generator's column perms[b, t], so column s
    in the generator's order is column inverse[b, s] of its RREF.  Both
    results are one gather of rows of the rounds' transposed columns,
    offset by n per round.  The RREF and that transposed copy are freed on
    return, before the scoring chunks are made.
    """
    b, k, n = reduced.shape
    if (pivots == n).any():
        raise ValueError(f"expected a generator of full row rank {k}")
    free = np.ones((b, n), dtype=bool)
    free[np.arange(b)[:, None], pivots] = False
    inverse = np.empty_like(perms)
    inverse[np.arange(b)[:, None], perms] = np.arange(n)
    columns = reduced.transpose(0, 2, 1).reshape(b * n, k)
    restored = columns[(inverse + np.arange(0, b * n, n)[:, None]).ravel()]
    restored = np.ascontiguousarray(restored.reshape(b, n, k).transpose(0, 2, 1))
    return restored, columns[np.flatnonzero(free)].reshape(b, n - k, k)


def isd_rounds(gen: np.ndarray, perms: np.ndarray, p: int, max_weight: int):
    """Lee-Brickell rounds, one per row of perms, on a k x n generator.

    The generator must have full row rank, as every CodeModel.generator
    has; a round whose RREF has a zero row raises ValueError.  Round b
    systematizes gen[:, perms[b]]; the whole batch is one _systematize
    stack, bit-packed over F_2.  Returns (words, items): the rows and
    row-pair combinations u_i + c*u_j (i < j, c != 0) of each round's RREF
    with weight <= max_weight, in gen's own column order, and the round
    index of every word.  Pairs are scored on each round's n - k non-pivot
    columns (_low_weight_combinations), in chunks of rounds whose float32
    copies stay near _BATCH_BYTES.
    """
    restored, non_pivot = _round_columns(
        *_systematize(np.ascontiguousarray(gen[:, perms].transpose(1, 0, 2)), p), perms
    )
    b, k, n = restored.shape
    # a round's scoring copies: its float32 support and characters, and
    # about 18 bytes per row pair of k x k products and masks
    step = max(1, _BATCH_BYTES // (8 * (n - k) * k + 18 * k * k))
    starts = range(0, b, step)
    found = [
        _low_weight_combinations(restored[s : s + step], non_pivot[s : s + step], p, max_weight)
        for s in starts
    ]
    words = np.concatenate([w for w, _ in found])
    return words, np.concatenate([items + s for s, (_, items) in zip(starts, found)])
