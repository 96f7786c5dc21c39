"""Hot kernels: the spectrum sweep, search rounds, the mod-p eliminator and product.

The hot loops are full-spectrum enumeration (all p^k messages of a k-row
generator), the enumeration of low-weight messages behind a minimum-weight
proof, and the randomized information-set rounds of the low-weight search.
All are plain numpy whose inner work is float32 matrix products.

spectrum and lightest_words are meet-in-the-middle enumerations on one
table builder and one block loop.  Both take a reduced basis, whose words'
entries on the pivot columns are their message digits, so only the other
columns enter the products.  _half_tables makes the combinations of the
first k // 2 rows and of the others, grouped by digit count with the rows
whose leading digit is 1 first.  _blocks encodes chunks of two sets of
such rows (_encode: +-1/2 and +-1 entries over F_2, one-hot value
indicators over odd p) and yields their float32 products, the weights of
the sums on the non-pivot columns.  One message per scalar orbit
{c x : c != 0} is weighed, the one whose leading digit is 1.  spectrum
adds the digit counts to each block, bincounts it and collects the words
of weight 1..collect_limit; analysis.enumerate_spectrum checks the
histogram by the MacWilliams identities and sorts the words.
lightest_words serves analysis.minimum_weight's Brouwer-Zimmermann proof
with the argmin of each block of each split of a weight t between the
halves' groups.

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

BLOCK_BYTES is the package's one working-set size: every chunked product
takes its row blocks from row_blocks, and _blocks sizes its chunks from
twice as much.  Every product is exact, so no result depends on it.
"""

from __future__ import annotations

import numpy as np

from pgcodes.gf import make_field

# a row block's working copies stay near this many bytes, so that the block
# and its temporaries stay in cache
BLOCK_BYTES = 1 << 18


def row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """Slices of range(rows) whose rows, of row_bytes bytes each, fit
    BLOCK_BYTES; at least one, so callers see a block even when there are no
    rows."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return [slice(start, min(start + step, rows)) for start in range(0, max(rows, 1), step)]


# -- spectrum sweep ----------------------------------------------------------


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


def _combinations(rows: np.ndarray, p: int, max_digits: int) -> np.ndarray:
    """The combinations sum_i c_i rows[i] mod p of m rows with at most
    max_digits nonzero c_i, as uint8 rows, in the order of all p^m of them."""
    n = rows.shape[1]
    # c * row + entry stays below p (p - 1) + 1: a byte holds it up to p = 13,
    # and 2^16 up to p = 251
    dtype = np.uint8 if p * (p - 1) < 256 else np.uint16
    table = np.zeros((1, n), dtype=dtype)
    digits = np.zeros(1, dtype=np.intp)
    coeffs = np.arange(p, dtype=dtype)[:, None, None]
    for i, row in enumerate(rows):
        table = _mod_p(table + coeffs * row.astype(dtype), p).reshape(p * len(table), n)
        digits = (digits + (coeffs.ravel() != 0)[:, None]).ravel()
        if i >= max_digits:  # only now can a combination exceed the cap
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


def _half_tables(rows: np.ndarray, p: int, free: np.ndarray, max_digits: int):
    """(columns, left, right) for a reduced basis and its non-pivot mask.

    left and right are the combinations (_combinations) with at most
    max_digits nonzero message digits of the first k // 2 rows and of the
    others, each as (table, starts, units): the rows with d digits are
    table[starts[d]:starts[d + 1]], those whose leading digit (the word's
    first nonzero entry) is 1 first, up to units[d].  Table column i is the
    basis's column columns[i]: the non-pivot columns first, so that _encode
    reads rows, several times faster than a selection of columns.
    """
    columns = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    rows, n_free = rows[:, columns], len(columns) - len(rows)
    halves = []
    for part in (rows[: len(rows) // 2], rows[len(rows) // 2 :]):
        table = _combinations(part, p, max_digits)
        # the pivot entries are the digits; the zero combination leads with
        # none, as does every one of a basis with no rows
        nonzero = table[:, n_free:] != 0
        unit = np.zeros(len(table), dtype=bool)
        if nonzero.shape[1]:
            unit = table[np.arange(len(table)), n_free + nonzero.argmax(axis=1)] == 1
        digits = nonzero.sum(axis=1)
        order = np.lexsort((~unit, digits))
        starts = np.searchsorted(digits[order], np.arange(max_digits + 2))
        units = starts[:-1] + np.bincount(digits[unit], minlength=max_digits + 1)
        halves.append((table[order], starts, units))
    return columns, *halves


def _blocks(a: np.ndarray, b: np.ndarray, p: int, n_free: int):
    """Yields (i, j, block) over all of a x b: block[r, s] is the float32
    product of the encodings (_encode) of a[i + r] and b[j + s] on their
    first n_free columns, their sum's weight there less n_free / 2 over F_2
    and less n_free over odd p.

    Chunks of rows are encoded to about 2 * BLOCK_BYTES.  The smaller of a
    and b is held four chunks at a time and the other encoded chunk by chunk
    once per held part, so once in all when the smaller fits in one part.
    Each block stays near 2 * BLOCK_BYTES.
    """
    budget = 2 * BLOCK_BYTES
    chunk = max(1, budget // (4 * max(1, n_free * (1 if p == 2 else p))))
    hold_a = len(a) <= len(b)
    held, other = (a, b) if hold_a else (b, a)
    for h in range(0, len(held), 4 * chunk):
        held_code = _encode(held[h : h + 4 * chunk, :n_free], p, right=not hold_a)
        for o in range(0, len(other), chunk):
            other_code = _encode(other[o : o + chunk, :n_free], p, right=hold_a)
            step = max(1, budget // (4 * len(other_code)))
            for s in range(0, len(held_code), step):
                if hold_a:
                    yield h + s, o, held_code[s : s + step] @ other_code.T
                else:
                    yield o, h + s, other_code @ held_code[s : s + step].T


def spectrum(rows: np.ndarray, p: int, collect_limit: int):
    """Weight histogram of all p^k messages of a k x n basis over F_p.

    The rows must be a reduced basis: in reduced row-echelon form, with no
    zero row and entries below p, as every basis of a code model is; any
    other input raises ValueError.  Returns (hist, words): hist[w] counts
    the messages whose word has weight w, and words holds every word of
    weight in [1, collect_limit], one per message.  The word order is
    implementation-defined; analysis.enumerate_spectrum checks the histogram
    and sorts.

    A message is a sum u + v of a left and a right row of _half_tables, and
    its weight is its entry in a block of _blocks plus that block's offset
    and the two rows' digit counts.  One message per scalar orbit
    {c x : c != 0} is swept: a left row whose leading digit is 1 with any
    right row, or the zero left row with a right row whose leading digit is
    1.  Each block is counted p - 1 times, the zero message once, and over
    odd p its collected words are expanded by c = 1..p-1.
    """
    rows, free = _reduced_basis(rows, p)
    k, n = rows.shape
    columns, *tables = _half_tables(rows, p, free, k)
    halves = []
    for table, starts, units in tables:
        digits = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        # the rows in the basis's column order, for the collected words
        words = np.take(table, np.argsort(columns), axis=1)
        unit = np.arange(len(table)) < units[digits]
        halves.append((table, words, digits.astype(np.float32), unit))
    (left, left_words, left_digits, left_unit), (right, right_words, right_digits, right_unit) = halves
    # the products are wt - (n - k) / 2 over F_2 and wt - (n - k) over odd p
    left_digits += (n - k) / 2 if p == 2 else n - k
    hist = np.zeros(n + 1, dtype=np.int64)
    hist[0] = 1
    collected = [np.zeros((0, n), dtype=np.uint8)]
    scales = np.arange(1, p, dtype=np.uint16)[:, None, None]
    # the zero combination is row 0 of a table
    for a, b in [(left_unit, slice(None)), ([0], right_unit)]:
        a_words, a_digits, b_words, b_digits = left_words[a], left_digits[a], right_words[b], right_digits[b]
        for i, j, block in _blocks(left[a], right[b], p, n - k):
            block += a_digits[i : i + len(block), None]
            block += b_digits[j : j + block.shape[1]]
            hist += np.bincount(block.ravel().astype(np.intp), minlength=n + 1) * (p - 1)
            if collect_limit < 1:
                continue
            # every message here is nonzero, of weight at least 1; flat
            # indices, as np.nonzero of a 2-d mask is many times slower
            r, s = np.divmod(np.flatnonzero(block <= collect_limit), block.shape[1])
            if r.size:
                # sums stay below 2p and multiples below p^2, within uint16
                found = a_words[i + r].astype(np.uint16)
                found += b_words[j + s]
                found = _mod_p(found, p)[None]
                if p > 2:
                    found = _mod_p(scales * found, p)
                collected.append(found.reshape(-1, n).astype(np.uint8))
    return hist, np.concatenate(collected)


def lightest_words(rows: np.ndarray, p: int, max_weight: int):
    """For t = 1..max_weight in turn, the lightest word of the messages of
    weight t of a k x n reduced basis over F_p, one message per scalar orbit
    {c x : c != 0}.

    The basis is taken as spectrum takes it.  A generator: it yields
    (messages, weight, word) for each t, the number of messages enumerated,
    which is C(k, t)(p-1)^(t-1) when none is lost, and the least weight of
    their words, with one word of that weight (None and None when there is
    no message).  A message of weight t has w digits in the left half table
    and t - w in the right one (_half_tables), and its leading digit is 1.
    Each split (w, t - w) is the blocks (_blocks) of the two groups, and
    each block's least entry, plus its offset and t, is its lightest word.
    """
    rows, free = _reduced_basis(rows, p)
    k, n = rows.shape
    half = k // 2
    halves = _half_tables(rows, p, free, max_weight)
    columns, (left, left_starts, left_units), (right, right_starts, right_units) = halves
    # the product is wt - (n - k) / 2 over F_2 and wt - (n - k) over odd p
    offset = (n - k) / (2 if p == 2 else 1)
    for t in range(1, max_weight + 1):
        messages, weight, word = 0, None, None
        for w in range(max(0, t - (k - half)), min(t, half) + 1):
            # the leading digit is the left half's unless it has none
            a = left[left_starts[w] : left_units[w] if w else left_starts[1]]
            b = right[right_starts[t - w] : right_units[t] if w == 0 else right_starts[t - w + 1]]
            messages += len(a) * len(b)
            for i, j, block in _blocks(a, b, p, n - k):
                r, s = np.unravel_index(block.argmin(), block.shape)
                lightest = t + int(block[r, s] + offset)
                if weight is None or lightest < weight:
                    # entries stay below 2p, within uint16
                    found = a[i + r].astype(np.uint16) + b[j + s]
                    weight, word = lightest, np.empty(n, dtype=np.uint8)
                    word[columns] = _mod_p(found, p)
        yield messages, weight, word


# -- batched Lee-Brickell rounds ---------------------------------------------

# over odd p, a column where no free row of any item is nonzero looks this
# many columns ahead for the next one where some item can pivot
_LOOKAHEAD = 64
# over F_2, rows are packed 64 columns to a little-endian word: column c is
# bit c % 64 of word c // 64, and _WORD_BITS[c % 64] selects it
_WORD_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


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
        keep = []
        for pair in row_blocks(item.size, 4 * (p - 1) * a.shape[1]):
            sums = scales * a[item[pair], :, j[pair]].T
            sums += a[item[pair], :, i[pair]].T
            light = (_mod_p(sums, p) != 0).sum(axis=1, dtype=count) + 2 <= max_weight
            keep.append(np.argwhere(light.T) + [pair.start, 1])
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
    columns (_low_weight_combinations), in row_blocks of rounds whose
    float32 copies stay near BLOCK_BYTES.
    """
    restored, non_pivot = _round_columns(
        *_systematize(np.ascontiguousarray(gen[:, perms].transpose(1, 0, 2)), p), perms
    )
    b, k, n = restored.shape
    # a round's scoring copies: its float32 support and characters, and
    # about 18 bytes per row pair of k x k products and masks
    chunks = row_blocks(b, 8 * (n - k) * k + 18 * k * k)
    found = [
        _low_weight_combinations(restored[rounds], non_pivot[rounds], p, max_weight)
        for rounds in chunks
    ]
    words = np.concatenate([w for w, _ in found])
    return words, np.concatenate([items + c.start for c, (_, items) in zip(chunks, found)])
