"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately naive: plain itertools / python-int
arithmetic with no shared code paths into the package, so agreement between
package output and these oracles is meaningful evidence.  The subspace-table
oracles are an exception: they keep the package's earlier loops and
share with it only the field tables, Subspace validation and the point
order of point_array; their GF(q) products are fq_matmul_reference, one
entry at a time on python ints read from the field tables.  The reduction
oracle is another: it reads the package's subspace table, which the table
oracles pin.  So is the trace oracle: it keeps the package's earlier
per-subspace loop over the pinned subspace and hyperplane tables.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from pgcodes.analysis import TraceClass, TraceKind
from pgcodes.geometry import (
    GeometrySpec,
    Subspace,
    _subspace_from_rows,
    canonical_vectors,
    enumerate_subspaces,
    hyperplane_point_indices,
    point_array,
    subspace_point_indices,
    theta,
)


def brute_force_spectrum(generator_rows: np.ndarray, p: int) -> Counter:
    """Weight distribution of the row space, by enumerating all messages."""
    k = generator_rows.shape[0]
    counts: Counter = Counter()
    rows = generator_rows.astype(np.int64)
    for msg in itertools.product(range(p), repeat=k):
        word = np.zeros(rows.shape[1], dtype=np.int64)
        for coeff, row in zip(msg, rows):
            word += coeff * row
        counts[int(np.count_nonzero(word % p))] += 1
    return counts


def brute_force_words_of_weight(generator_rows: np.ndarray, p: int, weight: int) -> set:
    """All distinct codewords of the given weight, as tuples."""
    k = generator_rows.shape[0]
    rows = generator_rows.astype(np.int64)
    found = set()
    for msg in itertools.product(range(p), repeat=k):
        word = np.zeros(rows.shape[1], dtype=np.int64)
        for coeff, row in zip(msg, rows):
            word += coeff * row
        word %= p
        if int(np.count_nonzero(word)) == weight:
            found.add(tuple(int(x) for x in word))
    return found


def brute_force_lightest_by_message_weight(generator_rows: np.ndarray, p: int) -> dict:
    """For each message weight t >= 1: (the messages of weight t whose
    leading digit is 1, the least weight of their words), by enumerating
    all messages."""
    k = generator_rows.shape[0]
    rows = generator_rows.astype(np.int64)
    found: dict = {}
    for msg in itertools.product(range(p), repeat=k):
        digits = [c for c in msg if c]
        if not digits or digits[0] != 1:
            continue
        word = np.zeros(rows.shape[1], dtype=np.int64)
        for coeff, row in zip(msg, rows):
            word += coeff * row
        count, lightest = found.get(len(digits), (0, None))
        w = int(np.count_nonzero(word % p))
        found[len(digits)] = (count + 1, w if lightest is None else min(lightest, w))
    return found


def python_rank_mod_p(matrix, p: int) -> int:
    """Row rank over F_p by plain Gaussian elimination on python ints."""
    rows = [[int(x) % p for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else rows[rank][col]
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rref_mod_p_reference(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod prime p, one pivot at a time on a full
    int64 copy: every step rescales the pivot row and clears its column in
    every other row.  Returns (uint8 matrix, pivot columns)."""
    m = np.asarray(mat).astype(np.int64) % p
    inv = [pow(a, p - 2, p) if a else 0 for a in range(p)]
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        if m[r, c] != 1:
            m[r] = (m[r] * inv[m[r, c]]) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - col[:, None] * m[r][None, :]) % p
        pivots.append(c)
        r += 1
    return m.astype(np.uint8), pivots



def check_basis_reference(gen, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of {x : gen @ x = 0 mod p} by the two-step path: a nullspace
    basis from gen's RREF (1 at a free column, minus that column of the
    RREF at the pivots), then an elimination of the whole basis.  Both
    eliminations are rref_mod_p_reference.  Returns (uint8 matrix, pivots)."""
    reduced, pivots = rref_mod_p_reference(gen, p)
    ncols = reduced.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = -int(reduced[r, f]) % p
    return rref_mod_p_reference(basis, p)


def hull_basis_reference(gen, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of the hull of the code with RREF generator gen, by eliminating
    its rows: the Gram matrix's kernel from check_basis_reference, times gen,
    then rref_mod_p_reference.  Returns (uint8 rows, pivots)."""
    gen = np.asarray(gen).astype(np.int64)
    combo = check_basis_reference((gen @ gen.T) % p, p)[0].astype(np.int64)
    reduced, pivots = rref_mod_p_reference((combo @ gen) % p, p)
    return reduced[: len(pivots)], pivots


def tangent_collinearity_reference(lines, points, q_idx: int) -> bool:
    """Are the tangent points of a planar point set seen from q_idx collinear?

    lines is a list of point-index sets, one per line.  One point at a time:
    P of the set counts when the line PQ meets the set only at P; the first
    two such points fix a line and every later one must lie on it.
    """
    xset = set(points)

    def line_of(a: int, b: int) -> set:
        return next(line for line in lines if a in line and b in line)

    tangent = [pi for pi in sorted(xset) if len(line_of(pi, q_idx) & xset) == 1]
    if len(tangent) < 2:
        return True
    common = line_of(tangent[0], tangent[1])
    return all(pi in common for pi in tangent[2:])


def gaussian_binomial_product(a: int, b: int, q: int) -> int:
    """Number of b-dim subspaces of an a-dim space over GF(q), product form."""
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError(f"[{a} {b}]_{q}: {num} is not a multiple of {den}")
    return num // den


def theta_oracle(m: int, q: int) -> int:
    """Point count of an m-dimensional projective space, as a plain sum."""
    return sum(q**i for i in range(m + 1))


def count_projective_classes(n: int, q: int) -> int:
    """Count scalar-multiple classes of nonzero length-(n+1) vectors over Z_q.

    Only valid for prime q (uses integer arithmetic mod q), which is all the
    oracle is used for.
    """
    seen = set()
    classes = 0
    for vec in itertools.product(range(q), repeat=n + 1):
        if not any(vec) or vec in seen:
            continue
        classes += 1
        for s in range(1, q):
            seen.add(tuple((s * c) % q for c in vec))
    return classes


def naive_min_weight(generator_rows: np.ndarray, p: int) -> int:
    counts = brute_force_spectrum(generator_rows, p)
    return min(w for w in counts if w > 0)


def brute_force_isd_candidates(reduced_rows: np.ndarray, p: int, max_weight: int) -> list:
    """One Lee-Brickell round's finds from an RREF: the rows, and the pair
    combinations u_i + c*u_j (i < j, c != 0), of weight <= max_weight."""
    rows = [[int(x) for x in row] for row in reduced_rows]
    found = [tuple(row) for row in rows if sum(1 for x in row if x) <= max_weight]
    for i, j in itertools.combinations(range(len(rows)), 2):
        for c in range(1, p):
            word = tuple((x + c * y) % p for x, y in zip(rows[i], rows[j]))
            if sum(1 for x in word if x) <= max_weight:
                found.append(word)
    return found


def brute_force_hyperplane_words(incidence: np.ndarray, p: int) -> dict:
    """Every hyperplane multiple a*v^H and difference a*(v^H1 - v^H2).

    Maps each word (as a tuple) to (kind value, scalar, h1, h2), where row
    i of incidence is hyperplane i.  Difference witnesses follow the
    documented rule: the lexicographically first (h1, h2) for p = 2, and for
    odd p the pair whose scalar is the entry at the smallest support index.
    """
    vectors = [[int(x) for x in row] for row in incidence]
    out: dict = {}
    for h, vec in enumerate(vectors):
        for a in range(1, p):
            out[tuple((a * x) % p for x in vec)] = ("HyperplaneMultiple", a, h, None)
    for h1, h2 in itertools.permutations(range(len(vectors)), 2):
        for a in range(1, p):
            word = tuple((a * (x - y)) % p for x, y in zip(vectors[h1], vectors[h2]))
            anchor = next(x for x in word if x)
            if (p == 2 and h1 < h2) or (p > 2 and anchor == a):
                out.setdefault(word, ("HyperplaneDifference", a, h1, h2))
    return out


def fq_matmul_reference(a, b, field) -> np.ndarray:
    """Matrix product over GF(q) of element-index arrays, broadcast over
    leading axes like a @ b, one entry at a time: each entry is a python-int
    sum of products looked up in the field's add and mul tables."""
    a, b = np.asarray(a), np.asarray(b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    add, mul = field.add_table.tolist(), field.mul_table.tolist()
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.uint8)
    for idx in np.ndindex(*out.shape):
        *pre, i, j = idx
        acc = 0
        for t in range(a.shape[-1]):
            acc = add[acc][mul[int(a[(*pre, i, t)])][int(b[(*pre, t, j)])]]
        out[idx] = acc
    return out


def subspace_point_indices_reference(g, k: int) -> np.ndarray:
    """(N_k, theta_k) sorted global point indices of every k-subspace, one
    subspace at a time: each RREF basis is built pivot pattern by pivot
    pattern with its free entries in itertools.product order, validated as
    a Subspace, multiplied out with fq_matmul_reference, and its points
    looked up in a dict of coordinate bytes."""
    n1, q = g.n + 1, g.q
    index = {row.tobytes(): i for i, row in enumerate(point_array(g))}
    lam = canonical_vectors(g.field, k + 1)
    out = []
    for pivs in itertools.combinations(range(n1), k + 1):
        free = [(i, c) for i in range(k + 1) for c in range(pivs[i] + 1, n1) if c not in pivs]
        for assignment in itertools.product(range(q), repeat=len(free)):
            mat = np.zeros((k + 1, n1), dtype=np.uint8)
            for i, c in enumerate(pivs):
                mat[i, c] = 1
            for (i, c), v in zip(free, assignment):
                mat[i, c] = v
            s = Subspace(g, tuple(tuple(int(x) for x in row) for row in mat))
            rows = fq_matmul_reference(lam, np.array(s.basis, dtype=np.uint8), g.field)
            out.append([index[row.tobytes()] for row in rows])
    return np.array(out, dtype=np.int32).reshape(-1, theta(k, q))


def line_through_pairs_reference(g) -> np.ndarray:
    """(theta_n, theta_n) line index through each point pair, -1 on the
    diagonal, written pair by pair from the reference line table."""
    table = np.full((g.num_points, g.num_points), -1, dtype=np.int32)
    for li, pts in enumerate(subspace_point_indices_reference(g, 1)):
        for a, b in itertools.combinations(pts.tolist(), 2):
            table[a, b] = table[b, a] = li
    return table


def field_tables_reference(p: int, h: int, modulus) -> tuple:
    """(add, mul, neg, inv) uint8 tables of GF(p^h) modulo the monic
    modulus (little-endian coefficients), one element pair at a time:
    polynomial product then long division, and each inverse as a^(q-2) by
    repeated table multiplication."""
    q = p**h

    def digits(v):
        return [v // p**i % p for i in range(h)]

    def index(c):
        return sum(int(x) * p**i for i, x in enumerate(c))

    def times(a, b):
        out = [0] * (2 * h - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        for d in range(len(out) - 1, h - 1, -1):
            lead = out[d]
            for i in range(h + 1):
                out[d - h + i] = (out[d - h + i] - lead * modulus[i]) % p
        return out[:h]

    add_t = np.zeros((q, q), dtype=np.uint8)
    mul_t = np.zeros((q, q), dtype=np.uint8)
    for a in range(q):
        for b in range(a, q):
            ca, cb = digits(a), digits(b)
            add_t[a, b] = add_t[b, a] = index([(x + y) % p for x, y in zip(ca, cb)])
            mul_t[a, b] = mul_t[b, a] = index(times(ca, cb))
    neg_t = np.array([index([-x % p for x in digits(a)]) for a in range(q)], dtype=np.uint8)
    inv_t = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        acc = a
        for _ in range(q - 3):
            acc = int(mul_t[acc, a])
        inv_t[a] = acc if q > 2 else 1
    return add_t, mul_t, neg_t, inv_t


def reduce_to_minimal_reference(g, indices, k: int, rng=None) -> tuple:
    """Minimal k-blocking subset reached from a k-blocking point index set,
    one point at a time: every step recounts each (n-k)-subspace's meet
    with the current set, lists the points on no tangent subspace in
    ascending order, and removes the first or, given rng, the one at
    rng.integers(len(removable)).  Returns the sorted indices."""
    rows = [set(r) for r in subspace_point_indices(g, g.n - k).tolist()]
    current = set(indices)
    if not all(row & current for row in rows):
        raise ValueError("the input is not k-blocking")
    while True:
        essential = set()
        for row in rows:
            meet = row & current
            if len(meet) == 1:
                essential |= meet
        removable = sorted(current - essential)
        if not removable:
            return tuple(sorted(current))
        pick = removable[0] if rng is None else removable[int(rng.integers(len(removable)))]
        current.remove(pick)


def classify_subspace_traces_reference(g, indices, h: int) -> dict:
    """Trace classes of a point index set on every h-subspace, one subspace
    at a time: the trace is compared as a Python set with every pair of the
    subspace's hyperplanes, then its complement and itself with every
    hyperplane; a line's hyperplanes are its points.  Witnesses are built
    from the ambient points of the matching hyperplanes."""

    def _ambient_subspace_from_indices(g, idx):
        return _subspace_from_rows(g, point_array(g)[np.asarray(list(idx), dtype=np.int64)])

    xset = set(indices)
    spaces = enumerate_subspaces(g, h)
    space_pts = subspace_point_indices(g, h)
    out = {}
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
