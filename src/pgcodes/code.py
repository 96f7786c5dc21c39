"""The code of points and hyperplanes: row space of the incidence matrix.

Words are plain numpy uint8 vectors of length theta_n over F_p, indexed by
the global point order, and enter through geometry.as_rows (as_word,
as_words), whose LengthMismatch is re-exported here.  The incidence matrix
has hyperplane rows in the same order, so it is symmetric.  All linear
algebra here is mod p (the prime subfield), not mod q.

A model build runs two eliminations: the incidence matrix, and the k x k
Gram matrix right to left.  The incidence matrix is taken in row blocks
(see rref_mod_p): each block is first reduced by the basis found so far in
one product, so the many rows that basis already spans cost a product, not
a pass of the eliminator.  Membership is read off the generator, which is
systematic, the identity on its pivot columns (see in_row_space).  The hull
needs no elimination of its own: the RREF R of the Gram matrix's kernel
times the generator G is already reduced, because G has unit columns at its
pivots (see hull_basis).  The check basis is built only on first access,
from one more elimination, of the k-row generator right to left; nothing of
size (theta_n - k) x theta_n is ever eliminated.  It needs no more, by
matroid duality: the RREF of the dual code has its pivots on the
lexicographically first basis J of the dual matroid, the complement of the
lexicographically last column basis K of the generator, and K is the set of
pivots of the generator reduced right to left (see check_basis).

Every mod-p matrix product of the package, here, in analysis, in verify and
behind geometry's GF(q) products, is kernels._product_mod_p: an exact float
product on BLAS, reduced as integers.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb

import numpy as np

from pgcodes.geometry import (
    GeometrySpec,
    LengthMismatch,
    _whole_numbers,
    as_rows,
    incidence_bool,
    point_mask,
)
from pgcodes.kernels import _exact_float, _product_mod_p, _systematize, row_blocks


class DimensionMismatch(AssertionError):
    """Computed p-rank disagrees with the closed-form dimension."""


def expected_dimension(g: GeometrySpec) -> int:
    """Closed-form p-rank of the incidence matrix: C(p+n-1, n)^h + 1."""
    p, h = g.field.p, g.field.h
    return comb(p + g.n - 1, g.n) ** h + 1


def build_incidence_matrix(g: GeometrySpec) -> np.ndarray:
    """(theta_n, theta_n) 0/1 matrix; row i = incidence vector of hyperplane i.

    A read-only uint8 view of the cached incidence_bool(g), so one such
    array per geometry is ever held.
    """
    return incidence_bool(g).view(np.uint8)


def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod prime p; returns (uint8 matrix, pivot columns).

    A uint8 matrix with entries below p, such as the incidence matrix or a
    basis from this module, goes to the eliminator without a widening copy;
    any other integer matrix is reduced mod p in int64 first.  The rows are
    taken in kernels.row_blocks of the bytes the eliminator holds per row
    (bits over F_2, entries over odd p).  Each block is reduced by the
    basis found so far in one product, since that basis is the identity on
    its pivot columns; the rows left nonzero go through one pass of
    kernels._systematize (which works on 64-column words over F_2 and in
    uint8 or uint16 over odd p), their pivot columns are cleared from the
    basis in one more product, and the two merge in pivot order.  A matrix
    that fits one block is one elimination.  The RREF is unique, so the
    result does not depend on the blocks: the basis rows, then zero rows.
    """
    m = np.asarray(mat)
    if m.dtype != np.uint8 or (m.size and m.max() >= p):
        m = (m.astype(np.int64) % p).astype(np.uint8)
    rows, n = m.shape
    basis = np.zeros((0, n), dtype=np.uint8)
    pivots = np.zeros(0, dtype=np.intp)
    for block in row_blocks(rows, -(-n // 8) if p == 2 else n * (1 if p * p <= 256 else 2)):
        part = m[block]
        if pivots.size:
            # part - part[:, P] B is zero on the pivot columns P, where the
            # basis B is the identity
            part = _product_mod_p((p - part[:, pivots]) % p, basis, p, plus=part)
            part = part[part.any(axis=1)]
            if not len(part):
                continue
        reduced, found = _systematize(part[None], p)
        rank = np.count_nonzero(found[0] < n)
        new_rows, new_pivots = reduced[0, :rank].astype(np.uint8, copy=False), found[0, :rank]
        if pivots.size and rank:
            # the same step clears the new pivot columns from the basis
            basis = _product_mod_p((p - basis[:, new_pivots]) % p, new_rows, p, plus=basis)
        order = np.argsort(np.concatenate([pivots, new_pivots]), kind="stable")
        basis = np.concatenate([basis, new_rows])[order]
        pivots = np.concatenate([pivots, new_pivots])[order]
    out = np.zeros((rows, n), dtype=np.uint8)
    out[: len(basis)] = basis
    return out, pivots.tolist()


def p_rank(mat: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, by Gaussian elimination."""
    return len(rref_mod_p(mat, p)[1])


def check_basis(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of {x : mat @ x = 0 mod p} and its pivot columns, from one
    elimination of mat with its columns reversed.

    The pivots of the reversed matrix, read back as columns n-1-c, are the
    lexicographically last column basis K of mat; the rest, J, holds the
    pivots of the kernel's RREF.  Row i of that RREF is 1 at J[i] and,
    at each K column, minus the entry in column J[i] of the row of mat's
    right-to-left RREF that has its pivot there.  Those rows are zero to
    the right of their pivots, so every row is zero left of J[i].
    """
    mat = np.asarray(mat)
    n = mat.shape[1]
    reduced, reversed_pivots = rref_mod_p(mat[:, ::-1], p)
    last = n - 1 - np.array(reversed_pivots, dtype=np.intp)
    first = np.delete(np.arange(n), last)
    basis = np.zeros((first.size, n), dtype=np.uint8)
    basis[np.arange(first.size), first] = 1
    basis[:, last] = (p - reduced[: last.size, ::-1][:, first].T) % p
    return basis, first.tolist()


def hull_basis(generator: np.ndarray, pivots, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of the hull (C intersected with C^perp) and its pivot columns,
    for the code C with RREF generator G and pivots P; one k x k elimination.

    A word xG lies in C^perp iff G (xG)^T = 0, that is iff x lies in the
    kernel of the symmetric Gram matrix G G^T.  check_basis gives that
    kernel's RREF R with pivots J.  Then R G is already in RREF with pivots
    P[J]: G is the identity on the columns P, so (R G)[:, P] = R, which is
    reduced; and row i of R G is zero left of P[J[i]], because row i of R is
    zero left of J[i] and row j of G is zero left of P[j].
    """
    combo, kernel_pivots = check_basis(_product_mod_p(generator, generator.T, p), p)
    return _product_mod_p(combo, generator, p), [pivots[j] for j in kernel_pivots]


def in_row_space(words: np.ndarray, basis: np.ndarray, pivots, p: int) -> np.ndarray:
    """For each row w of a uint8 (m, n) word array with entries below p:
    does it lie in the row space of a reduced basis with these pivot
    columns?  The basis is the identity on its pivots, so w[:, pivots] @
    basis is the one word of that space that agrees with w there, and w
    lies in the space iff it is that word.  One product per row block."""
    pivots = np.asarray(pivots, dtype=np.intp)
    basis = basis.astype(_exact_float(pivots.size, p))
    inside = np.empty(words.shape[0], dtype=bool)
    # a block's float32 product; its temporaries are a few times as much
    for rows in row_blocks(words.shape[0], 4 * words.shape[1]):
        block = words[rows]
        inside[rows] = (_product_mod_p(block[:, pivots], basis, p) == block).all(axis=1)
    return inside


def zero_word(g: GeometrySpec) -> np.ndarray:
    return np.zeros(g.num_points, dtype=np.uint8)


def all_one_word(g: GeometrySpec) -> np.ndarray:
    return np.ones(g.num_points, dtype=np.uint8)


def incidence_vector(g: GeometrySpec, points) -> np.ndarray:
    """0/1 word supported exactly on a point set: a boolean mask, or
    ProjPoints and indices (geometry.point_mask)."""
    return point_mask(g, points).view(np.uint8)


def weight(w: np.ndarray) -> int:
    return int(np.count_nonzero(w))


def as_words(g: GeometrySpec, words) -> np.ndarray:
    """An (m, theta_n) word array as uint8, entries whole numbers in [0, p)."""
    return as_rows(g, words, g.field.p, 2)


def as_word(g: GeometrySpec, w) -> np.ndarray:
    """One word of length theta_n: the one-row case of as_words."""
    return as_rows(g, w, g.field.p, 1)


def inner_product(a, b, p: int) -> int:
    a, b = _whole_numbers(a), _whole_numbers(b)
    if a.shape != b.shape:
        raise LengthMismatch(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.dot(a.astype(np.int64), b.astype(np.int64)) % p)


class CodeModel:
    """The code C(n,q) with generator, check, and hull bases in RREF.

    The generator is the RREF of the incidence matrix, and membership is
    read off it (in_row_space): it is the identity on its pivot columns.
    The hull is the RREF of the Gram matrix's kernel times the generator,
    which is already reduced for the same reason, so a build runs two
    eliminations: the incidence matrix and the reversed k x k Gram matrix
    (see hull_basis).  The check basis, the RREF of the generator's kernel,
    is built by check_basis on first access, from one more elimination (the
    generator right to left), and kept; no (theta_n - k)-row matrix is ever
    eliminated.

    The construction asserts the closed-form dimension; a mismatch would
    mean the incidence matrix or the elimination is wrong, so it fails
    loudly rather than continuing with a broken basis.
    """

    def __init__(self, geometry: GeometrySpec):
        self.geometry = geometry
        p = geometry.field.p
        mat = build_incidence_matrix(geometry)
        reduced, pivots = rref_mod_p(mat, p)
        self.generator = reduced[: len(pivots)]
        self.generator_pivots = tuple(pivots)
        self.dimension = len(pivots)
        expected = expected_dimension(geometry)
        if self.dimension != expected:
            raise DimensionMismatch(
                f"p-rank {self.dimension} != closed form {expected} for "
                f"PG({geometry.n},{geometry.q})"
            )
        self.hull, hull_pivots = hull_basis(self.generator, self.generator_pivots, p)
        self.hull_pivots = tuple(hull_pivots)
        for arr in (self.generator, self.hull):
            arr.setflags(write=False)

    @cached_property
    def _check_basis(self) -> tuple[np.ndarray, tuple[int, ...]]:
        check, pivots = check_basis(self.generator, self.geometry.field.p)
        check.setflags(write=False)
        return check, tuple(pivots)

    @property
    def check(self) -> np.ndarray:
        """The RREF of the dual code, built on first access (check_basis)."""
        return self._check_basis[0]

    @property
    def check_pivots(self) -> tuple[int, ...]:
        return self._check_basis[1]

    @property
    def hull_dimension(self) -> int:
        return self.hull.shape[0]

    def _annihilated_rows(self, arr: np.ndarray, tests: np.ndarray) -> np.ndarray:
        """For each row of a checked (m, theta_n) word array: do all rows of
        tests have zero inner product with it mod p?  One product per row
        block."""
        g = self.geometry
        p = g.field.p
        columns = tests.T.astype(_exact_float(g.num_points, p))
        inside = np.empty(arr.shape[0], dtype=bool)
        # a block's float32 copy; its temporaries are a few times as much
        for rows in row_blocks(arr.shape[0], 4 * g.num_points):
            inside[rows] = ~_product_mod_p(arr[rows], columns, p).any(axis=1)
        return inside

    def contains_rows(self, words) -> np.ndarray:
        """Code membership of every row of an (m, theta_n) word array, read
        off the generator (in_row_space)."""
        g = self.geometry
        return in_row_space(as_words(g, words), self.generator, self.generator_pivots, g.field.p)

    def contains(self, w) -> bool:
        return bool(self.contains_rows(as_word(self.geometry, w)[None])[0])

    def dual_contains(self, w) -> bool:
        return bool(self._annihilated_rows(as_word(self.geometry, w)[None], self.generator)[0])

    def hull_contains_rows(self, words) -> np.ndarray:
        """Hull membership of every row of an (m, theta_n) word array: in
        the code (contains_rows), and in the dual, where the generator rows
        annihilate it."""
        arr = as_words(self.geometry, words)
        return self.contains_rows(arr) & self._annihilated_rows(arr, self.generator)

    def hull_contains(self, w) -> bool:
        return bool(self.hull_contains_rows(as_word(self.geometry, w)[None])[0])

    def __repr__(self) -> str:
        g = self.geometry
        return f"CodeModel(PG({g.n},{g.q}), dim={self.dimension})"


@lru_cache(maxsize=None)
def build_model(g: GeometrySpec) -> CodeModel:
    return CodeModel(g)
