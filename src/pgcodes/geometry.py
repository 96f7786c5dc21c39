"""Projective geometry PG(n, q): points, hyperplanes, general subspaces.

Coordinates are stored as integer indices into the field's element order
rather than as FieldElement objects, because everything downstream
(incidence matrices, spectrum kernels, blocking-set reduction) works on
numpy arrays of those indices.  The dataclasses here are thin canonical
wrappers around index tuples.

Conventions fixed once and relied on everywhere:
  - field elements are ordered by integer index sum(c_i * p**i);
  - a projective representative is canonical when its first nonzero
    coordinate is 1;
  - points and hyperplanes are listed in ascending lexicographic order of
    their canonical coordinate tuples; the positions in that list are the
    global indices that words, masks and incidence matrices refer to;
  - that order has a closed form (point_indices): a canonical vector whose
    leading 1 has m coordinates after it comes after the theta_{m-1}
    vectors with fewer, and among the q^m vectors with its own lead it sits
    at the base-q value of its tail, so its index is
    (base-q value of the vector) - q^m + theta_{m-1};
  - hyperplane i has dual coordinates equal to point i's coordinates, so
    the incidence matrix is symmetric.

Points, point sets, masks and words enter the package here: as_point_index
(a ProjPoint or a whole-number index), point_mask (a boolean mask, or
ProjPoints and indices), and as_rows and as_mask (word and mask arrays).
points_at turns indices back into ProjPoints.

The incidence matrix and the subspace tables come from GF(q) matrix
products (fq_matmul), and each is one exact product over F_p on BLAS
(kernels._product_mod_p, which code also uses): GF(q) is F_p^h, and
multiplication by an element is an h x h matrix over F_p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from pgcodes.gf import FieldElement, FieldSpec
from pgcodes.kernels import _exact_float, _product_mod_p, _rref_pivots, row_blocks


class GeometryMismatch(ValueError):
    """Objects from different geometries combined."""


class LengthMismatch(GeometryMismatch):
    """A word or mask whose shape does not fit the geometry."""


class EqualPoints(ValueError):
    """Two distinct points required."""


class DimensionOutOfRange(ValueError):
    """Requested dimension outside the valid range."""


class EmptySubspace(ValueError):
    """Operation undefined on the empty (dim -1) subspace."""


def theta(m: int, q: int) -> int:
    """Point count of an m-dimensional projective space over GF(q)."""
    if m < -1:
        raise DimensionOutOfRange(f"theta undefined for m = {m}")
    return (q ** (m + 1) - 1) // (q - 1)


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dim subspaces of GF(q)^a, via the q-Pascal recurrence."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    return gaussian_binomial(a - 1, b - 1, q) + q**b * gaussian_binomial(a - 1, b, q)


@dataclass(frozen=True)
class GeometrySpec:
    """PG(n, q) with n >= 2, the ambient space for everything else."""

    field: FieldSpec
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DimensionOutOfRange(f"projective dimension must be >= 2, got {self.n}")

    @property
    def q(self) -> int:
        return self.field.q

    @cached_property
    def num_points(self) -> int:
        # stored in the instance __dict__ on first use; eq, hash and repr
        # see only the fields
        return theta(self.n, self.field.q)

    def point(self, coords) -> "ProjPoint":
        return ProjPoint(self, _coerce_canonical(coords, self))

    def hyperplane(self, dual_coords) -> "Hyperplane":
        return Hyperplane(self, _coerce_canonical(dual_coords, self))

    def to_json_dict(self) -> dict:
        d = self.field.to_json_dict()
        d["n"] = self.n
        d["q"] = self.field.q
        return d


def _coerce_canonical(coords, g: GeometrySpec) -> tuple[int, ...]:
    """Accept whole-number element indices or FieldElements, scale so the
    first nonzero is 1; _check_canonical then checks the length and zero."""
    fld, idx = g.field, []
    for c in coords:
        if isinstance(c, FieldElement):
            if c.field != fld:
                raise GeometryMismatch("coordinate from a different field")
            c = c.index
        if int(c) != c or not 0 <= c < fld.q:
            raise ValueError(f"element index {c!r} is not a whole number in [0, {fld.q})")
        idx.append(int(c))
    lead = next((c for c in idx if c), 1)
    return tuple(fld.mul_table[fld.inv_table[lead], idx].tolist())


def _check_canonical(coords: tuple[int, ...], g: GeometrySpec) -> None:
    if len(coords) != g.n + 1:
        raise DimensionOutOfRange(f"expected {g.n + 1} coordinates, got {len(coords)}")
    nz = [c for c in coords if c]
    if not nz:
        raise ValueError("zero vector is not a projective representative")
    if nz[0] != 1:
        raise ValueError(f"not canonical: first nonzero coordinate is {nz[0]}, expected 1")
    if any(not 0 <= c < g.field.q for c in coords):
        raise ValueError("coordinate index outside field range")


@dataclass(frozen=True)
class ProjPoint:
    """A projective point as a canonical coordinate tuple of element indices."""

    geometry: GeometrySpec
    coords: tuple[int, ...]

    def __post_init__(self):
        _check_canonical(self.coords, self.geometry)

    @property
    def index(self) -> int:
        """Position in enumerate_points, the global point index."""
        return int(point_indices(self.geometry, self.coords))

    def __repr__(self) -> str:
        return f"ProjPoint{self.coords}"


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane by its canonical dual coordinate tuple."""

    geometry: GeometrySpec
    dual_coords: tuple[int, ...]

    def __post_init__(self):
        _check_canonical(self.dual_coords, self.geometry)

    @property
    def index(self) -> int:
        """Position in enumerate_hyperplanes; equals the dual point's index."""
        return int(point_indices(self.geometry, self.dual_coords))

    def __repr__(self) -> str:
        return f"Hyperplane{self.dual_coords}"


def as_point_index(g: GeometrySpec, point) -> int:
    """The global index of a ProjPoint of g or of an int in [0, theta_n); a
    boolean is no index, so a list of booleans is refused, not read as the
    points 0 and 1."""
    if isinstance(point, ProjPoint):
        if point.geometry != g:
            raise GeometryMismatch("point from a different geometry")
        return point.index
    if isinstance(point, (bool, np.bool_)):
        raise GeometryMismatch(f"point index {point!r} is a boolean, not a whole number")
    idx = int(point)
    if idx != point or not 0 <= idx < g.num_points:
        raise GeometryMismatch(f"point index {point!r} is not a whole number in [0, {g.num_points})")
    return idx


def point_mask(g: GeometrySpec, points) -> np.ndarray:
    """The (theta_n,) boolean mask of a point set.  A boolean array is the
    mask itself and must have theta_n entries; anything else is an iterable
    of ProjPoints of g or whole-number indices, repeats allowed."""
    if getattr(points, "dtype", None) == bool:
        return as_mask(g, points, 1)
    mask = np.zeros(g.num_points, dtype=bool)
    mask[[as_point_index(g, pt) for pt in points]] = True
    return mask


def _whole_numbers(values) -> np.ndarray:
    """values as an integer or boolean array; ValueError, not a truncation,
    for an entry that is no whole number (NaN casts to some integer)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr
    with np.errstate(invalid="ignore"):
        whole = arr.astype(np.int64)
    if not np.array_equal(whole, arr):
        raise ValueError("entries must be whole numbers")
    return whole


def as_rows(g: GeometrySpec, values, bound: int, ndim: int) -> np.ndarray:
    """values as a uint8 array of ndim axes, the last of theta_n entries,
    each a whole number in [0, bound) (p for words, 2 for masks; booleans
    always are); LengthMismatch for another shape, ValueError for another entry."""
    arr = _whole_numbers(values)
    if arr.ndim != ndim or arr.shape[-1:] != (g.num_points,):
        raise LengthMismatch(
            f"expected {ndim} axes, the last of length {g.num_points}, got shape {arr.shape}"
        )
    if arr.dtype != bool and arr.size and (arr.min() < 0 or arr.max() >= bound):
        raise ValueError(f"entries must lie in [0, {bound})")
    return arr.astype(np.uint8, copy=False)


def as_mask(g: GeometrySpec, mask, ndim: int) -> np.ndarray:
    """A mask of ndim axes (one set, or a stack of sets when ndim is 2) with
    entries 0 or 1, as bool."""
    return as_rows(g, mask, 2, ndim).view(bool)


@dataclass(frozen=True)
class Subspace:
    """A projective subspace as the unique RREF basis of its row space.

    The empty basis encodes the empty intersection, projective dim -1.
    """

    geometry: GeometrySpec
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.geometry.q
        mat = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), self.geometry.n + 1)
        if ((mat < 0) | (mat >= q)).any():
            raise ValueError(f"basis entry outside [0, {q})")
        if _rref_pivots(mat) is None:
            raise ValueError("basis is not in reduced row-echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={self.basis})"


# -- F_q linear algebra on index-coded arrays --------------------------------


def fq_matmul(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Matrix product over GF(q) on element-index arrays: an (m, inner)
    matrix a times b, an (inner, cols) matrix or a (..., inner, cols) stack
    of them, as a @ b; ValueError when a is not a matrix.

    GF(q) is F_p^h, and multiplication by an element is an h x h matrix over
    F_p (FieldSpec.mul_matrices), so the product is one exact product over
    F_p, kernels._product_mod_p.  The left operand has rows (r, i) and
    columns (j, t) holding digit i of a[r, t] * x^j; the right operand has
    rows (j, t) holding digit j of b[t, s].  Row (r, i) of the product then
    holds digit i of every entry of row r, and the digits are read back as
    element indices by Horner's rule (every partial value is below q, so
    bytes hold it).

    A stack of right operands is laid side by side in one product.  The
    rows of a are taken in kernels.row_blocks, whose float products over
    F_p stay near kernels.BLOCK_BYTES.
    """
    if a.ndim != 2:
        raise ValueError(f"expected a matrix on the left, got shape {a.shape}")
    p, h = field.p, field.h
    (m, inner), (lead, cols) = a.shape, (b.shape[:-2], b.shape[-1])
    exact = _exact_float(h * inner, p)
    left = field.mul_matrices[a].transpose(0, 2, 3, 1).reshape(m * h, h * inner)
    left = left.astype(exact)
    stack = b.reshape(math.prod(lead), inner, cols).transpose(1, 0, 2)
    right = field.digit_table.T.astype(exact)[:, stack].reshape(h * inner, stack[0].size)
    width = right.shape[1]
    out = np.empty((m, width), dtype=np.uint8)
    for rows in row_blocks(m, 4 * h * width):
        digits = _product_mod_p(left[rows.start * h : rows.stop * h], right, p)
        digits = digits.reshape(len(digits) // h, h, width)
        index = digits[:, h - 1]
        for i in range(h - 2, -1, -1):
            index = index * p + digits[:, i]
        out[rows] = index
    # column (l, s) of out is column s of item l of the stack
    return np.moveaxis(out.reshape(m, *lead, cols), 0, -2)


def rref_fq(mat: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(q); returns (matrix, pivot columns)."""
    m = mat.astype(np.uint8).copy()
    add_t, mul_t = field.add_table, field.mul_table
    inv_t, neg_t = field.inv_table, field.neg_table
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
        piv = int(m[r, c])
        if piv != 1:
            m[r] = mul_t[inv_t[piv], m[r]]
        col = m[:, c].copy()
        col[r] = 0
        m = add_t[m, mul_t[neg_t[col][:, None], m[r][None, :]]]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace_fq(mat: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Rows spanning the right kernel {x : mat @ x = 0} over GF(q)."""
    reduced, pivots = rref_fq(mat, field)
    ncols = mat.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = field.neg_table[reduced[r, f]]
    return basis


def _subspace_from_rows(g: GeometrySpec, rows: np.ndarray) -> Subspace:
    reduced, pivots = rref_fq(rows.reshape(-1, g.n + 1), g.field)
    nonzero = reduced[: len(pivots)]
    return Subspace(g, tuple(tuple(int(x) for x in row) for row in nonzero))


# -- enumeration and global index structures ---------------------------------


@lru_cache(maxsize=None)
def canonical_vectors(field: FieldSpec, length: int) -> np.ndarray:
    """All canonical projective representatives of GF(q)^length, lex order.

    Blocks by position of the leading 1, from last coordinate to first;
    within a block the trailing free coordinates run in lexicographic
    (element index) order.  The concatenation is globally lex-sorted.
    """
    q = field.q
    blocks = []
    for lead in range(length - 1, -1, -1):
        m = length - 1 - lead
        block = np.zeros((q**m, length), dtype=np.uint8)
        block[:, lead] = 1
        block[:, lead + 1 :] = _digits(q, m)
        blocks.append(block)
    out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def _digits(q: int, m: int) -> np.ndarray:
    """(q^m, m) uint8: every m-tuple over range(q), in itertools.product order."""
    return (np.arange(q**m)[:, None] // q ** np.arange(m - 1, -1, -1) % q).astype(np.uint8)


@lru_cache(maxsize=None)
def point_array(g: GeometrySpec) -> np.ndarray:
    """(theta_n, n+1) array of canonical point coordinates in index order."""
    return canonical_vectors(g.field, g.n + 1)


def point_indices(g: GeometrySpec, vecs) -> np.ndarray:
    """Global indices of canonical vectors (..., n+1), by their closed-form rank.

    With m = n - (position of the leading 1) the rank is (base-q value of
    the vector) - q^m + theta_{m-1}, see the module docstring.  It is exact
    in int64 while q^(n+1) < 2^63 and refused with DimensionOutOfRange
    beyond, where int64 would wrap.
    """
    q = g.q
    if q ** (g.n + 1) >= 2**63:
        raise DimensionOutOfRange(f"point ranks of PG({g.n},{q}) overflow int64")
    v = np.asarray(vecs)
    value = np.zeros(v.shape[:-1], dtype=np.int64)
    for c in range(g.n + 1):
        value = value * q + v[..., c]
    lead = q ** (g.n - (v != 0).argmax(axis=-1))  # q^m
    return value - lead + (lead - 1) // (q - 1)


def points_at(g: GeometrySpec, indices) -> list[ProjPoint]:
    """The points at global indices in [0, theta_n), in the order given;
    GeometryMismatch for any other index, a boolean among them."""
    idx = np.asarray(list(indices))
    if idx.size and (
        idx.dtype.kind not in "iuf"
        or not np.array_equal(idx, np.floor(idx))
        or idx.min() < 0
        or idx.max() >= g.num_points
    ):
        raise GeometryMismatch(f"point indices must be whole numbers in [0, {g.num_points})")
    return [ProjPoint(g, tuple(row)) for row in point_array(g)[idx.astype(np.intp)].tolist()]


def enumerate_points(g: GeometrySpec) -> list[ProjPoint]:
    return points_at(g, range(g.num_points))


def enumerate_hyperplanes(g: GeometrySpec) -> list[Hyperplane]:
    return [Hyperplane(g, tuple(int(x) for x in row)) for row in point_array(g)]


def incident(point: ProjPoint, hyperplane: Hyperplane) -> bool:
    if point.geometry != hyperplane.geometry:
        raise GeometryMismatch("point and hyperplane from different geometries")
    fld = point.geometry.field
    acc = 0
    for a, x in zip(hyperplane.dual_coords, point.coords):
        acc = int(fld.add_table[acc, fld.mul_table[a, x]])
    return acc == 0


@lru_cache(maxsize=None)
def incidence_bool(g: GeometrySpec) -> np.ndarray:
    """(theta_n, theta_n) boolean matrix; entry [i, j] = point j on hyperplane i."""
    pts = point_array(g)
    dots = fq_matmul(pts, pts.T, g.field)
    out = dots == 0
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def hyperplane_point_indices(g: GeometrySpec) -> np.ndarray:
    """(theta_n, theta_{n-1}) sorted point indices of each hyperplane."""
    inc = incidence_bool(g)
    per_row = theta(g.n - 1, g.q)
    rows, cols = np.nonzero(inc)
    if rows.size != g.num_points * per_row:
        raise RuntimeError(f"incidence has {rows.size} entries, not {g.num_points} x {per_row}")
    out = cols.reshape(g.num_points, per_row).astype(np.int32)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def collineations(g: GeometrySpec) -> np.ndarray:
    """(h + 1, theta_n) point permutations of collineations that generate a
    group transitive on the points: entry [j, i] is the image of point i
    under collineation j.

    Row 0 is the coordinate cycle (x_0, ..., x_n) -> (x_n, x_0, ..., x_{n-1})
    and row 1 + i the transvection x_0 <- x_0 + x^i x_1 for i < h, where the
    x^i (element index p^i) are a basis of GF(q) over F_p.  Conjugated by
    powers of the cycle, the transvections give x_j <- x_j + a x_{j+1} for
    every j mod n + 1 and every a in GF(q), and these generate SL(n+1, q),
    which is transitive on the points.  Every point's image is one product
    (fq_matmul), scaled to a leading 1 and ranked by point_indices.
    """
    field, size = g.field, g.n + 1
    mats = np.tile(np.eye(size, dtype=np.uint8), (field.h + 1, 1, 1))
    mats[0] = np.roll(mats[0], 1, axis=1)
    mats[1:, 1, 0] = field.p ** np.arange(field.h)
    images = fq_matmul(point_array(g), mats, field)
    lead = np.take_along_axis(images, (images != 0).argmax(axis=-1)[..., None], axis=-1)
    out = point_indices(g, field.mul_table[field.inv_table[lead], images])
    out.setflags(write=False)
    return out


def line_through(p: ProjPoint, q: ProjPoint) -> Subspace:
    if p.geometry != q.geometry:
        raise GeometryMismatch("points from different geometries")
    if p.coords == q.coords:
        raise EqualPoints(f"line through equal points {p.coords} undefined")
    return _subspace_from_rows(p.geometry, np.array([p.coords, q.coords], dtype=np.uint8))


def span(a: Subspace, b: Subspace) -> Subspace:
    if a.geometry != b.geometry:
        raise GeometryMismatch("subspaces from different geometries")
    rows = np.array(list(a.basis) + list(b.basis), dtype=np.uint8)
    return _subspace_from_rows(a.geometry, rows)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Common points of two subspaces, via annihilators (duality)."""
    if a.geometry != b.geometry:
        raise GeometryMismatch("subspaces from different geometries")
    g = a.geometry
    fld = g.field
    ann_a = nullspace_fq(np.array(a.basis, dtype=np.uint8).reshape(-1, g.n + 1), fld)
    ann_b = nullspace_fq(np.array(b.basis, dtype=np.uint8).reshape(-1, g.n + 1), fld)
    stacked = np.vstack([ann_a, ann_b])
    return _subspace_from_rows(g, nullspace_fq(stacked, fld))


def to_subspace(obj) -> Subspace:
    """View a point or hyperplane as a Subspace."""
    if isinstance(obj, ProjPoint):
        return Subspace(obj.geometry, (obj.coords,))
    if isinstance(obj, Hyperplane):
        g = obj.geometry
        dual = np.array([obj.dual_coords], dtype=np.uint8)
        return _subspace_from_rows(g, nullspace_fq(dual, g.field))
    if isinstance(obj, Subspace):
        return obj
    raise TypeError(f"cannot view {type(obj).__name__} as a subspace")


@lru_cache(maxsize=None)
def _subspace_bases(g: GeometrySpec, k: int) -> np.ndarray:
    """(N_k, k+1, n+1) canonical RREF bases of every projective k-subspace.

    Generated pivot pattern by pivot pattern, with the free entries of each
    pattern in itertools.product order, so no de-duplication pass is
    needed; the count is checked against the Gaussian binomial.
    """
    if not 0 <= k <= g.n - 1:
        raise DimensionOutOfRange(f"k must be in [0, {g.n - 1}], got {k}")
    n1 = g.n + 1
    blocks = []
    for pivs in itertools.combinations(range(n1), k + 1):
        free = [(i, c) for i in range(k + 1) for c in range(pivs[i] + 1, n1) if c not in pivs]
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        block = np.zeros((g.q ** len(free), k + 1, n1), dtype=np.uint8)
        block[:, np.arange(k + 1), list(pivs)] = 1
        block[:, rows, cols] = _digits(g.q, len(free))
        blocks.append(block)
    out = np.concatenate(blocks)
    if len(out) != gaussian_binomial(n1, k + 1, g.q):
        raise RuntimeError(f"{len(out)} bases of {k}-subspaces, not the Gaussian binomial")
    out.setflags(write=False)
    return out


def _as_subspaces(g: GeometrySpec, bases: np.ndarray) -> list[Subspace]:
    """The Subspaces of an (N, k+1, n+1) table of bases, which are checked
    as one stack, as Subspace checks one basis; the keys are then built
    without a check each."""
    if ((bases < 0) | (bases >= g.q)).any():
        raise ValueError(f"basis entry outside [0, {g.q})")
    if _rref_pivots(bases) is None:
        raise ValueError("basis is not in reduced row-echelon form")
    keys = []
    for basis in bases.tolist():
        key = object.__new__(Subspace)
        object.__setattr__(key, "geometry", g)
        object.__setattr__(key, "basis", tuple(map(tuple, basis)))
        keys.append(key)
    return keys


def enumerate_subspaces(g: GeometrySpec, k: int) -> list[Subspace]:
    """All projective k-subspaces, one canonical RREF basis each, in the
    row order of subspace_point_indices."""
    return _as_subspaces(g, _subspace_bases(g, k))


def subspaces_through(s: Subspace, k: int) -> list[Subspace]:
    """All k-subspaces containing s, for dim(s) < k <= n-1.

    A k-subspace contains s exactly when it holds all theta_dim(s) points
    of s, which one mask sum per row of the k-subspace table counts.
    """
    g = s.geometry
    if not s.dim < k <= g.n - 1:
        raise DimensionOutOfRange(f"need dim(s) < k <= {g.n - 1}, got k = {k}")
    inside = np.zeros(g.num_points, dtype=bool)
    if s.dim >= 0:
        inside[global_point_indices(s)] = True
    hits = inside[subspace_point_indices(g, k)].sum(axis=1) == theta(s.dim, g.q)
    return _as_subspaces(g, _subspace_bases(g, k)[hits])


def _spanned_vectors(g: GeometrySpec, bases: np.ndarray) -> np.ndarray:
    """(..., theta_d, n+1) canonical vectors of the points spanned by RREF
    bases (..., d+1, n+1), in ascending global index order.

    The internal canonical vectors map through each basis to ambient
    canonical vectors, and the map preserves lexicographic order because
    the pivot columns of an RREF basis are unit columns.
    """
    return fq_matmul(canonical_vectors(g.field, bases.shape[-2]), bases, g.field)


def points_of(s: Subspace) -> list[ProjPoint]:
    """Canonical points of a subspace, in ascending global index order."""
    if s.dim < 0:
        raise EmptySubspace("the empty subspace has no points")
    rows = _spanned_vectors(s.geometry, np.array(s.basis, dtype=np.uint8))
    return [ProjPoint(s.geometry, tuple(row)) for row in rows.tolist()]


def global_point_indices(s: Subspace) -> np.ndarray:
    """Sorted global indices of a subspace's points; position within this
    array is the subspace's own internal point index."""
    if s.dim < 0:
        raise EmptySubspace("the empty subspace has no points")
    g = s.geometry
    return point_indices(g, _spanned_vectors(g, np.array(s.basis, dtype=np.uint8)))


@lru_cache(maxsize=None)
def subspace_point_indices(g: GeometrySpec, k: int) -> np.ndarray:
    """(N_k, theta_k) sorted global point indices of every k-subspace, in
    enumerate_subspaces order."""
    out = point_indices(g, _spanned_vectors(g, _subspace_bases(g, k))).astype(np.int32)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def line_through_pairs(g: GeometrySpec) -> np.ndarray:
    """(theta_n, theta_n) table of the line index through each point pair.

    Diagonal entries are -1; line indices refer to enumerate_subspaces(g, 1).
    """
    lines = subspace_point_indices(g, 1)
    which = np.arange(len(lines), dtype=np.int32)[:, None, None]
    # one scatter over every ordered pair of points on each line, the
    # diagonal included, writes every entry; numpy never materializes the
    # broadcast (N_1, q+1, q+1) index arrays, so it needs little beyond the table
    table = np.empty((g.num_points, g.num_points), dtype=np.int32)
    table[lines[:, :, None], lines[:, None, :]] = which
    np.fill_diagonal(table, -1)
    table.setflags(write=False)
    return table
