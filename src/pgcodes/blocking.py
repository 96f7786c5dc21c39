"""Blocking sets of projective spaces.

A k-blocking set in PG(n,q) meets every (n-k)-subspace.  This module
provides the blocking predicate, tangent subspaces, essential points,
and reduction of a blocking set to a minimal one by repeatedly removing
non-essential points.  Reduction is order-independent below a size
bound; the deterministic mode always removes the smallest removable
point, and the randomized mode exists to probe that order independence.

Reduction runs on a boolean mask.  Its start counts each (n-k)-subspace's
meet with the set once, and sums the point indices in that meet.  A point
is essential when some subspace meets the set in that point alone, and
essential points stay essential: removing a non-essential point P lowers
only the counts of the subspaces through P, and a subspace meeting the set
in one other point does not pass through P.  So each removal looks only at
the subspaces through P, and a count that falls to 1 makes that subspace's
one remaining point, which is its sum, essential.  The removals run on
plain Python ints, and the removal orders of one set (reduce_mask_orders)
share one start.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .geometry import (
    DimensionOutOfRange,
    GeometryMismatch,
    GeometrySpec,
    Hyperplane,
    ProjPoint,
    Subspace,
    as_mask,
    as_rows,
    incidence_bool,
    point_mask,
    points_at,
    subspace_point_indices,
    theta,
    _as_subspaces,
    _subspace_bases,
)


class PointNotInSet(ValueError):
    """The designated point does not belong to the point set."""


class NotBlocking(ValueError):
    """The set fails the k-blocking predicate required by the operation."""


class EqualHyperplanes(ValueError):
    """Symmetric difference of a hyperplane with itself is not allowed."""


class SizeGuaranteeViolated(UserWarning):
    """Reduction ran outside the regime where the result is provably unique."""


@dataclass(frozen=True, slots=True)
class PointSet:
    """An immutable set of points of one projective geometry.

    Accepts a boolean mask of theta_n entries, or projective points and
    their global indices, repeats allowed (geometry.point_mask).  Iteration
    and serialization follow the global point order.  Equal and hashed as
    the pair (geometry, indices).
    """

    geometry: GeometrySpec
    indices: tuple[int, ...]

    def __init__(self, geometry: GeometrySpec, points: Iterable) -> None:
        object.__setattr__(self, "geometry", geometry)
        indices = np.flatnonzero(point_mask(geometry, points)).tolist()
        object.__setattr__(self, "indices", tuple(indices))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[ProjPoint]:
        return iter(points_at(self.geometry, self.indices))

    def __contains__(self, item) -> bool:
        if isinstance(item, ProjPoint):
            return item.geometry == self.geometry and item.index in self.indices
        return item in self.indices

    def __repr__(self) -> str:
        return f"PointSet({self.geometry!r}, {len(self.indices)} points)"

    @property
    def points(self) -> frozenset:
        return frozenset(self)

    @classmethod
    def from_word(cls, geometry: GeometrySpec, word: np.ndarray) -> "PointSet":
        """Point set supported by the nonzero coordinates of a word."""
        return cls(geometry, as_rows(geometry, word, geometry.field.p, 1) != 0)

    def word(self) -> np.ndarray:
        return self.mask().view(np.uint8)

    def mask(self) -> np.ndarray:
        return point_mask(self.geometry, self.indices)

    def without(self, index: int) -> "PointSet":
        if index not in self.indices:
            raise PointNotInSet(f"point {index} is not in the set")
        return PointSet(self.geometry, [i for i in self.indices if i != index])

    def to_json_list(self) -> list:
        """Sorted coordinate vectors, each entry a field element index."""
        return [list(pt.coords) for pt in self]


def _check_k(g: GeometrySpec, k: int) -> None:
    if not 1 <= k <= g.n - 1:
        raise DimensionOutOfRange(f"k must lie in [1, {g.n - 1}], got {k}")


def _meets(g: GeometrySpec, mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each (n-k)-subspace's meet with a (theta_n,) boolean mask, in table
    order: its number of points in the set and the sum of their indices,
    which is the one point where the number is 1.  Checks k first."""
    _check_k(g, k)
    table = subspace_point_indices(g, g.n - k)
    hit = mask[table]
    return hit.sum(axis=1), np.where(hit, table, 0).sum(axis=1)


def is_k_blocking(B: PointSet, k: int) -> bool:
    """True iff every (n-k)-subspace contains a point of B."""
    return bool(_meets(B.geometry, B.mask(), k)[0].all())


def tangent_spaces(B: PointSet, k: int, P: ProjPoint) -> list[Subspace]:
    """All (n-k)-subspaces meeting B exactly in the point P."""
    _check_k(B.geometry, k)
    if P not in B:
        raise PointNotInSet("tangent spaces are defined at points of the set")
    g = B.geometry
    counts, sums = _meets(g, B.mask(), k)
    return _as_subspaces(g, _subspace_bases(g, g.n - k)[(counts == 1) & (sums == P.index)])


def _essential_indices(B: PointSet, k: int) -> set[int]:
    counts, sums = _meets(B.geometry, B.mask(), k)
    if not counts.all():
        raise NotBlocking("essential points are defined for blocking sets only")
    return set(sums[counts == 1].tolist())


def essential_points(B: PointSet, k: int) -> set[ProjPoint]:
    """Points of B admitting at least one tangent (n-k)-subspace.

    B is minimal exactly when every point is essential.
    """
    return set(points_at(B.geometry, sorted(_essential_indices(B, k))))


def is_minimal(B: PointSet, k: int) -> bool:
    return len(_essential_indices(B, k)) == len(B)


@lru_cache(maxsize=None)
def _subspaces_through_points(g: GeometrySpec, dim: int) -> np.ndarray:
    """(theta_n, r) ascending rows of the dim-subspace table through each
    point: one stable argsort of the flattened table groups its positions
    by point, and every point lies on the same number r of subspaces."""
    table = subspace_point_indices(g, dim)
    order = np.argsort(table, axis=None, kind="stable")
    out = (order // table.shape[1]).reshape(g.num_points, -1)
    out.setflags(write=False)
    return out


def _reduction_start(g: GeometrySpec, mask, k: Optional[int]) -> tuple:
    """What every removal order of one blocking mask starts from: the mask,
    each (n-k)-subspace's meet count and the sum of the point indices in
    its meet (as lists), the essential points (a set), the removable points
    in ascending order and the subspaces through each point.  Raises and
    warns as reduce_mask does; the warning names the line that called the
    public function calling this one."""
    if k is None:
        k = g.n - 1
    current = as_mask(g, mask, 1)
    counts, sums = _meets(g, current, k)
    if not counts.all():
        raise NotBlocking("reduction requires a k-blocking input")
    size = int(current.sum())
    bound = g.q ** (g.n - 1) + theta(g.n - 1, g.q)
    if k != g.n - 1 or size >= bound:
        warnings.warn(
            f"uniqueness of the reduction is only guaranteed for k = n-1 "
            f"and |B| < q^(n-1) + theta_(n-1) = {bound}; got k={k}, |B|={size}",
            SizeGuaranteeViolated,
            stacklevel=3,
        )
    essential = set(sums[counts == 1].tolist())
    removable = [i for i in np.flatnonzero(current).tolist() if i not in essential]
    through = _subspaces_through_points(g, g.n - k)
    return current, counts.tolist(), sums.tolist(), essential, removable, through


def _reduce_from(start: tuple, rng: Optional[np.random.Generator]) -> np.ndarray:
    """One removal order run from a _reduction_start, which it leaves as it
    was: each step removes the first removable point or, given rng, the one
    at rng.integers(len(removable))."""
    current, counts, sums, essential, removable, through = start
    counts, sums, removable = counts.copy(), sums.copy(), removable.copy()
    essential = set(essential)
    removed = []
    while removable:
        pick = removable.pop(0 if rng is None else int(rng.integers(len(removable))))
        removed.append(pick)
        for row in through[pick].tolist():
            counts[row] -= 1
            sums[row] -= pick
            if counts[row] == 1 and sums[row] not in essential:
                essential.add(sums[row])
                removable.remove(sums[row])
    out = current.copy()
    out[removed] = False
    return out


def reduce_mask(
    g: GeometrySpec,
    mask,
    k: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """The mask core of reduce_to_minimal: a new (theta_n,) boolean mask of
    the minimal k-blocking subset it reaches from the points of mask, a
    (theta_n,) array of entries 0 or 1, boolean or integer.

    The removable points are kept in ascending order, and each step removes
    the first of them or, given rng, the one at rng.integers(len(removable)).
    """
    return _reduce_from(_reduction_start(g, mask, k), rng)


def reduce_mask_orders(
    g: GeometrySpec,
    mask,
    orders: int,
    rng: Optional[np.random.Generator],
    k: Optional[int] = None,
) -> list[np.ndarray]:
    """reduce_mask(g, mask, k) followed by orders - 1 results of
    reduce_mask(g, mask, k, rng), from one start.

    rng is drawn from exactly as by those successive calls, so the results
    and the generator state after them are the same.  The input is checked
    once: NotBlocking is raised, and SizeGuaranteeViolated warned, once per
    call, not once per order.
    """
    start = _reduction_start(g, mask, k)
    return [_reduce_from(start, None)] + [_reduce_from(start, rng) for _ in range(orders - 1)]


def reduce_to_minimal(
    B: PointSet,
    k: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> PointSet:
    """Strip non-essential points one at a time until all are essential.

    Removing a non-essential point keeps the set k-blocking, so the loop
    terminates at a minimal k-blocking subset.  For hyperplane-type sets
    (k = n-1) of size below q^{n-1} + theta_{n-1} the result does not
    depend on removal order; outside that regime the reduction is still
    performed but a SizeGuaranteeViolated warning is issued.

    The default removal order is deterministic (smallest point first);
    pass a numpy Generator to randomize it.  This is reduce_mask on the
    set's mask.
    """
    reduced = _reduce_from(_reduction_start(B.geometry, B.mask(), k), rng)
    return PointSet(B.geometry, np.flatnonzero(reduced).tolist())


def symmetric_difference(H1: Hyperplane, H2: Hyperplane) -> PointSet:
    """Points on exactly one of two distinct hyperplanes; size 2q^{n-1}."""
    if H1.geometry != H2.geometry:
        raise GeometryMismatch("hyperplanes from different geometries")
    if H1 == H2:
        raise EqualHyperplanes("symmetric difference requires distinct hyperplanes")
    inc = incidence_bool(H1.geometry)
    return PointSet(H1.geometry, inc[H1.index] ^ inc[H2.index])
