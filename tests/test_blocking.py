"""Blocking-set predicates, tangents, essential points, reduction."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pgcodes.gf import make_field
from pgcodes.geometry import (
    DimensionOutOfRange,
    GeometryMismatch,
    GeometrySpec,
    LengthMismatch,
    enumerate_points,
    enumerate_subspaces,
    global_point_indices,
    hyperplane_point_indices,
    subspace_point_indices,
    theta,
)
from pgcodes.code import build_model, weight
from pgcodes.analysis import enumerate_spectrum
from pgcodes.blocking import (
    EqualHyperplanes,
    NotBlocking,
    PointNotInSet,
    PointSet,
    SizeGuaranteeViolated,
    essential_points,
    is_k_blocking,
    is_minimal,
    reduce_mask,
    reduce_mask_orders,
    reduce_to_minimal,
    symmetric_difference,
    tangent_spaces,
    _subspaces_through_points,
)
from helpers import reduce_to_minimal_reference

PG22 = GeometrySpec(make_field(2), 2)
PG23 = GeometrySpec(make_field(3), 2)
PG24 = GeometrySpec(make_field(2, 2), 2)
PG25 = GeometrySpec(make_field(5), 2)
PG32 = GeometrySpec(make_field(2), 3)
PG33 = GeometrySpec(make_field(3), 3)
PG43 = GeometrySpec(make_field(3), 4)


def line_set(g, i):
    return PointSet(g, subspace_point_indices(g, 1)[i].tolist())


def tangent_oracle(g, indices, k, p_idx):
    """Subspace rows meeting the index set exactly in point p_idx."""
    rows = subspace_point_indices(g, g.n - k)
    bset = set(indices)
    return [i for i, r in enumerate(rows) if set(r.tolist()) & bset == {p_idx}]


# -- PointSet ----------------------------------------------------------------


def test_pointset_dedup_and_order():
    pts = enumerate_points(PG23)
    s = PointSet(PG23, [5, pts[2], 2, 5])
    assert s.indices == (2, 5)
    assert len(s) == 2
    assert [p.index for p in s] == [2, 5]
    assert pts[2] in s and 5 in s and 7 not in s


def test_pointset_word_roundtrip():
    s = line_set(PG23, 4)
    w = s.word()
    assert weight(w) == 4
    assert PointSet.from_word(PG23, w) == s


def test_pointset_immutable_and_hashable():
    s = line_set(PG22, 0)
    with pytest.raises(AttributeError):
        s.indices = ()
    assert s == line_set(PG22, 0)
    assert hash(s) == hash(line_set(PG22, 0))
    assert s != line_set(PG22, 1)


def test_pointset_rejects_foreign_points():
    with pytest.raises(GeometryMismatch):
        PointSet(PG22, [enumerate_points(PG23)[0]])
    for bad in (-1, PG22.num_points):
        with pytest.raises(GeometryMismatch):
            PointSet(PG22, [bad])
    # truncated, these would be the points 0, 1 and 2
    with pytest.raises(GeometryMismatch, match="whole number"):
        PointSet(PG22, [0.5, 1.9, 2])


def test_pointset_reads_a_boolean_mask_as_its_points():
    mask = np.zeros(PG23.num_points, dtype=bool)
    mask[[3, 8]] = True
    # read as indices, the mask would be the point set {0, 1}
    assert PointSet(PG23, mask).indices == (3, 8)
    assert PointSet(PG23, mask) == PointSet(PG23, [8, 3, 3])
    with pytest.raises(LengthMismatch):
        PointSet(PG23, mask[:-1])
    # a word's support makes the set, and its entries are checked as a word's
    assert PointSet.from_word(PG23, mask.astype(np.uint8) * 2) == PointSet(PG23, mask)
    with pytest.raises(ValueError, match="whole numbers"):
        PointSet.from_word(PG23, mask * 0.5)
    with pytest.raises(LengthMismatch):
        PointSet.from_word(PG23, mask[:-1])


def test_pointset_membership_does_not_truncate():
    s = PointSet(PG23, [0, 5])
    assert 5 in s and np.int64(5) in s and 5.0 in s
    assert 0.5 not in s and 5.5 not in s
    with pytest.raises(PointNotInSet):
        s.without(0.5)


def test_pointset_serialization_is_sorted_coordinates():
    s = PointSet(PG22, [3, 0])
    assert s.to_json_list() == [[0, 0, 1], [1, 0, 0]]


def test_pointset_without():
    s = line_set(PG23, 0)
    smaller = s.without(s.indices[1])
    assert len(smaller) == 3
    with pytest.raises(PointNotInSet):
        s.without(12)


# -- is_k_blocking -----------------------------------------------------------


def test_subspace_is_trivial_blocking_set():
    for g, k in [(PG22, 1), (PG32, 1), (PG32, 2), (PG33, 2)]:
        s = PointSet(g, subspace_point_indices(g, k)[0].tolist())
        assert is_k_blocking(s, k)


def test_hyperplane_blocks_lines():
    for g in (PG22, PG23, PG32):
        h = PointSet(g, hyperplane_point_indices(g)[0].tolist())
        assert is_k_blocking(h, g.n - 1)


def test_single_point_does_not_block():
    assert not is_k_blocking(PointSet(PG23, [0]), 1)
    assert not is_k_blocking(PointSet(PG22, []), 1)


def test_blocking_dimension_range():
    s = line_set(PG23, 0)
    with pytest.raises(DimensionOutOfRange):
        is_k_blocking(s, 0)
    with pytest.raises(DimensionOutOfRange):
        is_k_blocking(s, 2)


def test_hyperplane_is_minimal_no_point_removable():
    h = PointSet(PG23, hyperplane_point_indices(PG23)[2].tolist())
    assert is_minimal(h, 1)
    for i in h.indices:
        assert not is_k_blocking(h.without(i), 1)


# -- tangent spaces ----------------------------------------------------------


def test_tangents_at_point_of_a_line():
    # every other line through P meets the line only at P: q tangents
    s = line_set(PG23, 2)
    pts = enumerate_points(PG23)
    for i in s.indices:
        tans = tangent_spaces(s, 1, pts[i])
        assert len(tans) == 3
        oracle = tangent_oracle(PG23, s.indices, 1, i)
        got = set()
        for t in tans:
            gp = frozenset(global_point_indices(t).tolist())
            got.add(gp)
        assert got == {
            frozenset(subspace_point_indices(PG23, 1)[r].tolist()) for r in oracle
        }


@pytest.mark.parametrize("g,k", [(PG23, 1), (PG33, 1), (PG33, 2), (PG43, 2)])
def test_tangent_spaces_are_the_oracle_rows_in_table_order(g, k):
    # a line has tangent (n-k)-subspaces at each of its points; a
    # hyperplane has none once n - k >= 2, since every (n-k)-subspace then
    # meets it in at least a line
    spaces = enumerate_subspaces(g, g.n - k)
    pts = enumerate_points(g)
    line, hyperplane = line_set(g, 1).indices, hyperplane_point_indices(g)[3].tolist()
    for indices, tangents in ((line, True), (hyperplane, g.n - k == 1)):
        for i in list(indices)[:3]:
            expected = [spaces[r] for r in tangent_oracle(g, indices, k, i)]
            assert tangent_spaces(PointSet(g, indices), k, pts[i]) == expected
            assert bool(expected) == tangents


def test_no_tangents_at_attached_extra_point():
    line = line_set(PG23, 0)
    extra = next(i for i in range(13) if i not in line.indices)
    s = PointSet(PG23, list(line.indices) + [extra])
    pts = enumerate_points(PG23)
    assert tangent_spaces(s, 1, pts[extra]) == []


def test_tangent_point_membership_required():
    s = line_set(PG23, 0)
    outside = next(i for i in range(13) if i not in s.indices)
    with pytest.raises(PointNotInSet):
        tangent_spaces(s, 1, enumerate_points(PG23)[outside])


# -- essential points --------------------------------------------------------


def test_line_points_all_essential():
    s = line_set(PG23, 1)
    ess = essential_points(s, 1)
    assert {p.index for p in ess} == set(s.indices)
    assert is_minimal(s, 1)


def test_attached_point_is_not_essential():
    line = line_set(PG23, 0)
    extra = next(i for i in range(13) if i not in line.indices)
    s = PointSet(PG23, list(line.indices) + [extra])
    ess = {p.index for p in essential_points(s, 1)}
    assert ess == set(line.indices)
    assert not is_minimal(s, 1)


def test_union_of_two_lines_only_meet_point_essential():
    rows = subspace_point_indices(PG22, 1)
    l1, l2 = set(rows[0].tolist()), set(rows[1].tolist())
    meet = l1 & l2
    s = PointSet(PG22, l1 | l2)
    ess = {p.index for p in essential_points(s, 1)}
    assert ess == meet  # off-meet points lie on 2-secants only
    oracle = {
        i for i in s.indices if tangent_oracle(PG22, s.indices, 1, i)
    }
    assert ess == oracle


def test_essential_requires_blocking():
    with pytest.raises(NotBlocking):
        essential_points(PointSet(PG23, [0, 1]), 1)


def test_is_minimal_requires_blocking_and_valid_k():
    with pytest.raises(NotBlocking):
        is_minimal(PointSet(PG23, [0, 1]), 1)
    with pytest.raises(DimensionOutOfRange):
        is_minimal(line_set(PG23, 1), 2)


def test_is_minimal_builds_no_point_objects(monkeypatch):
    import pgcodes.blocking as blocking

    def refuse(g, indices):
        raise AssertionError("is_minimal enumerated the points")

    monkeypatch.setattr(blocking, "points_at", refuse)
    assert is_minimal(line_set(PG23, 1), 1)
    line = line_set(PG23, 0)
    extra = next(i for i in range(13) if i not in line.indices)
    assert not is_minimal(PointSet(PG23, list(line.indices) + [extra]), 1)


# -- reduction ---------------------------------------------------------------


def test_reduce_fixed_point_on_minimal_set():
    s = line_set(PG23, 5)
    assert reduce_to_minimal(s) == s


def test_reduce_line_with_extras_recovers_line():
    rng = np.random.default_rng(7)
    line = line_set(PG25, 3)
    off = [i for i in range(31) if i not in line.indices]
    extras = rng.choice(off, size=3, replace=False).tolist()
    s = PointSet(PG25, list(line.indices) + extras)
    assert len(s) == 9  # below the bound q + theta_1 = 11
    results = {reduce_to_minimal(s)}
    for seed in (0, 1, 2, 3, 4):
        results.add(reduce_to_minimal(s, rng=np.random.default_rng(seed)))
    assert results == {line}


def test_reduce_hyperplane_plus_point_pg33():
    h = PointSet(PG33, hyperplane_point_indices(PG33)[4].tolist())
    extra = next(i for i in range(theta(3, 3)) if i not in h.indices)
    s = PointSet(PG33, list(h.indices) + [extra])
    for rng in (None, np.random.default_rng(9)):
        assert reduce_to_minimal(s, rng=rng) == h


def test_reduce_requires_blocking():
    with pytest.raises(NotBlocking):
        reduce_to_minimal(PointSet(PG23, [0, 1, 2]))


def test_reduce_warns_at_or_above_size_bound():
    rows = subspace_point_indices(PG22, 1)
    l1, l2 = set(rows[0].tolist()), set(rows[1].tolist())
    s = PointSet(PG22, l1 | l2)  # size 5 = q + theta_1: guarantee is strict
    with pytest.warns(SizeGuaranteeViolated):
        reduced = reduce_to_minimal(s)
    # order dependence is real at the bound: both lines are reachable, the
    # deterministic mode reproducibly picks one of them
    assert set(reduced.indices) in (l1, l2)
    with pytest.warns(SizeGuaranteeViolated):
        assert reduce_to_minimal(s) == reduced


def test_reduce_warns_for_general_k():
    s = line_set(PG32, 0)  # a line blocks every plane of PG(3,2)
    with pytest.warns(SizeGuaranteeViolated):
        assert reduce_to_minimal(s, k=1) == s


def test_size_warning_points_at_the_caller():
    rows = subspace_point_indices(PG22, 1)
    s = PointSet(PG22, set(rows[0].tolist()) | set(rows[1].tolist()))
    with pytest.warns(SizeGuaranteeViolated) as record:
        reduce_to_minimal(s)
    assert record[0].filename == __file__
    with pytest.warns(SizeGuaranteeViolated) as record:
        reduce_mask(PG22, s.mask())
    assert record[0].filename == __file__
    with pytest.warns(SizeGuaranteeViolated) as record:
        reduce_mask_orders(PG22, s.mask(), 3, np.random.default_rng(0))
    assert record[0].filename == __file__


@pytest.mark.parametrize("bad", [0.5, 2])
def test_reduction_masks_refuse_entries_other_than_0_and_1(bad):
    # cast to bool, either entry would be taken as a member of the set
    mask = PointSet(PG23, hyperplane_point_indices(PG23)[0].tolist()).mask().astype(float)
    mask[np.flatnonzero(mask == 0)[0]] = bad
    with pytest.raises(ValueError):
        reduce_mask(PG23, mask)
    with pytest.raises(ValueError):
        reduce_mask_orders(PG23, mask, 3, np.random.default_rng(0))


def test_integer_masks_reduce_as_boolean_masks_do():
    line = hyperplane_point_indices(PG23)[0].tolist()
    extra = next(i for i in range(PG23.num_points) if i not in line)
    mask = PointSet(PG23, line + [extra]).mask()
    for ints in (mask.astype(np.uint8), mask.astype(np.int64), mask.astype(float)):
        assert reduce_mask(PG23, ints).tolist() == reduce_mask(PG23, mask).tolist()
        got = reduce_mask_orders(PG23, ints, 3, np.random.default_rng(4))
        want = reduce_mask_orders(PG23, mask, 3, np.random.default_rng(4))
        assert [r.tolist() for r in got] == [r.tolist() for r in want]
    with pytest.raises(LengthMismatch):
        reduce_mask(PG23, mask[:-1].astype(np.uint8))


def test_reduce_mask_rejects_before_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotBlocking):
            reduce_mask(PG23, PointSet(PG23, [0, 1, 2]).mask(), 1)
        with pytest.raises(NotBlocking):
            reduce_mask_orders(PG23, PointSet(PG23, [0, 1, 2]).mask(), 3, None, 1)
    with pytest.raises(GeometryMismatch):
        reduce_mask(PG23, np.ones(PG22.num_points, dtype=bool))
    with pytest.raises(DimensionOutOfRange):
        reduce_mask(PG23, np.ones(PG23.num_points, dtype=bool), 2)


@pytest.mark.parametrize("g, dim", [(PG23, 1), (PG32, 1), (PG32, 2), (PG33, 1), (PG33, 2)])
def test_subspaces_through_points_lists_every_containing_row(g, dim):
    table = subspace_point_indices(g, dim).tolist()
    through = _subspaces_through_points(g, dim)
    for point in range(g.num_points):
        assert through[point].tolist() == [i for i, row in enumerate(table) if point in row]


_REDUCTION_GEOMETRIES = [PG22, PG23, PG24, PG25, PG32, PG33]


@st.composite
def _blocking_sets(draw):
    """(g, k, indices): a k-subspace, which blocks every (n-k)-subspace,
    and any extra points, so sizes run past the uniqueness bound."""
    g = draw(st.sampled_from(_REDUCTION_GEOMETRIES))
    k = draw(st.integers(1, g.n - 1))
    table = subspace_point_indices(g, k)
    row = draw(st.integers(0, table.shape[0] - 1))
    extra = draw(st.sets(st.integers(0, g.num_points - 1)))
    return g, k, sorted(set(table[row].tolist()) | extra)


@settings(max_examples=200, deadline=None)
@given(_blocking_sets(), st.integers(0, 2**32 - 1))
def test_mask_reduction_matches_the_one_point_at_a_time_oracle(case, seed):
    g, k, indices = case
    mask = np.zeros(g.num_points, dtype=bool)
    mask[indices] = True
    bound = g.q ** (g.n - 1) + theta(g.n - 1, g.q)
    warned = [SizeGuaranteeViolated] if k != g.n - 1 or len(indices) >= bound else []
    for ours, theirs in [(None, None), (np.random.default_rng(seed), np.random.default_rng(seed))]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = reduce_mask(g, mask, k, ours)
        assert [w.category for w in caught] == warned
        assert tuple(np.flatnonzero(got).tolist()) == reduce_to_minimal_reference(
            g, indices, k, theirs
        )
        if ours is not None:
            assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.flatnonzero(mask).tolist() == indices  # the input stays as it was


# two lines of PG(2,2): 5 points, at the size bound q + theta_1
@example((PG22, 1, [1, 2, 3, 5, 6]), 3, 0)
@settings(max_examples=150, deadline=None)
@given(_blocking_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_reduction_orders_match_one_oracle_run_per_order(case, orders, seed):
    g, k, indices = case
    mask = np.zeros(g.num_points, dtype=bool)
    mask[indices] = True
    bound = g.q ** (g.n - 1) + theta(g.n - 1, g.q)
    # the shared start warns once per call, however many orders it runs
    warned = [SizeGuaranteeViolated] if k != g.n - 1 or len(indices) >= bound else []
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = reduce_mask_orders(g, mask, orders, ours, k)
    assert [w.category for w in caught] == warned
    expected = [reduce_to_minimal_reference(g, indices, k)]
    expected += [reduce_to_minimal_reference(g, indices, k, theirs) for _ in range(orders - 1)]
    assert [tuple(np.flatnonzero(r).tolist()) for r in got] == expected
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.flatnonzero(mask).tolist() == indices


# -- small codewords give minimal blocking sets ------------------------------


def test_min_weight_supports_are_minimal_blocking_sets():
    model = build_model(PG23)
    report = enumerate_spectrum(model)
    seen = 0
    for row in report.low_weight:
        if 0 < weight(row) < 6:
            s = PointSet.from_word(PG23, row)
            assert is_k_blocking(s, 1)
            assert is_minimal(s, 1)
            seen += 1
    assert seen == 26


# -- symmetric difference ----------------------------------------------------


def test_symmetric_difference_sizes():
    for g, expected in [(PG22, 4), (PG23, 6), (PG33, 18)]:
        d = symmetric_difference(g.hyperplane([1] + [0] * g.n), g.hyperplane([0] * g.n + [1]))
        assert len(d) == expected == 2 * g.q ** (g.n - 1)


def test_symmetric_difference_matches_set_algebra():
    h1, h2 = PG23.hyperplane([1, 0, 0]), PG23.hyperplane([0, 1, 2])
    rows = hyperplane_point_indices(PG23)
    a, b = set(rows[h1.index].tolist()), set(rows[h2.index].tolist())
    assert set(symmetric_difference(h1, h2).indices) == a ^ b


def test_symmetric_difference_word_lies_in_hull():
    model = build_model(PG23)
    rows = hyperplane_point_indices(PG23)
    h1, h2 = PG23.hyperplane([1, 0, 0]), PG23.hyperplane([0, 0, 1])
    w = np.zeros(13, dtype=np.int64)
    w[rows[h1.index]] += 1
    w[rows[h2.index]] -= 1
    w = (w % 3).astype(np.uint8)
    assert model.contains(w)
    assert model.dual_contains(w)
    assert model.hull_contains(w)


def test_symmetric_difference_rejects_equal_or_foreign():
    h = PG23.hyperplane([1, 0, 0])
    with pytest.raises(EqualHyperplanes):
        symmetric_difference(h, PG23.hyperplane([2, 0, 0]))  # same hyperplane
    with pytest.raises(GeometryMismatch):
        symmetric_difference(h, PG22.hyperplane([1, 0, 0]))
