"""Geometry checks: enumeration, incidence, lattice operations, counting.

Counts are pinned against the naive oracles in helpers.py, which share no
code with the package; the subspace tables are compared with the package's
earlier loops, kept there as references.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes import geometry
from pgcodes.gf import is_prime, make_field
from pgcodes.geometry import (
    DimensionOutOfRange,
    EmptySubspace,
    EqualPoints,
    GeometryMismatch,
    GeometrySpec,
    Subspace,
    canonical_vectors,
    collineations,
    enumerate_hyperplanes,
    enumerate_points,
    enumerate_subspaces,
    fq_matmul,
    gaussian_binomial,
    hyperplane_point_indices,
    incidence_bool,
    incident,
    intersect,
    line_through,
    line_through_pairs,
    point_array,
    point_indices,
    points_of,
    span,
    subspace_point_indices,
    subspaces_through,
    theta,
    to_subspace,
)

from pgcodes.verify import DEFAULT_GRID

from helpers import (
    count_projective_classes,
    fq_matmul_reference,
    gaussian_binomial_product,
    line_through_pairs_reference,
    subspace_point_indices_reference,
    theta_oracle,
)

PG22 = GeometrySpec(make_field(2), 2)
PG23 = GeometrySpec(make_field(3), 2)
PG32 = GeometrySpec(make_field(2), 3)
PG24 = GeometrySpec(make_field(2, 2), 2)
PG33 = GeometrySpec(make_field(3), 3)


def test_theta_small_values():
    assert theta(1, 2) == 3
    assert theta(2, 3) == 13
    assert theta(2, 4) == 21
    assert theta(0, 5) == 1
    assert theta(-1, 7) == 0
    for m in range(-1, 6):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert theta(m, q) == theta_oracle(m, q) if m >= 0 else theta(m, q) == 0


def test_gaussian_binomial_matches_product_oracle():
    for a in range(0, 7):
        for b in range(0, a + 1):
            for q in (2, 3, 4, 5):
                assert gaussian_binomial(a, b, q) == gaussian_binomial_product(a, b, q)
    assert gaussian_binomial(3, 5, 2) == 0


def test_geometry_spec_rejects_low_dimension():
    with pytest.raises(DimensionOutOfRange):
        GeometrySpec(make_field(2), 1)


@pytest.mark.parametrize(
    "g,expected",
    [(PG22, 7), (PG32, 15), (PG24, 21), (PG23, 13), (PG33, 40)],
)
def test_point_counts(g, expected):
    assert len(enumerate_points(g)) == expected
    assert g.num_points == expected


def test_point_count_matches_brute_force_class_count():
    # prime fields only: the oracle works with plain modular ints
    assert len(enumerate_points(PG22)) == count_projective_classes(2, 2)
    assert len(enumerate_points(PG23)) == count_projective_classes(2, 3)
    assert len(enumerate_points(PG32)) == count_projective_classes(3, 2)


def test_point_enumeration_is_lex_sorted_unique_canonical():
    for g in (PG22, PG23, PG24, PG32):
        pts = [p.coords for p in enumerate_points(g)]
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        for coords in pts:
            nonzero = [c for c in coords if c]
            assert nonzero and nonzero[0] == 1


def test_point_order_convention_in_the_fano_plane():
    # leading-1 position runs from last coordinate to first
    pts = [p.coords for p in enumerate_points(PG22)]
    assert pts[0] == (0, 0, 1)
    assert pts[-1] == (1, 1, 1)
    assert pts == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]


def test_point_index_roundtrip():
    for g in (PG22, PG24, PG33):
        for i, p in enumerate(enumerate_points(g)):
            assert p.index == i


def test_hyperplanes_use_the_same_canonical_list():
    for g in (PG22, PG23, PG24):
        pts = [p.coords for p in enumerate_points(g)]
        hyps = [h.dual_coords for h in enumerate_hyperplanes(g)]
        assert pts == hyps


def test_incident_examples():
    p = PG22.point((1, 0, 0))
    assert incident(p, PG22.hyperplane((0, 0, 1)))
    assert not incident(p, PG22.hyperplane((1, 0, 0)))
    assert incident(PG23.point((1, 1, 1)), PG23.hyperplane((1, 1, 1)))


def test_incident_rejects_mixed_geometries():
    with pytest.raises(GeometryMismatch):
        incident(PG22.point((1, 0, 0)), PG23.hyperplane((1, 0, 0)))


def test_as_point_index_refuses_an_index_that_is_not_a_whole_number():
    for point in (0.5, 1.9, np.float64(2.5)):
        with pytest.raises(GeometryMismatch, match="whole number"):
            geometry.as_point_index(PG22, point)
    # whole numbers and booleans pass as before
    assert [geometry.as_point_index(PG22, x) for x in (2, np.int64(3), 4.0, True)] == [2, 3, 4, 1]


def test_point_mask_reads_the_three_forms_of_a_point_set():
    pts = geometry.enumerate_points(PG23)
    mask = np.zeros(PG23.num_points, dtype=bool)
    mask[[3, 8, 12]] = True
    forms = ([12, 3, 8, 3], [pts[8], 12, pts[3]], iter([8, 12, 3]), mask)
    for form in forms:
        got = geometry.point_mask(PG23, form)
        assert got.dtype == bool and np.flatnonzero(got).tolist() == [3, 8, 12]
    # a boolean array is the mask itself, so a wrong length is a length error
    with pytest.raises(geometry.LengthMismatch):
        geometry.point_mask(PG23, mask[:-1])
    assert issubclass(geometry.LengthMismatch, GeometryMismatch)
    assert not geometry.point_mask(PG23, []).any()


def test_points_at_returns_the_points_at_the_given_indices_in_order():
    pts = geometry.enumerate_points(PG23)
    assert [p.index for p in pts] == list(range(PG23.num_points))
    assert geometry.points_at(PG23, [12, 0, 7, 7]) == [pts[12], pts[0], pts[7], pts[7]]
    assert [p.index for p in geometry.points_at(PG23, np.array([5, 1]))] == [5, 1]
    assert geometry.points_at(PG23, []) == []


def test_point_coordinates_refuse_entries_that_are_not_whole_numbers():
    # truncated, (0.5, 1, 0) would be the point (0, 1, 0)
    for coords in ((0.5, 1, 0), (1, 2.5, 0), (1, 0, 3)):
        with pytest.raises(ValueError, match="whole number"):
            PG23.point(coords)
        with pytest.raises(ValueError, match="whole number"):
            PG23.hyperplane(coords)
    assert PG23.point((2.0, np.int64(1), 0)).coords == (1, 2, 0)


@pytest.mark.parametrize("g", [PG22, PG23, PG24, PG32])
def test_every_hyperplane_has_theta_n_minus_1_points(g):
    counts = incidence_bool(g).sum(axis=1)
    assert (counts == theta(g.n - 1, g.q)).all()
    assert np.array_equal(incidence_bool(g), incidence_bool(g).T)


def test_hyperplane_point_indices_match_incident_predicate():
    for g in (PG22, PG23):
        pts = enumerate_points(g)
        for hi, h in enumerate(enumerate_hyperplanes(g)):
            expected = [i for i, p in enumerate(pts) if incident(p, h)]
            assert hyperplane_point_indices(g)[hi].tolist() == expected


def test_line_through_fano_example():
    line = line_through(PG22.point((1, 0, 0)), PG22.point((0, 1, 0)))
    assert line.dim == 1
    coords = {p.coords for p in points_of(line)}
    assert coords == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}


def test_line_through_has_q_plus_1_points_everywhere():
    for g in (PG23, PG24):
        pts = enumerate_points(g)
        for a, b in itertools.combinations(pts[:8], 2):
            line = line_through(a, b)
            assert line.dim == 1
            assert len(points_of(line)) == g.q + 1


def test_line_through_3d_example():
    line = line_through(PG32.point((1, 0, 0, 0)), PG32.point((0, 0, 0, 1)))
    assert line.dim == 1
    assert len(points_of(line)) == 3


def test_line_through_equal_points_rejected():
    p = PG22.point((1, 1, 0))
    with pytest.raises(EqualPoints):
        line_through(p, p)


def test_span_is_idempotent_and_matches_line_through():
    line = line_through(PG23.point((1, 0, 0)), PG23.point((0, 1, 0)))
    assert span(line, line) == line
    a = to_subspace(PG23.point((1, 0, 0)))
    b = to_subspace(PG23.point((0, 1, 0)))
    assert span(a, b) == line


def test_span_of_meeting_lines_is_a_plane():
    l1 = line_through(PG32.point((1, 0, 0, 0)), PG32.point((0, 1, 0, 0)))
    l2 = line_through(PG32.point((1, 0, 0, 0)), PG32.point((0, 0, 1, 0)))
    assert span(l1, l2).dim == 2


def test_intersect_examples():
    # two distinct lines of a plane meet in one point
    l1 = line_through(PG23.point((1, 0, 0)), PG23.point((0, 1, 0)))
    l2 = line_through(PG23.point((1, 0, 0)), PG23.point((0, 0, 1)))
    met = intersect(l1, l2)
    assert met.dim == 0
    assert points_of(met)[0].coords == (1, 0, 0)
    # two distinct hyperplanes meet in dim n - 2
    h1 = to_subspace(PG32.hyperplane((1, 0, 0, 0)))
    h2 = to_subspace(PG32.hyperplane((0, 1, 0, 0)))
    assert intersect(h1, h2).dim == PG32.n - 2


def test_disjoint_lines_exist_in_pg32_and_meet_nowhere():
    lines = enumerate_subspaces(PG32, 1)
    witness = None
    for a, b in itertools.combinations(lines, 2):
        if not set(map(tuple, subspace_point_indices(PG32, 1)[lines.index(a)].reshape(-1, 1))) & set(
            map(tuple, subspace_point_indices(PG32, 1)[lines.index(b)].reshape(-1, 1))
        ):
            witness = (a, b)
            break
    assert witness is not None
    assert intersect(*witness).dim == -1


def test_grassmann_identity_holds():
    lines = enumerate_subspaces(PG32, 1)
    for a, b in itertools.combinations(lines[:12], 2):
        lhs = span(a, b).dim + intersect(a, b).dim
        assert lhs == a.dim + b.dim


@pytest.mark.parametrize(
    "g,k,expected",
    [
        (PG22, 1, 7),
        (PG32, 1, 35),
        (PG33, 2, 40),
        (PG24, 1, 21),
        (PG32, 2, 15),
        (PG33, 1, 130),
    ],
)
def test_subspace_counts_match_gaussian_binomial_oracle(g, k, expected):
    spaces = enumerate_subspaces(g, k)
    assert len(spaces) == expected
    assert expected == gaussian_binomial_product(g.n + 1, k + 1, g.q)
    assert len(set(spaces)) == len(spaces)
    assert all(s.dim == k for s in spaces)


def test_enumerate_subspaces_range_errors():
    with pytest.raises(DimensionOutOfRange):
        enumerate_subspaces(PG22, 2)
    with pytest.raises(DimensionOutOfRange):
        enumerate_subspaces(PG22, -1)


def test_subspaces_through_quotient_counts():
    line = line_through(PG32.point((1, 0, 0, 0)), PG32.point((0, 1, 0, 0)))
    planes = subspaces_through(line, 2)
    assert len(planes) == 3  # theta_1(2)
    pt = to_subspace(PG23.point((1, 2, 0)))
    assert len(subspaces_through(pt, 1)) == 4  # theta_1(3)
    with pytest.raises(DimensionOutOfRange):
        subspaces_through(line, 1)


def test_subspaces_through_really_contain_the_seed():
    pt = to_subspace(PG33.point((1, 0, 2, 1)))
    through = subspaces_through(pt, 1)
    assert len(through) == theta(2, 3)
    for line in through:
        assert span(line, pt) == line
    # in enumerate_subspaces order
    assert through == [s for s in enumerate_subspaces(PG33, 1) if span(s, pt) == s]


def test_points_of_counts_and_order():
    line = line_through(PG24.point((1, 0, 0)), PG24.point((0, 1, 0)))
    assert len(points_of(line)) == 5
    plane = to_subspace(PG33.hyperplane((1, 0, 0, 0)))
    assert len(points_of(plane)) == 13
    pt = PG33.point((1, 2, 0, 1))
    assert points_of(to_subspace(pt)) == [pt]
    # enumeration order inside a subspace agrees with global index order
    for s in enumerate_subspaces(PG32, 2)[:5]:
        idx = [p.index for p in points_of(s)]
        assert idx == sorted(idx)


def test_points_of_empty_subspace_rejected():
    empty = Subspace(PG22, ())
    assert empty.dim == -1
    with pytest.raises(EmptySubspace):
        points_of(empty)


def test_subspace_rejects_non_rref_basis():
    with pytest.raises(ValueError):
        Subspace(PG22, ((1, 1, 0), (1, 0, 0)))  # not reduced
    with pytest.raises(ValueError):
        Subspace(PG23, ((1, 0, 2), (0, 0, 0)))  # a zero row
    with pytest.raises(ValueError):
        Subspace(PG24, ((2, 1, 0),))  # a lead other than 1
    assert Subspace(PG24, ((1, 2, 3),)).dim == 0


def test_subspace_rejects_entries_outside_the_field():
    # a ValueError of its own, not an IndexError from a field table
    for g, basis in [(PG23, ((1, 0, 5),)), (PG23, ((1, 0, -1),)), (PG24, ((1, 0, 4),))]:
        with pytest.raises(ValueError, match="outside"):
            Subspace(g, basis)


@pytest.mark.parametrize("p, h, n, k", [(2, 1, 3, 1), (3, 1, 3, 2), (2, 2, 2, 0), (3, 1, 4, 2)])
def test_subspace_keys_checked_as_one_stack_equal_those_checked_one_by_one(p, h, n, k):
    g = GeometrySpec(make_field(p, h), n)
    keys = enumerate_subspaces(g, k)
    bases = geometry._subspace_bases(g, k).tolist()
    one_by_one = [Subspace(g, tuple(map(tuple, basis))) for basis in bases]
    assert keys == one_by_one
    assert [hash(s) for s in keys] == [hash(s) for s in one_by_one]


def test_subspace_keys_refuse_a_table_with_one_bad_basis():
    g = GeometrySpec(make_field(3), 3)
    bases = geometry._subspace_bases(g, 1).copy()
    unreduced = bases.copy()
    unreduced[7, 1] = unreduced[7, 0]  # both rows now lead in the same column
    with pytest.raises(ValueError, match="reduced row-echelon"):
        geometry._as_subspaces(g, unreduced)
    outside = bases.copy()
    outside[3, 0, -1] = 3
    with pytest.raises(ValueError, match="outside"):
        geometry._as_subspaces(g, outside)
    assert geometry._as_subspaces(g, bases) == enumerate_subspaces(g, 1)


def test_hyperplane_as_subspace_matches_incidence_row():
    for g in (PG23, PG24):
        for hi, h in enumerate(enumerate_hyperplanes(g)):
            s = to_subspace(h)
            assert s.dim == g.n - 1
            idx = [p.index for p in points_of(s)]
            assert idx == hyperplane_point_indices(g)[hi].tolist()


def test_canonical_vectors_are_sorted_and_complete():
    for p, h, length in [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 3)]:
        fld = make_field(p, h)
        vecs = canonical_vectors(fld, length)
        assert vecs.shape == (theta(length - 1, fld.q), length)
        as_tuples = [tuple(int(x) for x in row) for row in vecs]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)


def test_two_points_determine_one_line():
    for g in (PG22, PG23):
        table = line_through_pairs(g)
        pts = enumerate_points(g)
        lines = enumerate_subspaces(g, 1)
        assert (np.diagonal(table) == -1).all()
        for i, j in itertools.combinations(range(len(pts)), 2):
            li = int(table[i, j])
            assert li >= 0
            assert lines[li] == line_through(pts[i], pts[j])


@pytest.mark.parametrize("p,h,n", sorted(set(DEFAULT_GRID) | {(2, 2, 3), (3, 2, 2), (3, 1, 4)}))
def test_subspace_tables_match_the_loop_reference(p, h, n):
    g = GeometrySpec(make_field(p, h), n)
    for k in range(n):
        table, ref = subspace_point_indices(g, k), subspace_point_indices_reference(g, k)
        assert table.dtype == ref.dtype and np.array_equal(table, ref)
    table, ref = line_through_pairs(g), line_through_pairs_reference(g)
    assert table.dtype == ref.dtype and np.array_equal(table, ref)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize(
    "p,h", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 7), (3, 5), (2, 8), (251, 1)]
)
def test_fq_matmul_matches_the_entrywise_reference(monkeypatch, p, h, block):
    if block is not None:
        # many row blocks, the last one short, written through strided views
        monkeypatch.setattr(geometry, "_PRODUCT_ENTRIES", block)
    fld = make_field(p, h)
    q = fld.q
    rng = np.random.default_rng(q)

    def elements(*shape):
        return rng.integers(0, q, size=shape, dtype=np.uint8)

    bases = elements(6, 2, 5)
    top = np.full((2, 2), q - 1, dtype=np.uint8)
    top[0] = 1
    cases = [
        (elements(9, 4), elements(4, 11)),
        # as _spanned_vectors passes them: canonical vectors against a stack of bases
        (canonical_vectors(fld, 2), bases),
        (elements(3, 1, 5, 2), bases),
        # products and running sums at the top element
        (top, top[1:].T),
        # a stack of left operands against one right operand
        (elements(3, 4, 5), elements(5, 6)),
        # no rows, and no columns
        (elements(0, 4), elements(4, 3)),
        (elements(4, 3), elements(3, 0)),
        # every entry q - 1 with inner size 6: at p = 251 the F_p sums reach
        # 6 * 250^2, far past a byte, and at q = 256 every digit is 1
        (np.full((3, 6), q - 1, dtype=np.uint8), np.full((6, 4), q - 1, dtype=np.uint8)),
    ]
    for a, b in cases:
        got, want = fq_matmul(a, b, fld), fq_matmul_reference(a, b, fld)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)


# every PG(n, q) with q <= 256 and at most 10^5 points
_RANK_GEOMETRIES = [
    (p, h, n)
    for p in range(2, 257)
    if is_prime(p)
    for h in range(1, 9)
    if p**h <= 256
    for n in range(2, 17)
    if theta(n, p**h) <= 10**5
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_RANK_GEOMETRIES), st.integers(0, 2**32 - 1))
def test_point_indices_invert_point_array(phn, seed):
    p, h, n = phn
    g = GeometrySpec(make_field(p, h), n)
    pts = point_array(g)
    assert np.array_equal(point_indices(g, pts), np.arange(g.num_points))
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, g.q, size=(64, n + 1))
    lead = rng.integers(0, n + 1, size=64)
    vecs[np.arange(n + 1) < lead[:, None]] = 0
    vecs[np.arange(64), lead] = 1
    assert np.array_equal(pts[point_indices(g, vecs)], vecs)


def test_point_rank_is_exact_up_to_int64_and_refused_beyond():
    # the last point of PG(61,2) and of PG(6,256): q^(n+1) is 2^62 and 2^56
    for g in (GeometrySpec(make_field(2), 61), GeometrySpec(make_field(2, 8), 6)):
        last = g.point((1,) + (g.q - 1,) * g.n)
        assert last.index == theta(g.n, g.q) - 1
    # q^(n+1) = 2^63 and 2^72: int64 would wrap, so the rank is refused
    # before anything of the geometry's size is allocated
    for g in (GeometrySpec(make_field(2), 62), GeometrySpec(make_field(2, 8), 8)):
        pt, hyp = g.point((0,) * g.n + (1,)), g.hyperplane((1,) + (0,) * g.n)
        tracemalloc.start()
        try:
            for obj in (pt, hyp):
                with pytest.raises(DimensionOutOfRange):
                    obj.index
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_line_meets_hyperplane_in_1_or_q_plus_1_points():
    g = PG32
    line_pts = subspace_point_indices(g, 1)
    hyp_pts = hyperplane_point_indices(g)
    for li in range(line_pts.shape[0]):
        for hi in range(hyp_pts.shape[0]):
            common = len(set(line_pts[li].tolist()) & set(hyp_pts[hi].tolist()))
            assert common in (1, g.q + 1)


def test_point_array_is_immutable():
    arr = point_array(PG22)
    with pytest.raises(ValueError):
        arr[0, 0] = 9


def test_coercion_canonicalizes_scalar_multiples():
    p1 = PG23.point((2, 1, 0))  # leading 2 scaled by its inverse
    assert p1.coords == (1, 2, 0)
    with pytest.raises(ValueError):
        PG23.point((0, 0, 0))


def test_num_points_computes_theta_once_per_spec(monkeypatch):
    calls = []
    real_theta = geometry.theta

    def counting_theta(m, q):
        calls.append((m, q))
        return real_theta(m, q)

    monkeypatch.setattr(geometry, "theta", counting_theta)
    g = GeometrySpec(make_field(3), 2)
    assert [g.num_points for _ in range(5)] == [13] * 5
    assert calls == [(2, 3)]
    # a cached value changes neither equality, hash nor repr
    h = GeometrySpec(make_field(3), 2)
    assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    assert h.num_points == 13
    assert calls == [(2, 3), (2, 3)]


# -- collineations -------------------------------------------------------------

_COLLINEATION_GRID = [*DEFAULT_GRID, (3, 1, 4), (2, 2, 4), (3, 2, 3)]


def _image_reference(g: GeometrySpec, coords, j: int) -> tuple:
    """Point coords moved by collineation j, entry by entry on the field
    tables: 0 is the coordinate cycle, 1 + i the transvection x_0 <- x_0 +
    x^i x_1, with x^i the element of index p^i; scaled to a leading 1."""
    fld = g.field
    x = list(coords)
    if j == 0:
        x = x[-1:] + x[:-1]
    else:
        x[0] = int(fld.add_table[x[0], fld.mul_table[fld.p ** (j - 1), x[1]]])
    lead = fld.inv_table[next(c for c in x if c)]
    return tuple(int(fld.mul_table[lead, c]) for c in x)


@pytest.mark.parametrize("params", _COLLINEATION_GRID)
def test_collineations_move_hyperplanes_onto_hyperplanes_and_reach_every_point(params):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    perms = collineations(g)
    assert perms.shape == (h + 1, g.num_points)
    planes = hyperplane_point_indices(g)
    rows = {tuple(row) for row in planes.tolist()}
    for perm in perms:
        assert sorted(perm.tolist()) == list(range(g.num_points))
        assert {tuple(row) for row in np.sort(perm[planes], axis=1).tolist()} == rows
    orbit, frontier = {0}, {0}
    while frontier:
        frontier = {int(perm[i]) for perm in perms for i in frontier} - orbit
        orbit |= frontier
    assert orbit == set(range(g.num_points))


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 3), (2, 2, 2), (2, 3, 2)])
def test_collineations_match_their_coordinate_maps(params):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    index = {pt.coords: i for i, pt in enumerate(enumerate_points(g))}
    expected = [
        [index[_image_reference(g, pt.coords, j)] for pt in enumerate_points(g)]
        for j in range(h + 1)
    ]
    assert collineations(g).tolist() == expected
    # the transvections alone fix every point with x_1 = 0
    fixed = point_array(g)[:, 1] == 0
    assert (collineations(g)[1:, fixed] == np.flatnonzero(fixed)).all()
