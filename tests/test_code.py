"""Code construction checks: incidence matrix, rank, bases, membership."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes import code, geometry, kernels
from pgcodes.gf import make_field
from pgcodes.verify import DEFAULT_GRID
from pgcodes.geometry import (
    GeometryMismatch,
    GeometrySpec,
    enumerate_hyperplanes,
    enumerate_points,
    enumerate_subspaces,
    hyperplane_point_indices,
    points_of,
    theta,
    to_subspace,
)
from pgcodes.code import (
    CodeModel,
    LengthMismatch,
    all_one_word,
    as_word,
    build_incidence_matrix,
    build_model,
    check_basis,
    expected_dimension,
    hull_basis,
    incidence_vector,
    inner_product,
    p_rank,
    rref_mod_p,
    weight,
    zero_word,
)

from helpers import (
    check_basis_reference,
    hull_basis_reference,
    python_rank_mod_p,
    rref_mod_p_reference,
)

PG22 = GeometrySpec(make_field(2), 2)
PG23 = GeometrySpec(make_field(3), 2)
PG32 = GeometrySpec(make_field(2), 3)
PG24 = GeometrySpec(make_field(2, 2), 2)


@pytest.mark.parametrize(
    "g,row_weight",
    [(PG22, 3), (PG32, 7), (PG23, 4), (PG24, 5)],
)
def test_incidence_matrix_shape_and_weights(g, row_weight):
    mat = build_incidence_matrix(g)
    assert mat.shape == (g.num_points, g.num_points)
    assert (mat.sum(axis=1) == row_weight).all()
    assert (mat.sum(axis=0) == row_weight).all()
    assert np.array_equal(mat, mat.T)
    assert row_weight == theta(g.n - 1, g.q)


@pytest.mark.parametrize(
    "g,expected",
    [(PG22, 4), (PG23, 7), (PG24, 10), (PG32, 5)],
)
def test_p_rank_matches_oracle_and_formula(g, expected):
    mat = build_incidence_matrix(g)
    p = g.field.p
    assert p_rank(mat, p) == expected
    assert python_rank_mod_p(mat.tolist(), p) == expected
    assert expected_dimension(g) == expected


def test_rref_pivots_and_idempotence():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        mat = rng.integers(0, p, size=(8, 12))
        reduced, pivots = rref_mod_p(mat, p)
        assert pivots == sorted(pivots)
        assert len(pivots) == python_rank_mod_p(mat.tolist(), p)
        again, pivots2 = rref_mod_p(reduced, p)
        assert np.array_equal(again, reduced)
        assert pivots2 == pivots
        for r, c in enumerate(pivots):
            col = reduced[:, c]
            assert col[r] == 1 and np.count_nonzero(col) == 1


def _reference_cases(p):
    """Random matrices for the eliminator oracle: (name, integer matrix)."""
    rng = np.random.default_rng(p)
    low_rank = rng.integers(0, p, size=(9, 3)) @ rng.integers(0, p, size=(3, 14))
    wide = rng.integers(0, p, size=(5, 17))
    repeated = np.hstack([wide[:, :4], wide[:, 2:3], wide[:, 4:]])
    return [
        ("rank-deficient", low_rank),
        ("tall", rng.integers(0, p, size=(15, 6))),
        ("wide", wide),
        ("square", rng.integers(0, p, size=(12, 12))),
        ("all-zero", np.zeros((4, 7), dtype=np.int64)),
        ("no rows", np.zeros((0, 5), dtype=np.int64)),
        ("unreduced entries", rng.integers(-3 * p, 3 * p, size=(7, 11))),
        ("unreduced uint8", rng.integers(0, 256, size=(7, 11), dtype=np.uint8)),
        ("repeated column", repeated),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131])
def test_rref_mod_p_matches_reference_loop(p):
    for name, mat in _reference_cases(p):
        reduced, pivots = rref_mod_p(mat, p)
        expected, expected_pivots = rref_mod_p_reference(mat, p)
        assert reduced.dtype == np.uint8, name
        assert np.array_equal(reduced, expected), name
        assert pivots == expected_pivots, name
        assert all(isinstance(c, int) for c in pivots), name
        assert len(pivots) == python_rank_mod_p(mat.tolist(), p), name


def _blocked_cases(p):
    """Random matrices of 30 rows that span many small row blocks."""
    rng = np.random.default_rng(1000 + p)
    low_rank = rng.integers(0, p, size=(30, 4)) @ rng.integers(0, p, size=(4, 20))
    # blocks that reduce to nothing: repeats and multiples of earlier rows,
    # and zero rows among them
    repeats = rng.integers(0, p, size=(6, 20))
    repeats = np.concatenate([repeats, 2 * repeats[::-1], np.zeros((6, 20), dtype=np.int64), repeats])
    return [
        ("rank-deficient", low_rank),
        ("full-rank", rng.integers(0, p, size=(30, 20))),
        ("full row rank", rng.integers(0, p, size=(12, 20))),
        ("repeats", repeats),
        ("all-zero", np.zeros((30, 20), dtype=np.int64)),
        ("no rows", np.zeros((0, 20), dtype=np.int64)),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 17, 251])
def test_rref_mod_p_in_many_row_blocks_matches_one_block_and_the_reference(p, monkeypatch):
    # 17 and 251 take the eliminator's uint16 rows
    passes = []
    systematize = code._systematize

    def counting(gens, p):
        passes.append(gens.shape[1])
        return systematize(gens, p)

    monkeypatch.setattr(code, "_systematize", counting)
    for name, mat in _blocked_cases(p):
        expected, expected_pivots = rref_mod_p_reference(mat, p)
        passes.clear()
        one, one_pivots = rref_mod_p(mat, p)
        assert len(passes) == (1 if len(mat) else 0), name
        assert np.array_equal(one, expected) and one_pivots == expected_pivots, name
        for size in (1, 8, 64):
            passes.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "BLOCK_BYTES", size)
                reduced, pivots = rref_mod_p(mat, p)
            assert reduced.dtype == np.uint8, name
            assert np.array_equal(reduced, one), (name, size)
            assert pivots == one_pivots, (name, size)
            if name != "all-zero":
                # past the first pivot, only blocks with rows the basis does
                # not yet span are eliminated
                assert len(passes) <= len(pivots), (name, size)
            if size == 1 and name == "full-rank":
                assert len(passes) == len(pivots) == 20


def test_a_flipped_incidence_entry_in_the_last_row_block_is_caught(monkeypatch):
    # PG(3,9) reaches its rank, 101, long before its 820th row, so every
    # block must still be reduced: a row moved off the code in the last
    # block raises the rank to 102
    g = GeometrySpec(make_field(3, 2), 3)
    npts = g.num_points
    blocks = kernels.row_blocks(npts, npts)
    assert len(blocks) == 3
    tampered = build_incidence_matrix(g).copy()
    row = npts - 1
    assert blocks[-1].start <= row
    tampered[row, 0] = (tampered[row, 0] + 1) % 3
    monkeypatch.setattr(code, "build_incidence_matrix", lambda geometry: tampered)
    with pytest.raises(code.DimensionMismatch, match="p-rank 102"):
        CodeModel(g)


@st.composite
def _generators(draw):
    """(p, RREF'd generator, the matrix it came from) with zero and repeated
    columns, from rank 0 up to as many rows as columns."""
    p = draw(st.sampled_from([2, 3, 5, 7, 131]))
    ncols = draw(st.integers(1, 12))
    nrows = draw(st.integers(0, ncols + 2))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=nrows * ncols, max_size=nrows * ncols))
    mat = np.array(entries, dtype=np.int64).reshape(nrows, ncols)
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        mat[:, c] = 0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, ncols - 1), st.integers(0, ncols - 1)), max_size=3)):
        mat[:, dst] = mat[:, src]
    reduced, pivots = rref_mod_p_reference(mat, p)
    return p, reduced[: len(pivots)], mat


def _assert_check_basis(gen, p, source=None):
    expected, expected_pivots = check_basis_reference(gen, p)
    for mat in (gen, gen if source is None else source):
        basis, pivots = check_basis(mat, p)
        assert basis.dtype == np.uint8
        assert basis.shape == (gen.shape[1] - gen.shape[0], gen.shape[1])
        assert np.array_equal(basis, expected)
        assert pivots == expected_pivots
        assert all(isinstance(c, int) for c in pivots)
        assert not ((gen.astype(np.int64) @ basis.T.astype(np.int64)) % p).any()


@settings(max_examples=200, deadline=None)
@given(_generators())
def test_check_basis_matches_the_two_step_reference(case):
    p, gen, source = case
    # the same kernel from the generator and from the matrix it reduces
    _assert_check_basis(gen, p, source)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131])
def test_check_basis_edge_cases(p):
    # rank 0: the check basis is the identity
    _assert_check_basis(np.zeros((0, 6), dtype=np.uint8), p, np.zeros((3, 6), dtype=np.int64))
    assert np.array_equal(check_basis(np.zeros((0, 6), dtype=np.uint8), p)[0], np.eye(6))
    # k = theta: the check basis is empty
    _assert_check_basis(np.eye(5, dtype=np.uint8), p)
    assert check_basis(np.eye(5, dtype=np.uint8), p)[0].shape == (0, 5)
    # one column, zero and not
    _assert_check_basis(np.zeros((0, 1), dtype=np.uint8), p)
    _assert_check_basis(np.ones((1, 1), dtype=np.uint8), p)
    # every column a repeat of the first: the kernel has pivots 0..n-2
    _assert_check_basis(np.ones((1, 7), dtype=np.uint8), p)
    assert check_basis(np.ones((1, 7), dtype=np.uint8), p)[1] == list(range(6))


def _assert_hull_basis(gen, p):
    pivots = rref_mod_p_reference(gen, p)[1]
    expected, expected_pivots = hull_basis_reference(gen, p)
    hull, hull_pivots = hull_basis(gen, tuple(pivots), p)
    assert hull.dtype == np.uint8
    assert np.array_equal(hull, expected)
    assert hull_pivots == expected_pivots
    assert all(isinstance(c, int) for c in hull_pivots)
    # the rows lie in the code and in its dual
    wide = gen.astype(np.int64)
    assert not ((wide @ hull.T.astype(np.int64)) % p).any()
    assert python_rank_mod_p(np.vstack([gen, hull]).tolist(), p) == gen.shape[0]
    return hull, hull_pivots


@settings(max_examples=200, deadline=None)
@given(_generators())
def test_hull_basis_matches_the_eliminating_reference(case):
    p, gen, _ = case
    _assert_hull_basis(gen, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131])
def test_hull_basis_edge_cases(p):
    # self-orthogonal: the Gram matrix is 0, so the hull is the code itself
    # (two rows of weight p on disjoint supports)
    gen = np.kron(np.eye(2, dtype=np.uint8), np.ones((1, p), dtype=np.uint8))
    hull, pivots = _assert_hull_basis(gen, p)
    assert np.array_equal(hull, gen) and pivots == [0, p]
    # an invertible Gram matrix: the hull is 0
    hull, pivots = _assert_hull_basis(np.eye(3, 5, dtype=np.uint8), p)
    assert hull.shape == (0, 5) and pivots == []
    # k = 0
    hull, pivots = _assert_hull_basis(np.zeros((0, 4), dtype=np.uint8), p)
    assert hull.shape == (0, 4) and pivots == []


@pytest.mark.parametrize("p", [2, 3, 251])
@pytest.mark.parametrize("limit", [2**24 - 1, 2**24, 255, 256])
def test_product_mod_p_is_exact_at_the_float32_limit(p, limit):
    # all-(p-1) operands with inner * (p-1)^2 at 2^24 - 1 (the last float32
    # product) or 2^24 (the first float64 one), and at 255 (the last sums
    # reduced in a byte) or 256 (the first in uint16); the inner size is
    # rounded so that the sums stay on the side of the switch that the
    # limit names
    switch = 2**24 if limit > 256 else 256
    square = (p - 1) ** 2
    inner = limit // square if limit < switch else -(-limit // square)
    assert (inner * square < switch) == (limit < switch)
    # one row and one column keep the p = 2 operands near 300 MB at float64
    a = np.full((1, inner), p - 1, dtype=np.uint8)
    b = np.full((inner, 1), p - 1, dtype=np.uint8)
    got = kernels._product_mod_p(a, b, p)
    assert got.dtype == np.uint8
    assert got.tolist() == [[inner * square % p]]
    if inner:  # at limit 255, p = 251 has inner size 0 and no entry to lower
        # one entry lower by one: the sum moves by p - 1
        a[0, 0] = p - 2
        assert kernels._product_mod_p(a, b, p).tolist() == [[(inner * square - (p - 1)) % p]]


def _model_digest(model):
    h = hashlib.sha256()
    for arr in (model.generator, model.check, model.hull):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())
    return h.hexdigest()


# sha256 over the shapes and bytes of the generator, check and hull bases
# for every DEFAULT_GRID triple and PG(3,8), PG(3,9), PG(2,16),
# captured from the full-matrix int64 elimination before the batched one
# replaced it; PG(2,32) and PG(3,16) were captured from the nullspace-then-RREF
# check basis before check_basis replaced it
MODEL_DIGESTS = {
    (2, 1, 2): "cd28c74a71b64ca58bdca143aee63cbb5a86ebf749931e4fb9454da01409739e",
    (3, 1, 2): "cff45983ae7d754fe390bb9bdbe4300fb3540c6de08524fc340bd17d12a02c63",
    (2, 2, 2): "6a2eda081769e88521ce063677f3697089ffec08faff26bb992fff39360a8bf1",
    (2, 3, 2): "466bdc41a8731231ff7154c3876276bb336b514e172669dd13e6fe463cacb47f",
    (2, 1, 3): "eec6866e645a21bca4f9be2f5f4f8bddb93dd5e98a22259cb41c10c2cd0b695c",
    (3, 1, 3): "b3111e8c9d7f4bc9eefc0033e8cfe46f17e350bd525ffb3bcd91e811f1a3c892",
    (2, 2, 3): "fb84e2f7819cbcce6eb04b96ad57a893eb30b983afc59e82ba7c08e994517434",
    (2, 1, 4): "52fb6ba97e242a1e0ab3edca8776b6fdda1e4ac5ade6be78a89b9aa10c1bb82d",
    (2, 3, 3): "9a9462a22115a3acc4c87b13acc812a160a4af8d8bfead78248a89f6e6039bba",
    (3, 2, 3): "ff68887e58ad4353d900aa105298259d22b7a5d0a526406ee7058c36b88ed595",
    (2, 4, 2): "1d874cd0e6e52f8dccee7ddba55b408c9d05fe729d4167d22ca22face244e935",
    (2, 5, 2): "a3b14b29bbb418de323ae8dcb5425e3e4e700c11d2f59798c58d28cc6f53bd1f",
    (2, 4, 3): "7d93bd89f39e1f1d27c4e518fc474ba5ec4a159ffff7aec6814656c8b1de1bbb",
}


@pytest.mark.parametrize("params", list(MODEL_DIGESTS))
def test_model_bases_match_pinned_digests(params):
    p, h, n = params
    assert _model_digest(CodeModel(GeometrySpec(make_field(p, h), n))) == MODEL_DIGESTS[params]


@pytest.mark.parametrize("params", [(2, 2, 2), (3, 1, 3), (3, 2, 3)])
def test_model_build_eliminates_the_incidence_matrix_and_small_matrices(params, monkeypatch):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    incidence = build_incidence_matrix(g)
    rref = code.rref_mod_p
    calls = []

    def counting_rref(mat, p):
        calls.append(np.array(mat))
        return rref(mat, p)

    monkeypatch.setattr(code, "rref_mod_p", counting_rref)
    model = CodeModel(g)
    # incidence, then the reversed Gram matrix; the hull rows are already
    # reduced, and membership needs no check basis
    assert len(calls) == 2
    assert np.array_equal(calls[0], incidence)
    gram = (model.generator.astype(np.int64) @ model.generator.T.astype(np.int64)) % p
    assert np.array_equal(calls[1], gram[:, ::-1])
    assert model.contains_rows(incidence).all() and model.hull_contains_rows(model.hull).all()
    assert len(calls) == 2
    # the first access to the check basis reduces the reversed generator
    # once, and later ones reuse it
    check, check_pivots = model.check, model.check_pivots
    assert len(calls) == 3
    assert np.array_equal(calls[2], model.generator[:, ::-1])
    assert model.check is check and model.check_pivots is check_pivots
    assert len(calls) == 3
    assert not check.flags.writeable
    with pytest.raises(AttributeError):
        model.check = check
    with pytest.raises(AttributeError):
        model.check_pivots = check_pivots


def test_rref_of_the_incidence_matrix_makes_no_wide_copy():
    g = GeometrySpec(make_field(3, 2), 3)
    mat = build_incidence_matrix(g)
    rref_mod_p(mat[:2], 3)  # fills the inverse table outside the trace
    tracemalloc.start()
    try:
        reduced, pivots = rref_mod_p(mat, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pivots) == expected_dimension(g)
    # the uint8 input, the working copy and the result: two int64 copies
    # of the input were 16 theta^2 bytes
    assert peak <= 6 * g.num_points**2


def test_rank_nullity_over_the_code():
    for g in (PG22, PG23, PG24):
        model = build_model(g)
        assert model.dimension + model.check.shape[0] == g.num_points


def test_incidence_vector_examples():
    assert np.array_equal(incidence_vector(PG23, []), zero_word(PG23))
    hyp = to_subspace(enumerate_hyperplanes(PG23)[0])
    w = incidence_vector(PG23, points_of(hyp))
    assert weight(w) == 4
    j = incidence_vector(PG23, enumerate_points(PG23))
    assert np.array_equal(j, all_one_word(PG23))


def test_incidence_vector_rejects_indices_outside_the_geometry():
    # -1 would otherwise set the last point and theta_n raise a bare IndexError
    for bad in (-1, PG23.num_points):
        with pytest.raises(GeometryMismatch):
            incidence_vector(PG23, [0, bad])


def test_generator_rows_and_j_are_codewords():
    for g in (PG22, PG23, PG24):
        model = build_model(g)
        mat = build_incidence_matrix(g)
        for row in mat:
            assert model.contains(row)
        # column sums are theta_{n-1} = 1 mod p, so the rows sum to j
        p = g.field.p
        assert ((mat.sum(axis=0) % p) == 1).all()
        assert model.contains(all_one_word(g))


def test_low_weight_words_are_not_codewords():
    model = build_model(PG22)
    for i in range(7):
        w = zero_word(PG22)
        w[i] = 1
        assert not model.contains(w)


def test_dual_membership_examples():
    model = build_model(PG23)
    lines = enumerate_subspaces(PG23, 1)
    v1 = incidence_vector(PG23, points_of(lines[0]))
    v2 = incidence_vector(PG23, points_of(lines[5]))
    diff = (v1.astype(np.int64) - v2.astype(np.int64)) % 3
    assert model.dual_contains(diff.astype(np.uint8))
    assert model.dual_contains(zero_word(PG23))
    assert not model.dual_contains(v1)


def test_hull_membership_examples():
    model = build_model(PG23)
    hyps = hyperplane_point_indices(PG23)
    v1 = incidence_vector(PG23, hyps[0].tolist())
    v2 = incidence_vector(PG23, hyps[3].tolist())
    diff = ((v1.astype(np.int64) - v2.astype(np.int64)) % 3).astype(np.uint8)
    assert model.hull_contains(diff)
    assert not model.hull_contains(v1)
    assert model.hull_contains(zero_word(PG23))


@pytest.mark.parametrize("g", [PG22, PG23, PG24, PG32])
def test_hull_contains_rows_matches_code_and_dual_membership(g):
    model = build_model(g)
    p = g.field.p
    rng = np.random.default_rng(g.num_points)
    msgs = rng.integers(0, p, size=(20, model.dimension))
    codewords = (msgs @ model.generator.astype(np.int64)) % p
    noise = rng.integers(0, p, size=(20, g.num_points))
    words = np.concatenate([codewords, noise, model.hull, build_incidence_matrix(g)])
    words = words.astype(np.uint8)
    expected = [model.contains(w) and model.dual_contains(w) for w in words]
    assert model.hull_contains_rows(words).tolist() == expected
    assert [model.hull_contains(w) for w in words] == expected
    assert model.hull_contains_rows(np.zeros((0, g.num_points), dtype=np.uint8)).shape == (0,)
    with pytest.raises(LengthMismatch):
        model.hull_contains_rows(words[:, 1:])


@pytest.mark.parametrize(
    "g", [PG22, PG23, GeometrySpec(make_field(5), 2), GeometrySpec(make_field(7), 2)]
)
def test_contains_rows_matches_contains_and_a_rank_oracle(g, monkeypatch):
    model = build_model(g)
    p, npts = g.field.p, g.num_points
    rng = np.random.default_rng(p)
    msgs = rng.integers(0, p, size=(20, model.dimension))
    codewords = (msgs @ model.generator.astype(np.int64)) % p
    noise = rng.integers(0, p, size=(20, npts))
    # the minimum distance is theta_{n-1} > 1, so one changed entry leaves the code
    moved = codewords.copy()
    moved[np.arange(20), rng.integers(npts, size=20)] += rng.integers(1, p, size=20)
    words = np.concatenate([codewords, noise, moved % p, build_incidence_matrix(g)])
    words = words.astype(np.uint8)
    inside = model.contains_rows(words)
    assert inside.tolist() == [model.contains(w) for w in words]
    assert inside[:20].all() and not inside[40:60].any() and inside[60:].all()
    for w, expected in list(zip(words, inside))[::4]:
        rank = python_rank_mod_p(np.vstack([model.generator, w]), p)
        assert (rank == model.dimension) == expected
    # blocks of three rows give the same answers
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 4 * npts * 3)
    assert model.contains_rows(words).tolist() == inside.tolist()
    assert model.contains_rows(np.zeros((0, npts), dtype=np.uint8)).shape == (0,)
    with pytest.raises(LengthMismatch):
        model.contains_rows(words[:, 1:])
    with pytest.raises(ValueError):
        model.contains_rows(np.full((1, npts), p))


@pytest.mark.parametrize(
    "params", [*DEFAULT_GRID, (5, 1, 2), (7, 1, 2), (3, 2, 3)], ids=lambda t: "PG({2},{0}^{1})".format(*t)
)
def test_generator_membership_matches_the_check_basis_rule(params):
    # a word lies in the code iff the check rows annihilate it, and in the
    # hull iff the generator rows do as well
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    model = CodeModel(g)
    rng = np.random.default_rng(n * 100 + p ** h)
    npts = g.num_points
    codewords = rng.integers(0, p, size=(30, model.dimension)) @ model.generator.astype(np.int64)
    hull_words = rng.integers(0, p, size=(30, model.hull_dimension)) @ model.hull.astype(np.int64)
    moved = codewords.copy()
    moved[np.arange(30), rng.integers(npts, size=30)] += rng.integers(1, p, size=30)
    noise = rng.integers(0, p, size=(30, npts))
    words = np.concatenate([codewords, hull_words, moved, noise, np.zeros((1, npts), dtype=np.int64)])
    words = (words % p).astype(np.uint8)
    wide = words.astype(np.int64)
    in_code = ~((wide @ model.check.T.astype(np.int64)) % p).any(axis=1)
    in_dual = ~((wide @ model.generator.T.astype(np.int64)) % p).any(axis=1)
    assert in_code[:60].all() and not in_code[60:90].any() and in_code[-1]
    assert in_dual[30:60].all()
    assert model.contains_rows(words).tolist() == in_code.tolist()
    assert model.hull_contains_rows(words).tolist() == (in_code & in_dual).tolist()
    # the generator test is also minimum_weight's default one
    assert code.in_row_space(words, model.generator, model.generator_pivots, p).tolist() == in_code.tolist()


@pytest.mark.parametrize("g", [PG22, PG23, PG24, PG32])
def test_hull_basis_lies_in_both_code_and_dual(g):
    model = build_model(g)
    for row in model.hull:
        assert model.contains(row)
        assert model.dual_contains(row)
    # generator and check bases really are orthogonal
    p = g.field.p
    prod = (model.generator.astype(np.int64) @ model.check.T.astype(np.int64)) % p
    assert not prod.any()


@pytest.mark.parametrize("g", [PG22, PG23, PG24, PG32])
def test_hull_dimension_is_one_below_code_dimension(g):
    # (c, v^H) is the same nonzero constant for every generator row, so the
    # orthogonality functional has rank exactly 1 on the code
    model = build_model(g)
    assert model.hull_dimension == model.dimension - 1


def test_inner_product_examples():
    hyp = hyperplane_point_indices(PG23)[2].tolist()
    v = incidence_vector(PG23, hyp)
    assert inner_product(all_one_word(PG23), v, 3) == 1
    assert inner_product(v, v, 3) == 1
    assert inner_product(v, zero_word(PG23), 3) == 0
    with pytest.raises(LengthMismatch):
        inner_product(v, np.zeros(5, dtype=np.uint8), 3)


def test_inner_product_refuses_entries_that_are_not_whole_numbers():
    # truncated, [0.5, 1] . [2, 1] would read 0 * 2 + 1 * 1 = 1 mod 3
    with pytest.raises(ValueError, match="whole numbers"):
        inner_product(np.array([0.5, 1]), np.array([2, 1]), 3)
    with pytest.raises(ValueError, match="whole numbers"):
        inner_product([2, 1], [0.5, 1], 3)
    assert inner_product(np.array([2.0, 1.0]), [2, 1], 3) == 2


def test_incidence_vector_reads_a_boolean_mask_as_its_points():
    mask = np.zeros(PG23.num_points, dtype=bool)
    mask[[4, 9, 12]] = True
    # read as indices, the mask would be the point set {0, 1}
    assert np.flatnonzero(incidence_vector(PG23, mask)).tolist() == [4, 9, 12]
    assert incidence_vector(PG23, mask).dtype == np.uint8
    assert incidence_vector(PG23, [12, 4, 9, 4]).tolist() == incidence_vector(PG23, mask).tolist()
    with pytest.raises(LengthMismatch):
        incidence_vector(PG23, mask[:-1])
    assert code.LengthMismatch is geometry.LengthMismatch
    assert issubclass(LengthMismatch, GeometryMismatch)


def test_as_word_validation():
    with pytest.raises(LengthMismatch):
        as_word(PG22, [1, 0, 1])
    with pytest.raises(ValueError):
        as_word(PG22, [2] + [0] * 6)
    w = as_word(PG22, [1, 0, 0, 0, 0, 0, 1])
    assert w.dtype == np.uint8


# each would be truncated to a word of the code: the zero word, or one it
# contains
@pytest.mark.parametrize(
    "check",
    [
        lambda model: as_word(model.geometry, [0.5] * 7),
        lambda model: model.contains([0.5] * 7),
        lambda model: model.hull_contains([0.9] * 7),
        lambda model: model.dual_contains([1.5] + [0] * 6),
        lambda model: as_word(model.geometry, [np.nan] * 7),
    ],
    ids=["as_word", "contains", "hull_contains", "dual_contains", "nan"],
)
def test_as_word_refuses_entries_that_are_not_whole_numbers(check):
    with pytest.raises(ValueError, match="whole numbers"):
        check(build_model(PG22))


def test_as_words_refuses_entries_that_are_not_whole_numbers():
    model = build_model(PG22)
    words = np.zeros((2, 7))
    words[1, 3] = 0.25
    with pytest.raises(ValueError, match="whole numbers"):
        code.as_words(PG22, words)
    with pytest.raises(ValueError, match="whole numbers"):
        model.contains_rows(words)
    # whole numbers of any dtype, and booleans, pass as before
    words[1, 3] = 1.0
    assert code.as_words(PG22, words).tolist() == code.as_words(PG22, words.astype(bool)).tolist()


def test_scalar_product_with_subspace_vectors_is_constant_per_word():
    # sampled form of the constancy property; the verify suite is exhaustive.
    # The constant depends on the codeword: incidence rows and j give 1,
    # hull members give 0, and RREF generator rows may be either.
    model = build_model(PG32)
    sample = [incidence_vector(PG32, points_of(s)) for k in (1, 2) for s in enumerate_subspaces(PG32, k)[::7]]
    mat = build_incidence_matrix(PG32)
    for w in list(model.generator) + [mat[4], all_one_word(PG32)]:
        values = {inner_product(w, v, 2) for v in sample}
        assert len(values) == 1
    for v in sample:
        assert inner_product(mat[4], v, 2) == 1
        assert inner_product(all_one_word(PG32), v, 2) == 1


def test_build_model_is_cached():
    assert build_model(PG22) is build_model(PG22)
    assert isinstance(build_model(PG22), CodeModel)
