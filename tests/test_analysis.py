"""Analysis checks: spectra vs brute force, classification, traces, search."""

import hashlib
import itertools
import json
import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from pgcodes.gf import make_field
from pgcodes.geometry import (
    DimensionOutOfRange,
    GeometryMismatch,
    GeometrySpec,
    collineations,
    enumerate_points,
    enumerate_subspaces,
    global_point_indices,
    hyperplane_point_indices,
    points_of,
    subspace_point_indices,
    to_subspace,
)
from pgcodes import kernels
from pgcodes.code import (
    LengthMismatch,
    all_one_word,
    build_incidence_matrix,
    build_model,
    incidence_vector,
    weight,
    zero_word,
)
from pgcodes.analysis import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DimensionTooLow,
    InconsistentProof,
    InconsistentSpectrum,
    NotInCode,
    QInX,
    TraceKind,
    WordKind,
    classify_subspace_traces,
    classify_word,
    classify_words,
    dual_weight_counts,
    enumerate_spectrum,
    line_profile,
    low_weight_search,
    minimum_weight,
    restrict,
    restriction_model,
    support,
    support_points,
    tangent_collinear_rows,
    tangent_collinearity,
)

from pgcodes.verify import DEFAULT_GRID, run_suite

from helpers import (
    brute_force_hyperplane_words,
    brute_force_spectrum,
    brute_force_words_of_weight,
    classify_subspace_traces_reference,
    rref_mod_p_reference,
    tangent_collinearity_reference,
)

PG22 = GeometrySpec(make_field(2), 2)
PG23 = GeometrySpec(make_field(3), 2)
PG32 = GeometrySpec(make_field(2), 3)
PG24 = GeometrySpec(make_field(2, 2), 2)


def hyperplane_word(g, i):
    return incidence_vector(g, hyperplane_point_indices(g)[i].tolist())


# -- spectrum ----------------------------------------------------------------


def test_spectrum_pg22_distribution():
    report = enumerate_spectrum(build_model(PG22))
    assert report.weight_counts == {0: 1, 3: 7, 4: 7, 7: 1}
    assert report.exhaustive
    assert report.messages == 16


@pytest.mark.parametrize("g", [PG22, PG23, PG32, PG24])
def test_spectrum_matches_bruteforce_oracle(g):
    model = build_model(g)
    report = enumerate_spectrum(model)
    oracle = brute_force_spectrum(model.generator, g.field.p)
    assert report.weight_counts == {w: c for w, c in oracle.items() if c}
    assert sum(report.weight_counts.values()) == g.field.p**model.dimension


def test_spectrum_pg23_known_counts():
    report = enumerate_spectrum(build_model(PG23))
    assert report.weight_counts[4] == 26
    assert 5 not in report.weight_counts
    assert report.weight_counts[6] == 156


def test_spectrum_pg24_known_counts():
    report = enumerate_spectrum(build_model(PG24))
    assert report.weight_counts[5] == 21
    assert 6 not in report.weight_counts
    assert 7 not in report.weight_counts
    assert report.weight_counts[8] == 210


def test_spectrum_pg32_known_counts():
    report = enumerate_spectrum(build_model(PG32))
    assert report.weight_counts == {0: 1, 7: 15, 8: 15, 15: 1}


def test_nonzero_weight_classes_are_scalar_orbit_multiples():
    for g in (PG23, PG24):
        report = enumerate_spectrum(build_model(g))
        for w, c in report.weight_counts.items():
            if w:
                assert c % (g.field.p - 1) == 0


def test_spectrum_collects_exactly_the_low_weight_words():
    model = build_model(PG23)
    report = enumerate_spectrum(model)
    expected = set()
    for w in (4, 5, 6):
        expected |= brute_force_words_of_weight(model.generator, 3, w)
    got = {tuple(int(x) for x in row) for row in report.low_weight}
    assert got == expected
    # deterministic order: sorted by weight then entries
    keys = [(weight(row), row.tobytes()) for row in report.low_weight]
    assert keys == sorted(keys)


@pytest.mark.parametrize("params", DEFAULT_GRID)
def test_macwilliams_dual_counts_hold_on_the_default_grid(params):
    p, h, n = params
    model = build_model(GeometrySpec(make_field(p, h), n))
    for basis, dual in ((model.generator, model.check), (model.hull, None)):
        hist, _ = kernels.spectrum(basis, p, 0)
        counts = dual_weight_counts(hist, p, basis.shape[0])
        if dual is not None and p ** dual.shape[0] <= DEFAULT_BUDGET:
            # the check basis spans the dual code: enumerate it directly
            assert counts == kernels.spectrum(dual, p, 0)[0].tolist()


@pytest.mark.parametrize("g", [PG22, PG23, PG32, PG24])
def test_macwilliams_rejects_a_histogram_with_one_count_moved(g):
    model = build_model(g)
    hist = kernels.spectrum(model.generator, g.field.p, 0)[0]
    low = int(np.flatnonzero(hist[1:])[0]) + 1
    tampered = hist.copy()
    tampered[low] -= 1
    tampered[low + 1] += 1
    with pytest.raises(InconsistentSpectrum):
        dual_weight_counts(tampered, g.field.p, model.dimension)
    with pytest.raises(InconsistentSpectrum):
        dual_weight_counts(hist, g.field.p, model.dimension + 1)


def test_spectrum_and_weight_suites_reject_a_tampered_histogram(monkeypatch):
    sweep = kernels.spectrum

    def tampered(rows, p, collect_limit):
        hist, words = sweep(rows, p, collect_limit)
        low = int(np.flatnonzero(hist[1:])[0]) + 1
        hist[low] -= 1
        hist[low + 1] += 1
        return hist, words

    monkeypatch.setattr(kernels, "spectrum", tampered)
    with pytest.raises(InconsistentSpectrum):
        enumerate_spectrum(build_model(PG23))
    with pytest.raises(InconsistentSpectrum):
        run_suite((2, 2, 2), suites=["minweight"])


def test_spectrum_and_weight_suites_reject_a_sweep_that_drops_a_message(monkeypatch):
    # the histogram then sums to p^k - 1; this must raise under python -O too
    sweep = kernels.spectrum

    def dropping(rows, p, collect_limit):
        hist, words = sweep(rows, p, collect_limit)
        hist[int(np.flatnonzero(hist[1:])[0]) + 1] -= 1
        return hist, words

    monkeypatch.setattr(kernels, "spectrum", dropping)
    with pytest.raises(InconsistentSpectrum):
        enumerate_spectrum(build_model(PG23))
    with pytest.raises(InconsistentSpectrum):
        run_suite((2, 2, 2), suites=["minweight"])


# -- minimum weight from one information set ----------------------------------

# the DEFAULT_GRID hulls, PG(4,3)'s and PG(4,4)'s
_HULL_GRID = [t for t in DEFAULT_GRID if t != (2, 3, 2)] + [(2, 3, 2), (3, 1, 4), (2, 2, 4)]


def _geometry(params):
    p, h, n = params
    return GeometrySpec(make_field(p, h), n)


def _spy_sweeps(patch):
    """The collect limit of every kernel sweep run after this call."""
    sweep = kernels.spectrum
    calls = []

    def spy(rows, p, collect_limit):
        calls.append(collect_limit)
        return sweep(rows, p, collect_limit)

    patch.setattr(kernels, "spectrum", spy)
    return calls


@pytest.mark.parametrize("params", _HULL_GRID)
def test_minimum_weight_equals_the_sweeps_minimum_on_every_hull_basis(monkeypatch, params):
    p = params[0]
    g = _geometry(params)
    model = build_model(g)
    hist = kernels.spectrum(model.hull, p, 0)[0]
    swept = int(np.flatnonzero(hist[1:])[0]) + 1
    group = collineations(g)
    # the proof never sweeps, however small the hull
    sweeps = _spy_sweeps(monkeypatch)
    assert minimum_weight(model.hull, p, group) == swept
    assert minimum_weight(model.hull, p, group, contains_rows=model.hull_contains_rows) == swept
    assert sweeps == []


@lru_cache(maxsize=None)
def _cyclic_factors(p: int, n: int) -> tuple:
    """The monic irreducible factors of x^n - 1 over F_p, with multiplicity,
    as coefficient tuples from the constant term up, by trial division."""
    rest = [p - 1] + [0] * (n - 1) + [1]
    factors = []
    degree = 1
    while len(rest) > 1:
        if 2 * degree > len(rest) - 1:
            # no factor of degree below half its own: rest is irreducible
            return tuple(factors) + (tuple(rest),)
        for low in itertools.product(range(p), repeat=degree):
            f = list(low) + [1]
            while True:
                quotient, remainder = _divide(rest, f, p)
                if any(remainder):
                    break
                factors.append(tuple(f))
                rest = quotient
        degree += 1
    return tuple(factors)


def _divide(a: list, f: list, p: int):
    """(quotient, remainder) of a by the monic f over F_p."""
    a = list(a)
    quotient = [0] * max(1, len(a) - len(f) + 1)
    for i in range(len(a) - len(f), -1, -1):
        c = a[i + len(f) - 1]
        quotient[i] = c
        for j, fj in enumerate(f):
            a[i + j] = (a[i + j] - c * fj) % p
    return quotient, a[: len(f) - 1]


@st.composite
def _cyclic_codes(draw):
    """(p, unreduced generator rows x^i g(x), reduced basis) of a cyclic code
    of length n <= 15 over F_2, F_3 or F_5 whose generator polynomial g
    divides x^n - 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 15))
    factors = _cyclic_factors(p, n)
    g = [1]
    for f in factors:
        if draw(st.booleans()):
            g = [sum(g[i] * f[d - i] for i in range(len(g)) if 0 <= d - i < len(f)) % p
                 for d in range(len(g) + len(f) - 1)]
    k = n - (len(g) - 1)
    assume(p**k <= 2**11)
    rows = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        rows[i, i : i + len(g)] = g
    basis, pivots = rref_mod_p_reference(rows, p)
    return p, rows, basis[: len(pivots)]


@settings(max_examples=150, deadline=None)
@given(_cyclic_codes())
def test_minimum_weight_matches_brute_force_on_small_reduced_bases(case):
    # the bases are those of cyclic codes, whose cyclic shift is a symmetry
    # transitive on the coordinates, as the proof needs
    p, rows, basis = case
    n = rows.shape[1]
    weights = [w for w in brute_force_spectrum(rows, p) if w]
    expected = min(weights) if weights else None
    shift = ((np.arange(n) + 1) % n)[None]
    with pytest.MonkeyPatch.context() as patch:
        sweeps = _spy_sweeps(patch)
        assert minimum_weight(basis, p, shift) == expected
    assert sweeps == []


def test_minimum_weight_of_a_basis_with_no_rows_is_none():
    assert minimum_weight(np.zeros((0, 5), dtype=np.uint8), 3, None) is None
    assert minimum_weight(np.zeros((0, 0), dtype=np.uint8), 2, None) is None


def test_minimum_weight_refuses_an_unreduced_basis():
    with pytest.raises(ValueError, match="reduced basis"):
        minimum_weight(np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8), 2, None)


def _spy_lightest_words(monkeypatch):
    """The (max_weight, message weight, messages) of every level of every
    enumerator minimum_weight runs."""
    enumerate_levels = kernels.lightest_words
    calls = []

    def spy(rows, p, max_weight):
        for t, level in enumerate(enumerate_levels(rows, p, max_weight), start=1):
            calls.append((max_weight, t, level[0]))
            yield level

    monkeypatch.setattr(kernels, "lightest_words", spy)
    return calls


@pytest.mark.parametrize(
    "params, top, messages",
    [((2, 3, 2), 5, 101_583), ((3, 1, 4), 6, 221_173), ((2, 2, 4), 9, 3_850_755)],
)
def test_the_hull_proofs_enumerate_every_message_up_to_their_top_level(
    monkeypatch, params, top, messages
):
    # PG(2,8): k = 27, n = 73, and ceil(6 * 73 / 27) = 17 reaches 16 after
    # t = 5; PG(4,3): k = 15, n = 121, and ceil(7 * 121 / 15) = 57 reaches
    # 54 after t = 6; PG(4,4): k = 25, n = 341, and ceil(10 * 341 / 25) =
    # 137 reaches 128 after t = 9.  One message per scalar orbit of each weight
    p = params[0]
    g = _geometry(params)
    model = build_model(g)
    k = model.hull.shape[0]
    calls = _spy_lightest_words(monkeypatch)
    sweeps = _spy_sweeps(monkeypatch)
    found = minimum_weight(model.hull, p, collineations(g), model.hull_contains_rows)
    assert found == 2 * g.q ** (g.n - 1)
    assert calls == [(top, t, comb(k, t) * (p - 1) ** (t - 1)) for t in range(1, top + 1)]
    assert sum(m for _, _, m in calls) == messages
    assert sweeps == []


# each proof step that fails its check raises InconsistentProof, under python
# -O as well: the symmetries, a weight's message count, the lightest word


def _transposition(n: int, i: int, j: int) -> np.ndarray:
    perm = np.arange(n)
    perm[[i, j]] = j, i
    return perm


@pytest.mark.parametrize("params", [(2, 3, 2), (3, 1, 4)])
def test_minimum_weight_refuses_symmetries_it_cannot_certify(monkeypatch, params):
    p = params[0]
    g = _geometry(params)
    model = build_model(g)
    n = g.num_points
    group = collineations(g)
    sweeps = _spy_sweeps(monkeypatch)
    refused = [
        # the transvections alone fix the points with x_1 = 0
        (group[1:], "reach"),
        # a transposition of two points is no collineation
        (np.vstack([group, _transposition(n, 0, 1)]), "out of the code"),
        (np.vstack([group, np.zeros(n, dtype=np.int64)]), "no permutations"),
        (group[:, :-1], "no permutations"),
    ]
    for perms, message in refused:
        for contains_rows in (None, model.hull_contains_rows):
            with pytest.raises(InconsistentProof, match=message):
                minimum_weight(model.hull, p, perms, contains_rows)
    assert sweeps == []


def test_minimum_weight_refuses_a_weight_that_loses_a_message(monkeypatch):
    combinations = kernels._combinations

    def dropping(rows, p, max_digits=None):
        table = combinations(rows, p, max_digits)
        # row 1 is the first row's unit multiple, a message of weight 1
        return np.delete(table, 1, axis=0) if len(table) > 1 else table

    monkeypatch.setattr(kernels, "_combinations", dropping)
    sweeps = _spy_sweeps(monkeypatch)
    with pytest.raises(InconsistentProof, match="messages of weight 1"):
        minimum_weight(build_model(PG23).hull, 3, collineations(PG23))
    with pytest.raises(InconsistentProof, match="messages of weight 1"):
        run_suite((2, 3, 2), suites=["hull"])
    assert sweeps == []


def test_minimum_weight_refuses_a_lightest_word_that_does_not_rebuild(monkeypatch):
    model = build_model(PG24)
    sweeps = _spy_sweeps(monkeypatch)
    enumerate_levels = kernels.lightest_words

    def lighter(rows, p, max_weight):
        for messages, weight, word in enumerate_levels(rows, p, max_weight):
            yield messages, weight - 1, word

    def outside(rows, p, max_weight):
        for messages, _, word in enumerate_levels(rows, p, max_weight):
            unit = np.zeros_like(word)
            unit[0] = 1
            yield messages, 1, unit

    for tampered in (lighter, outside):
        monkeypatch.setattr(kernels, "lightest_words", tampered)
        with pytest.raises(InconsistentProof, match="lightest word is no codeword"):
            minimum_weight(
                model.hull, 2, collineations(PG24), contains_rows=model.hull_contains_rows
            )
    assert sweeps == []


def test_the_pg43_hull_proof_keeps_its_encodings_small():
    # each weight class is encoded in chunks of about kernels._SPECTRUM_BYTES
    # (512 KiB); encoded whole, PG(4,3)'s largest right half takes 2.3 MB
    g = _geometry((3, 1, 4))
    model = build_model(g)
    group = collineations(g)
    tracemalloc.start()
    try:
        assert minimum_weight(model.hull, 3, group, model.hull_contains_rows) == 54
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_spectrum_budget_gate():
    with pytest.raises(BudgetExceeded):
        enumerate_spectrum(build_model(PG23), budget=100)


def test_spectrum_report_serialization():
    report = enumerate_spectrum(build_model(PG22))
    d = report.to_json_dict()
    assert d["counts"] == {"0": 1, "3": 7, "4": 7, "7": 1}
    assert d["exhaustive"] is True
    assert report.to_csv_rows() == [(0, 1), (3, 7), (4, 7), (7, 1)]


# -- classification ----------------------------------------------------------


def test_classify_zero_word():
    assert classify_word(build_model(PG23), zero_word(PG23)).kind is WordKind.ZERO


def test_classify_word_refuses_entries_that_are_not_whole_numbers():
    # truncated to the zero word, these would classify as ZERO
    with pytest.raises(ValueError, match="whole numbers"):
        classify_word(build_model(PG22), [0.5] * 7)


def test_classify_hyperplane_multiples():
    model = build_model(PG23)
    for i in (0, 5, 12):
        w = hyperplane_word(PG23, i)
        got = classify_word(model, w)
        assert got.kind is WordKind.HYPERPLANE_MULTIPLE
        assert got.scalar == 1
        assert got.h1.index == i
        doubled = ((2 * w.astype(np.int64)) % 3).astype(np.uint8)
        got2 = classify_word(model, doubled)
        assert got2.kind is WordKind.HYPERPLANE_MULTIPLE
        assert got2.scalar == 2
        assert got2.h1.index == i


def test_classify_symmetric_difference_gf2_with_smallest_witness():
    model = build_model(PG22)
    w = (hyperplane_word(PG22, 2) + hyperplane_word(PG22, 5)) % 2
    got = classify_word(model, w.astype(np.uint8))
    assert got.kind is WordKind.HYPERPLANE_DIFFERENCE
    # witness reproduces the word
    rebuilt = (hyperplane_word(PG22, got.h1.index) + hyperplane_word(PG22, got.h2.index)) % 2
    assert np.array_equal(rebuilt, w)
    # smallest pair: no pair (a,b) lexicographically below the witness works
    pairs = [
        (a, b)
        for a in range(7)
        for b in range(a + 1, 7)
        if np.array_equal((hyperplane_word(PG22, a) + hyperplane_word(PG22, b)) % 2, w)
    ]
    assert (got.h1.index, got.h2.index) == min(pairs)


def test_classify_difference_odd_p():
    model = build_model(PG23)
    v1, v2 = hyperplane_word(PG23, 1), hyperplane_word(PG23, 8)
    w = ((2 * (v1.astype(np.int64) - v2.astype(np.int64))) % 3).astype(np.uint8)
    got = classify_word(model, w)
    assert got.kind is WordKind.HYPERPLANE_DIFFERENCE
    a = got.scalar
    rebuilt = (
        a * hyperplane_word(PG23, got.h1.index).astype(np.int64)
        - a * hyperplane_word(PG23, got.h2.index).astype(np.int64)
    ) % 3
    assert np.array_equal(rebuilt.astype(np.uint8), w)


def test_classify_all_one_word_is_other():
    assert classify_word(build_model(PG23), all_one_word(PG23)).kind is WordKind.OTHER


@pytest.mark.parametrize("g", [PG22, PG23, PG24, PG32])
def test_classification_matches_weight_exactly_on_exhaustive_runs(g):
    model = build_model(g)
    report = enumerate_spectrum(model)
    minw = min(w for w in report.weight_counts if w)
    second = 2 * g.q ** (g.n - 1)
    for row in report.low_weight:
        got = classify_word(model, row)
        w = weight(row)
        if w == minw:
            assert got.kind is WordKind.HYPERPLANE_MULTIPLE
        elif w == second:
            assert got.kind is WordKind.HYPERPLANE_DIFFERENCE
        else:
            raise AssertionError(f"unexpected collected weight {w}")


def test_minimum_weight_word_count_formula():
    # scalar multiples of hyperplane vectors: (p-1) * theta_n of them
    for g, expected in [(PG22, 7), (PG23, 26), (PG24, 21), (PG32, 15)]:
        report = enumerate_spectrum(build_model(g))
        minw = min(w for w in report.weight_counts if w)
        assert report.weight_counts[minw] == expected
        assert expected == (g.field.p - 1) * g.num_points


# -- support and restriction -------------------------------------------------


def test_support_of_hyperplane_word():
    w = hyperplane_word(PG23, 4)
    assert support(w).tolist() == hyperplane_point_indices(PG23)[4].tolist()
    pts = support_points(PG23, w)
    assert [p.index for p in pts] == support(w).tolist()


def test_restrict_incidence_vector_is_trace_incidence_vector():
    planes = enumerate_subspaces(PG32, 2)
    x_idx = set(hyperplane_point_indices(PG32)[3].tolist())
    w = incidence_vector(PG32, sorted(x_idx))
    s = planes[7]
    restricted = restrict(w, s)
    s_pts = global_point_indices(s)
    expected = np.array([1 if gp in x_idx else 0 for gp in s_pts], dtype=np.uint8)
    assert np.array_equal(restricted, expected)
    # support identity
    assert set(s_pts[np.nonzero(restricted)[0]].tolist()) == x_idx & set(s_pts.tolist())


def test_restrict_all_one_word():
    s = enumerate_subspaces(PG32, 2)[0]
    assert (restrict(all_one_word(PG32), s) == 1).all()


def test_restriction_closure_exhaustive_pg32():
    model = build_model(PG32)
    report = enumerate_spectrum(model, collect_limit=15)
    planes = enumerate_subspaces(PG32, 2)
    local = restriction_model(planes[0])
    for s in planes:
        for row in report.low_weight:
            assert local.contains(restrict(row, s))
        assert local.contains(restrict(zero_word(PG32), s))


def test_restriction_model_rejects_lines():
    line = enumerate_subspaces(PG32, 1)[0]
    with pytest.raises(DimensionTooLow):
        restriction_model(line)


# -- line profiles -----------------------------------------------------------


def test_line_profile_hyperplane_word():
    prof = line_profile(PG23, hyperplane_word(PG23, 0))
    assert prof.residues == {1: 13}
    assert prof.tangent_lines == 12


def test_line_profile_symmetric_difference_even_residues():
    w = ((hyperplane_word(PG22, 0) + hyperplane_word(PG22, 1)) % 2).astype(np.uint8)
    prof = line_profile(PG22, w)
    assert prof.residues == {0: 7}
    assert prof.tangent_lines == 0


def test_line_profile_zero_word():
    prof = line_profile(PG24, zero_word(PG24))
    assert prof.residues == {0: 21}


def test_small_weight_words_have_unit_line_residues():
    model = build_model(PG23)
    report = enumerate_spectrum(model)
    for row in report.low_weight:
        if 0 < weight(row) < 6:
            prof = line_profile(PG23, row)
            assert set(prof.residues) == {1}


# -- subspace traces ---------------------------------------------------------


def test_traces_of_symmetric_difference_avoid_other():
    x = ((hyperplane_word(PG32, 2) + hyperplane_word(PG32, 9)) % 2).astype(np.uint8)
    x_pts = support(x).tolist()
    for h in (1, 2):
        traces = classify_subspace_traces(PG32, x_pts, h)
        kinds = {t.kind for t in traces.values()}
        assert TraceKind.OTHER not in kinds
        assert TraceKind.HYPERPLANE not in kinds


def test_trace_witnesses_reproduce_the_trace():
    x = ((hyperplane_word(PG32, 2) + hyperplane_word(PG32, 9)) % 2).astype(np.uint8)
    xset = set(support(x).tolist())
    traces = classify_subspace_traces(PG32, sorted(xset), 2)
    checked = 0
    for s, t in traces.items():
        s_pts = set(global_point_indices(s).tolist())
        trace = s_pts & xset
        if t.kind is TraceKind.SYMMETRIC_DIFFERENCE:
            w1 = set(global_point_indices(t.witnesses[0]).tolist())
            w2 = set(global_point_indices(t.witnesses[1]).tolist())
            assert w1 ^ w2 == trace
            checked += 1
        elif t.kind is TraceKind.AFFINE_COMPLEMENT:
            missing = set(global_point_indices(t.witnesses[0]).tolist())
            assert s_pts - missing == trace
            checked += 1
    assert checked > 0


def test_traces_of_single_hyperplane_show_tangent_lines():
    x_pts = hyperplane_point_indices(PG32)[0].tolist()
    traces = classify_subspace_traces(PG32, x_pts, 1)
    kinds = {t.kind for t in traces.values()}
    assert TraceKind.HYPERPLANE in kinds  # tangent lines break the trichotomy


def test_traces_of_empty_set():
    traces = classify_subspace_traces(PG23, [], 1)
    assert all(t.kind is TraceKind.EMPTY for t in traces.values())


def test_traces_dimension_range():
    with pytest.raises(DimensionOutOfRange):
        classify_subspace_traces(PG23, [], 2)
    with pytest.raises(DimensionOutOfRange):
        classify_subspace_traces(PG23, [], 0)


def test_planar_trace_classification_by_secant_size():
    # a line of PG(2,3) traced on all lines: itself (4 points -> Other),
    # tangents (1 point -> HyperplaneOfS); no 2-secants or 3-secants
    x_pts = subspace_point_indices(PG23, 1)[0].tolist()
    traces = classify_subspace_traces(PG23, x_pts, 1)
    by_kind = {}
    for t in traces.values():
        by_kind[t.kind] = by_kind.get(t.kind, 0) + 1
    assert by_kind[TraceKind.OTHER] == 1
    assert by_kind[TraceKind.HYPERPLANE] == 12
    assert TraceKind.SYMMETRIC_DIFFERENCE not in by_kind


TRACE_GEOMETRIES = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4)]


@pytest.mark.parametrize("params", TRACE_GEOMETRIES)
def test_traces_match_the_per_subspace_reference(params):
    # the empty set, a hyperplane, its complement, a symmetric difference,
    # one subspace of each dimension and seeded random sets, on every h;
    # dict order and every TraceClass, witnesses included, must agree
    g = _geometry(params)
    npts = g.num_points
    hyps = [set(row) for row in hyperplane_point_indices(g).tolist()]
    rng = np.random.default_rng(npts)
    sets = [set(), hyps[0], set(range(npts)) - hyps[1], hyps[2] ^ hyps[npts - 1]]
    sets += [set(subspace_point_indices(g, k)[k].tolist()) for k in range(g.n)]
    sets += [set(np.nonzero(rng.random(npts) < f)[0].tolist()) for f in (0.2, 0.5, 0.8)]
    for h in range(1, g.n):
        for x in sets:
            got = classify_subspace_traces(g, sorted(x), h)
            assert list(got.items()) == list(classify_subspace_traces_reference(g, x, h).items())


# -- low-weight search -------------------------------------------------------


def test_search_finds_only_known_words_pg23():
    model = build_model(PG23)
    known = set()
    for w in (4, 5, 6):
        known |= brute_force_words_of_weight(model.generator, 3, w)
    result = low_weight_search(model, max_weight=6, iterations=60, seed=11)
    assert result.words.shape[0] > 0
    for row in result.words:
        assert tuple(int(x) for x in row) in known
        assert classify_word(model, row).kind is not WordKind.OTHER
    # scalar orbits partition the found words
    assert result.words.shape[0] == 2 * result.orbit_representatives.shape[0]


def test_search_is_deterministic_given_seed():
    model = build_model(PG23)
    a = low_weight_search(model, 6, 40, seed=5)
    b = low_weight_search(model, 6, 40, seed=5)
    assert np.array_equal(a.words, b.words)
    assert np.array_equal(a.orbit_representatives, b.orbit_representatives)


def test_search_result_serializes_digit_strings():
    model = build_model(PG23)
    result = low_weight_search(model, 6, 30, seed=2)
    doc = result.to_json_dict()
    assert doc["seed"] == 2 and doc["max_weight"] == 6
    assert len(doc["words"]) == result.words.shape[0]
    for text, row in zip(doc["words"], result.words):
        assert len(text) == 13
        assert [int(c) for c in text] == [int(x) for x in row]
        assert set(text) <= {"0", "1", "2"}


def _one_round_at_a_time(model, max_weight, iterations, seed):
    """The search's found set, one single-round kernels.isd_rounds batch per
    permutation of the generator's columns."""
    g = model.geometry
    p, npts = g.field.p, g.num_points
    rng = np.random.default_rng(seed)
    found = set()
    for _ in range(iterations):
        perm = rng.permutation(npts)
        permuted = np.ascontiguousarray(model.generator[:, perm])
        rows = kernels.isd_rounds(permuted, np.arange(npts)[None], p, max_weight)[0]
        back = np.empty_like(rows)
        back[:, perm] = rows
        for row in back.astype(np.int64):
            for a in range(1, p):
                found.add(tuple(int(x) for x in (a * row) % p))
    return found


@pytest.mark.parametrize("g,max_weight", [(PG23, 6), (PG24, 8)])
def test_search_batches_do_not_change_the_found_set(monkeypatch, g, max_weight):
    model = build_model(g)
    default = low_weight_search(model, max_weight, 40, seed=4)
    # batches of 7 do not divide 40 rounds: the last batch has 5
    monkeypatch.setattr("pgcodes.kernels.isd_batch_size", lambda k, n: 7)
    small = low_weight_search(model, max_weight, 40, seed=4)
    assert np.array_equal(default.words, small.words)
    assert np.array_equal(default.orbit_representatives, small.orbit_representatives)
    assert {tuple(int(x) for x in w) for w in small.words} == _one_round_at_a_time(
        model, max_weight, 40, 4
    )
    keys = [(int(np.count_nonzero(w)), w.tobytes()) for w in small.words]
    assert keys == sorted(keys)


# sha256 of the sorted-key JSON of low_weight_search results: the first
# three captured from the one-round-at-a-time search before rounds were
# batched, the others from the batched search while it still scored every
# multiple c of every row pair over all n columns
SEARCH_DIGESTS = [
    ((5, 1, 2), 300, 11, "29f4f9e221f862b37f52ffe2c952e4202e61e3f200e87655fbee6bfbfb91aee8"),
    ((7, 1, 2), 300, 12, "67a81b51811b298c20332ac07de9a4c1007f71fee04b98ec547b3ac26a7e1d8f"),
    ((2, 3, 2), 300, 13, "d40b93d63dc778d09f29cdc90ce2c841d26bb8086bc01062291ed4d92008509f"),
    ((3, 1, 3), 1000, 14, "271a5ede7fba0abebf0f48c6c610807451c223c8b80e38bd64894c85f1cd8e68"),
    ((3, 2, 2), 600, 15, "561cf65567816e9d6be231006cc768fefd67bde85162bd4c2ac3e2a678733a1c"),
    ((5, 1, 3), 500, 16, "87410730f0e221feb7354652c33bb12dbdfc9e3b39f19a780fd7aff43c7b8772"),
    ((11, 1, 2), 150, 17, "c69f73a6eaa948894b871c0bfc2ee9da2bedb283d73c357c3c73908c4600c0db"),
]


@pytest.mark.parametrize("params,rounds,seed,digest", SEARCH_DIGESTS)
def test_search_results_match_pinned_digests(params, rounds, seed, digest):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    result = low_weight_search(build_model(g), 2 * g.q ** (n - 1), rounds, seed)
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_batch_of_permutations_is_one_draw_per_round():
    # low_weight_search draws each batch with one rng.permuted call: the
    # permutations and the generator state after them must be those of one
    # rng.permutation per round, and the stream itself must not drift
    for n, rounds in [(7, 3), (73, 128), (31, 528), (1, 2)]:
        batched, single = np.random.default_rng(2026), np.random.default_rng(2026)
        perms = batched.permuted(np.tile(np.arange(n), (rounds, 1)), axis=1)
        assert np.array_equal(perms, [single.permutation(n) for _ in range(rounds)])
        assert batched.integers(1000) == single.integers(1000)
    rng = np.random.default_rng(2026)
    assert rng.permuted(np.tile(np.arange(7), (3, 1)), axis=1).tolist() == [
        [0, 3, 5, 1, 6, 4, 2],
        [3, 1, 2, 6, 5, 4, 0],
        [3, 0, 4, 6, 1, 5, 2],
    ]
    assert rng.integers(1000) == 282


def test_search_edge_cases():
    model = build_model(PG22)
    empty = low_weight_search(model, 0, 5, seed=0)
    assert empty.words.shape == (0, 7)
    with pytest.raises(ValueError):
        low_weight_search(model, 3, 0, seed=0)
    with pytest.raises(ValueError):
        low_weight_search(model, -1, 5, seed=0)


# -- array classification against the brute-force oracle ---------------------


def _geometry(params):
    p, h, n = params
    return GeometrySpec(make_field(p, h), n)


def _check_classify_words(model, words):
    """classify_words agrees with the oracle and, row by row, classify_word;
    one-entry perturbations of the words are Other."""
    g = model.geometry
    p, npts = g.field.p, g.num_points
    oracle = brute_force_hyperplane_words(build_incidence_matrix(g), p)
    perturbed = words.copy()
    rows = np.arange(words.shape[0])
    cols = (7 * rows) % npts
    perturbed[rows, cols] = (perturbed[rows, cols] + 1) % p
    batch = np.concatenate([words, perturbed, np.zeros((1, npts), dtype=np.uint8)])
    classes = classify_words(model, batch)
    assert len(classes) == batch.shape[0]
    assert classes.of_kind(WordKind.OTHER)[words.shape[0] : -1].all()
    for i, row in enumerate(batch):
        got = classes[i]
        assert got == classify_word(model, row)
        key = tuple(int(x) for x in row)
        default = ("Zero" if not any(key) else "Other", None, None, None)
        kind, scalar, h1, h2 = oracle.get(key, default)
        assert got.kind.value == kind
        assert got.scalar == scalar
        assert (got.h1.index if got.h1 is not None else None) == h1
        assert (got.h2.index if got.h2 is not None else None) == h2


@pytest.mark.parametrize("params", [t for t in DEFAULT_GRID if t != (2, 3, 2)])
def test_classify_words_matches_oracle_on_exhaustive_words(params):
    model = build_model(_geometry(params))
    words = enumerate_spectrum(model).low_weight
    assert words.shape[0] > 0
    _check_classify_words(model, words)


@pytest.mark.parametrize("params", [t for t in DEFAULT_GRID if t != (2, 3, 2)])
def test_low_words_lead_the_words_of_a_sweep_that_collects_all(params):
    # a run that checks bbw takes its low words from the one sweep that
    # collects every word; _sort_words puts them first
    g = _geometry(params)
    model = build_model(g)
    low = enumerate_spectrum(model).low_weight
    every = enumerate_spectrum(model, collect_limit=g.num_points).low_weight
    assert len(every) > len(low) > 0
    assert np.array_equal(every[: len(low)], low)


@pytest.mark.parametrize("params,seed", [((7, 1, 2), 21), ((2, 3, 2), 22)])
def test_classify_words_matches_oracle_on_search_words(params, seed):
    g = _geometry(params)
    model = build_model(g)
    words = low_weight_search(model, 2 * g.q ** (g.n - 1), 100, seed).words
    assert words.shape[0] > 0
    _check_classify_words(model, words)


def _oracle_columns(oracle, words):
    """The oracle's (kind value, scalar, h1, h2) of each row as arrays, with
    0 and -1 where a kind carries no such witness."""
    rows = [oracle.get(w, ("Other", 0, -1, -1)) for w in map(tuple, words.tolist())]
    kinds, scalars, h1, h2 = zip(*rows)
    h2 = [-1 if h is None else h for h in h2]
    return np.array(kinds), np.array(scalars), np.array(h1), np.array(h2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_difference_witnesses_are_anchored_at_the_first_support_point(p):
    # every difference a(v^H1 - v^H2) has the value a at its first support
    # point, which lies in H1; flipping that value's sign leaves no
    # difference, and swapping H1 and H2 at the same scalar negates the
    # word, which keeps the order (H1, H2) with the scalar p - a
    g = GeometrySpec(make_field(p), 2)
    model = build_model(g)
    inc = build_incidence_matrix(g).astype(np.int64)
    oracle = brute_force_hyperplane_words(inc, p)
    diffs = [(w, *rest) for w, (kind, *rest) in oracle.items() if kind == "HyperplaneDifference"]
    words = np.array([d[0] for d in diffs], dtype=np.uint8)
    a, h1, h2 = (np.array(col) for col in zip(*(d[1:] for d in diffs)))
    assert (h1 < h2).any() and (h1 > h2).any()
    rows = np.arange(words.shape[0])
    first = (words != 0).argmax(axis=1)
    flipped = words.copy()
    flipped[rows, first] = p - words[rows, first]
    swapped = ((a[:, None] * (inc[h2] - inc[h1])) % p).astype(np.uint8)
    for batch, expected in [
        (words, ("HyperplaneDifference", a, h1, h2)),
        (flipped, ("Other", 0, -1, -1)),
        (swapped, ("HyperplaneDifference", p - a, h1, h2)),
    ]:
        classes = classify_words(model, batch)
        got = np.empty(batch.shape[0], dtype=object)
        for kind in WordKind:
            got[classes.of_kind(kind)] = kind.value
        kinds, scalars, o1, o2 = _oracle_columns(oracle, batch)
        assert (got == kinds).all() and (kinds == expected[0]).all()
        for column, want, pinned in zip(
            (classes.scalars, classes.h1, classes.h2), (scalars, o1, o2), expected[1:]
        ):
            assert np.array_equal(column, want)
            assert np.array_equal(column, np.broadcast_to(pinned, column.shape))


def test_classify_words_counts_and_validation():
    model = build_model(PG23)
    words = np.stack([zero_word(PG23), hyperplane_word(PG23, 0), all_one_word(PG23)])
    classes = classify_words(model, words)
    assert classes.counts() == {"Zero": 1, "HyperplaneMultiple": 1, "Other": 1}
    assert len(classify_words(model, np.zeros((0, 13), dtype=np.uint8))) == 0
    with pytest.raises(ValueError):
        classify_words(model, np.full((1, 13), 3))
    with pytest.raises(ValueError):
        classify_words(model, np.zeros(13, dtype=np.uint8))


# -- tangent collinearity ----------------------------------------------------


def test_tangent_points_of_a_line_lie_on_it():
    line = enumerate_subspaces(PG23, 1)[3]
    x = subspace_point_indices(PG23, 1)[3].tolist()
    external = [p.index for p in enumerate_points(PG23) if p.index not in x]
    for qi in external:
        ok, witness = tangent_collinearity(build_model(PG23), x, qi)
        assert ok
        assert witness == line


def test_tangent_collinearity_exhaustive_pg22():
    model = build_model(PG22)
    report = enumerate_spectrum(model, collect_limit=7)
    for row in report.low_weight:
        x = support(row).tolist()
        for q in range(7):
            if q in x:
                continue
            ok, witness = tangent_collinearity(model, x, q)
            assert ok
            if weight(row) == 4:
                assert witness is None  # no tangents through interior points


def test_tangent_collinearity_errors():
    model = build_model(PG23)
    x = subspace_point_indices(PG23, 1)[0].tolist()
    with pytest.raises(QInX):
        tangent_collinearity(model, x, x[0])
    with pytest.raises(NotInCode):
        tangent_collinearity(model, [0, 1], 5)
    with pytest.raises(DimensionOutOfRange):
        tangent_collinearity(build_model(PG32), [0], 1)


def test_point_arguments_outside_the_geometry_are_refused():
    # -1 must not stand for the last point: with X a line through point 12
    # of PG(2,3), Q = -1 would be a point of X and still get an answer
    model = build_model(PG23)
    last = PG23.num_points - 1
    x = next(row for row in subspace_point_indices(PG23, 1).tolist() if last in row)
    for bad in (-1, PG23.num_points):
        with pytest.raises(GeometryMismatch):
            tangent_collinearity(model, x, bad)
        with pytest.raises(GeometryMismatch):
            tangent_collinearity(model, [bad], 0)
        with pytest.raises(GeometryMismatch):
            classify_subspace_traces(PG23, [bad], 1)


@pytest.mark.parametrize("g", [PG22, PG23, PG24])
def test_tangent_collinear_rows_matches_the_scalar_reference(g):
    # every 0/1 codeword (these always pass) and random 0/1 sets outside the
    # code (which reach the False branch), against every point Q
    model = build_model(g)
    words = enumerate_spectrum(model, collect_limit=g.num_points).low_weight
    codewords = np.concatenate([zero_word(g)[None], words[words.max(axis=1) <= 1]]) != 0
    rng = np.random.default_rng(g.num_points)
    noise = rng.random((300, g.num_points)) < 0.4
    noise = noise[~model.contains_rows(noise.astype(np.uint8))]
    sets = np.concatenate([codewords, noise])
    lines = [set(row) for row in subspace_point_indices(g, 1).tolist()]
    expected = [
        [
            bool(row[qi]) or tangent_collinearity_reference(lines, np.nonzero(row)[0].tolist(), qi)
            for qi in range(g.num_points)
        ]
        for row in sets
    ]
    ok = tangent_collinear_rows(g, sets)
    assert ok.tolist() == expected
    assert ok[: len(codewords)].all()
    assert not ok[len(codewords) :].all()
    assert tangent_collinear_rows(g, sets[:0]).shape == (0, g.num_points)


@pytest.mark.parametrize("bad", [0.5, 2])
def test_tangent_collinear_rows_refuses_mask_entries_other_than_0_and_1(bad):
    # cast to bool, either entry would be taken as a member of the set
    sets = np.zeros((2, PG23.num_points))
    sets[:, subspace_point_indices(PG23, 1)[0]] = 1
    ints = sets.astype(np.uint8)
    sets[1, np.flatnonzero(sets[1] == 0)[0]] = bad
    with pytest.raises(ValueError):
        tangent_collinear_rows(PG23, sets)
    assert tangent_collinear_rows(PG23, ints).tolist() == tangent_collinear_rows(PG23, ints != 0).tolist()


def test_point_set_arguments_read_a_boolean_mask_as_its_points():
    model = build_model(PG23)
    line = subspace_point_indices(PG23, 1)[4].tolist()
    mask = np.zeros(PG23.num_points, dtype=bool)
    mask[line] = True
    outside = next(i for i in range(PG23.num_points) if i not in line)
    assert tangent_collinearity(model, mask, outside) == tangent_collinearity(model, line, outside)
    with pytest.raises(QInX):
        tangent_collinearity(model, mask, line[0])
    assert classify_subspace_traces(PG23, mask, 1) == classify_subspace_traces(PG23, line + line, 1)
    with pytest.raises(LengthMismatch):
        classify_subspace_traces(PG23, mask[:-1], 1)


def test_tangent_collinear_rows_rejects_bad_input():
    with pytest.raises(DimensionOutOfRange):
        tangent_collinear_rows(PG32, np.zeros((1, PG32.num_points), dtype=bool))
    with pytest.raises(LengthMismatch):
        tangent_collinear_rows(PG23, np.zeros((1, 12), dtype=bool))
    with pytest.raises(LengthMismatch):
        tangent_collinear_rows(PG23, np.zeros(13, dtype=bool))
