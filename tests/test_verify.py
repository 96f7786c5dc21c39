"""Suite orchestration, report schema, rendering, reproducibility."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgcodes import analysis, blocking, code, geometry, kernels, verify
from pgcodes.analysis import (
    InconsistentSpectrum,
    NotInCode,
    WordKind,
    enumerate_spectrum,
    line_profile,
)
from pgcodes.blocking import PointSet, is_k_blocking, is_minimal
from pgcodes.code import CodeModel, build_incidence_matrix, build_model, expected_dimension
from pgcodes.geometry import (
    GeometrySpec,
    collineations,
    enumerate_subspaces,
    global_point_indices,
    hyperplane_point_indices,
    theta,
)
from pgcodes.gf import make_field
from pgcodes.verify import (
    DEFAULT_GRID,
    REPORT_SCHEMA,
    SUITES,
    InfeasibleParams,
    UnknownFormat,
    UnknownSuite,
    emit_report,
    run_suite,
)
from pgcodes.cli import build_parser
from helpers import reduce_to_minimal_reference


def test_suite_names_and_grid_are_frozen():
    assert SUITES == (
        "dimension",
        "minweight",
        "gap",
        "second",
        "hull",
        "properties",
        "restriction",
        "bbw",
        "blocking",
    )
    assert DEFAULT_GRID == (
        (2, 1, 2),
        (3, 1, 2),
        (2, 2, 2),
        (2, 3, 2),
        (2, 1, 3),
        (3, 1, 3),
        (2, 2, 3),
        (2, 1, 4),
    )


def test_full_suite_fano_plane():
    r = run_suite((2, 1, 2))
    assert r.mode == "exhaustive"
    assert r.passed
    assert [c.name for c in r.checks] == list(SUITES)
    assert all(c.status == "pass" for c in r.checks)
    assert r.code == {"dimension": 4, "expected_dimension": 4}
    assert r.spectrum["counts"] == {"0": 1, "3": 7, "4": 7, "7": 1}
    jsonschema.validate(r.to_json_dict(), REPORT_SCHEMA)
    assert set(r.timing) == set(SUITES)
    assert "timing" not in r.to_json_dict()


def test_full_suite_pg32_statuses(monkeypatch):
    monkeypatch.setattr(verify, "RESTRICTION_SAMPLES", 200)
    r = run_suite((2, 1, 3))
    by_name = {c.name: c.status for c in r.checks}
    assert by_name["bbw"] == "skipped"  # planar statement only
    del by_name["bbw"]
    assert set(by_name.values()) == {"pass"}
    assert r.check("minweight").details["minimum_weight"] == 7
    assert r.check("hull").details == {
        "hull_dimension": 4,
        "hull_minimum_weight": 8,
        "expected": 8,
        "messages": 16,
    }
    assert r.check("restriction").details["pairs_checked"] == 200


def test_forced_search_mode_downgrades_weight_suites():
    r = run_suite((3, 1, 2), mode="search", search_iterations=300)
    assert r.mode == "search"
    by_name = {c.name: c.status for c in r.checks}
    assert by_name["minweight"] == "evidence-only"
    assert by_name["gap"] == "evidence-only"
    assert by_name["second"] == "evidence-only"
    assert by_name["dimension"] == "pass"
    assert by_name["properties"] == "pass"
    assert by_name["blocking"] == "pass"
    assert by_name["bbw"] == "skipped"  # needs the exhaustive word list
    assert r.spectrum is None
    assert "spectrum" not in r.to_json_dict()
    jsonschema.validate(r.to_json_dict(), REPORT_SCHEMA)
    mw = r.check("minweight").details
    assert mw["expected"] == 4
    assert mw["found_minimum_weight"] == 4  # generator rows guarantee hits
    assert set(mw["found_weights"]) <= {4, 6}


def test_evidence_only_never_appears_in_exhaustive_mode():
    r = run_suite((3, 1, 2))
    assert r.mode == "exhaustive"
    assert all(c.status != "evidence-only" for c in r.checks)
    assert all(c.status == "pass" for c in r.checks)  # bbw applies: n = 2


def test_exhaustive_beyond_budget_is_infeasible():
    with pytest.raises(InfeasibleParams):
        run_suite((5, 1, 2), mode="exhaustive")
    # the same params resolve to search under auto
    r = run_suite((5, 1, 2), suites=["dimension"], mode="auto")
    assert r.mode == "search"


def test_unknown_suite_and_mode_rejected():
    with pytest.raises(UnknownSuite):
        run_suite((2, 1, 2), suites=["dimension", "nope"])
    with pytest.raises(ValueError):
        run_suite((2, 1, 2), mode="fast")


@pytest.mark.parametrize("params", [(2, 1, 2.5), (2.9, 1, 2), (2, 1.5, 2)])
def test_run_suite_refuses_params_that_are_not_whole_numbers(params):
    # truncated, each of these would run PG(2,2) and pass
    with pytest.raises(ValueError, match="whole numbers"):
        run_suite(params, ["dimension"])


def test_run_suite_reads_whole_numbers_of_any_type():
    want = emit_report(run_suite((2, 1, 2), ["dimension"]))
    assert emit_report(run_suite([2.0, np.int64(1), np.uint8(2)], ["dimension"])) == want


def test_search_rounds_have_one_default():
    default = inspect.signature(run_suite).parameters["search_iterations"].default
    assert default == verify.DEFAULT_SEARCH_ITERATIONS == 100_000
    args = build_parser().parse_args(["verify", "--p", "2", "--n", "2", "--all"])
    assert args.iterations == verify.DEFAULT_SEARCH_ITERATIONS


def _clear_caches():
    # the cached tables and models are built again, through the chunked paths
    for module in (geometry, code, analysis, blocking):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# the chunked paths of every run; a search batch holds four PG(2,8) rounds
# at 8 KiB, and each is scored alone
_CHUNKED = {"fq_matmul", "_annihilated_rows", "classify_words", "_small_word_faults", "_blocks"}


@pytest.mark.parametrize(
    "params,kwargs,size,paths",
    [
        ((2, 2, 2), {}, 1 << 9, _CHUNKED | {"tangent_collinear_rows"}),
        ((3, 1, 3), {}, 1 << 9, _CHUNKED),
        (
            (2, 3, 2),
            {"mode": "search", "search_iterations": 36},
            1 << 13,
            _CHUNKED | {"low_weight_search", "isd_rounds"},
        ),
    ],
    ids=["PG(2,4)", "PG(3,3)", "PG(2,8)-search"],
)
def test_one_block_size_reaches_every_chunked_path(monkeypatch, params, kwargs, size, paths):
    default = emit_report(run_suite(params, seed=2, **kwargs))
    cuts = {}
    row_blocks, product_blocks = kernels.row_blocks, kernels._blocks

    def counting(rows, row_bytes):
        blocks = row_blocks(rows, row_bytes)
        caller = sys._getframe(1).f_code.co_name
        cuts[caller] = max(cuts.get(caller, 0), len(blocks))
        return blocks

    def counting_products(*args):
        blocks = list(product_blocks(*args))
        cuts["_blocks"] = max(cuts.get("_blocks", 0), len(blocks))
        yield from blocks

    for module in (kernels, code, geometry, analysis, verify):
        if hasattr(module, "row_blocks"):
            monkeypatch.setattr(module, "row_blocks", counting)
    monkeypatch.setattr(kernels, "_blocks", counting_products)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", size)
    _clear_caches()
    try:
        small = emit_report(run_suite(params, seed=2, **kwargs))
    finally:
        _clear_caches()
    assert small == default
    assert {path for path, most in cuts.items() if most > 1} >= paths


@pytest.mark.parametrize("row", [0, -1])
def test_properties_reads_differences_in_dual_off_the_incidence_rows(monkeypatch, row):
    # one tampered incidence row, the first or the last, must show in
    # differences_in_dual: a single point's word pairs to 1 with the lines
    # through it and to 0 with the others
    g = GeometrySpec(make_field(3), 2)
    model = build_model(g)
    honest = verify._run_properties(g, model, np.random.default_rng(0))
    assert honest.status == "pass"
    tampered = build_incidence_matrix(g).copy()
    tampered[row] = 0
    tampered[row, 0] = 1
    monkeypatch.setattr(verify, "build_incidence_matrix", lambda geometry: tampered)
    details = verify._run_properties(g, model, np.random.default_rng(0)).details
    assert details["differences_in_dual"] is False
    assert details["pairing_constant"] is False
    assert details["sample_words"] == honest.details["sample_words"]


def test_suite_subset_runs_in_canonical_order():
    r = run_suite((3, 1, 2), suites=["hull", "dimension"])
    assert [c.name for c in r.checks] == ["dimension", "hull"]
    assert r.spectrum is None  # no weight suite selected, no enumeration done
    jsonschema.validate(r.to_json_dict(), REPORT_SCHEMA)
    with pytest.raises(KeyError):
        r.check("minweight")


def test_skip_gates_for_hull_and_bbw_budgets(monkeypatch):
    r = run_suite((2, 2, 2), suites=["hull"], hull_budget=8)
    assert r.check("hull").status == "skipped"
    monkeypatch.setattr(verify, "BBW_BUDGET", 16)
    r = run_suite((2, 2, 2), suites=["bbw"])
    assert r.check("bbw").status == "skipped"


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2)])
def test_bbw_refuses_a_sweep_with_a_tampered_histogram(monkeypatch, params):
    # only a sweep that collects every word is tampered with: the run's one
    # sweep, which bbw reads, so its MacWilliams check must raise (a raise,
    # which python -O keeps)
    sweep = kernels.spectrum

    def tampered(rows, p, collect_limit):
        hist, words = sweep(rows, p, collect_limit)
        if collect_limit == rows.shape[1]:
            low = int(np.flatnonzero(hist[1:])[0]) + 1
            hist[low] -= 1
            hist[low + 1] += 1
        return hist, words

    monkeypatch.setattr(kernels, "spectrum", tampered)
    with pytest.raises(InconsistentSpectrum):
        run_suite(params, suites=["bbw"])


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2)])
def test_bbw_witnesses_do_not_depend_on_kernel_word_order(monkeypatch, params):
    # every (word, external point) pair fails, so the witnesses list every
    # incidence word in the order the suite visits them
    monkeypatch.setattr(
        verify, "tangent_collinear_rows", lambda g, inside: np.zeros(inside.shape, dtype=bool)
    )
    expected = run_suite(params, suites=["bbw"]).check("bbw")
    assert expected.status == "fail" and len(expected.witnesses) > 1
    sweep = kernels.spectrum

    def reversed_words(*args):
        hist, words = sweep(*args)
        return hist, words[::-1]

    monkeypatch.setattr(kernels, "spectrum", reversed_words)
    assert run_suite(params, suites=["bbw"]).check("bbw") == expected


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2)])
def test_bbw_witnesses_list_pairs_word_by_word(monkeypatch, params):
    # with every pair failing, the witnesses run word by word and, within a
    # word, through its external points in ascending order
    monkeypatch.setattr(
        verify, "tangent_collinear_rows", lambda g, inside: np.zeros(inside.shape, dtype=bool)
    )
    check = run_suite(params, suites=["bbw"]).check("bbw")
    words = []
    for witness in check.witnesses:
        if not words or words[-1] != witness["word"]:
            words.append(witness["word"])
    assert len({json.dumps(w) for w in words}) == len(words)
    nested = [
        {"word": w, "external_point": q} for w in words for q, x in enumerate(w["digits"]) if not x
    ]
    assert check.witnesses == nested
    assert len(nested) == check.details["pairs_checked"]


def test_bbw_rejects_a_sweep_word_outside_the_code(monkeypatch):
    sweep = kernels.spectrum

    def with_a_stray_word(*args):
        hist, words = sweep(*args)
        stray = np.zeros((1, words.shape[1]), dtype=words.dtype)
        stray[0, 0] = 1
        return hist, np.concatenate([words, stray])

    monkeypatch.setattr(kernels, "spectrum", with_a_stray_word)
    with pytest.raises(NotInCode):
        run_suite((2, 1, 2), suites=["bbw"])


@pytest.mark.parametrize("params", [(2, 1, 3), (3, 1, 3), (2, 1, 4)])
def test_restriction_witnesses_follow_the_draw_sequence(monkeypatch, params):
    # every local membership fails, so the witnesses list every sampled
    # (subspace, word) pair in draw order; the draws are replayed here from
    # Subspace objects in enumerate_subspaces order
    monkeypatch.setattr(
        CodeModel, "contains_rows", lambda self, words: np.zeros(len(words), dtype=bool)
    )
    seed, samples = 3, 40
    monkeypatch.setattr(verify, "RESTRICTION_SAMPLES", samples)
    report = run_suite(params, ["minweight", "restriction"], seed=seed)
    check = report.check("restriction")
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    rng = verify._suite_rng(seed, "restriction")
    randoms = verify._random_codewords(model, rng, 64)
    words = [np.ones(g.num_points, dtype=np.uint8), *model.generator]
    words += list(enumerate_spectrum(model).low_weight)
    words += [(row % p).astype(np.uint8) for row in randoms]
    pool = [s for k in range(2, n) for s in enumerate_subspaces(g, k)]
    expected = []
    for _ in range(samples):
        s = pool[int(rng.integers(len(pool)))]
        w = words[int(rng.integers(len(words)))]
        expected.append(
            {
                "word": {"weight": int(np.count_nonzero(w)), "digits": w.tolist()},
                "subspace": {"dimension": s.dim, "points": global_point_indices(s).tolist()},
            }
        )
    assert check.status == "fail"
    assert check.details == {
        "pairs_checked": samples,
        "subspace_pool": len(pool),
        "word_pool": len(words),
    }
    assert check.witnesses == expected
    assert {w["subspace"]["dimension"] for w in expected} == set(range(2, n))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 2**24),
    st.integers(1, 2**24),
    st.integers(0, 200),
)
def test_restriction_draws_replay_the_scalar_loop(seed, pool, words, samples):
    # the suite draws its (subspace, word) pairs in one call; with both
    # bounds below 2^32 that is the stream of alternating scalar calls, and
    # the generator ends in the same state
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ours.integers([pool, words], size=(samples, 2))
    want = [[int(theirs.integers(pool)), int(theirs.integers(words))] for _ in range(samples)]
    assert got.tolist() == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def _scalar_small_word_fault(g, row) -> bool:
    """The blocking suite's small-word statement, one PointSet at a time."""
    constant = len(set(row[np.nonzero(row)[0]].tolist())) == 1
    s = PointSet.from_word(g, row)
    blocking_ok = is_k_blocking(s, g.n - 1) and is_minimal(s, g.n - 1)
    residues_ok = set(line_profile(g, row).residues) == {1}
    return not (constant and blocking_ok and residues_ok)


@pytest.mark.parametrize("params", [(3, 1, 2), (3, 1, 3)])
def test_blocking_witnesses_list_bad_small_words_in_word_order(monkeypatch, params):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    hyperplane = hyperplane_point_indices(g)[2]
    extra = next(i for i in range(g.num_points) if i not in hyperplane)
    non_minimal = np.zeros(g.num_points, dtype=np.uint8)
    non_minimal[hyperplane] = 1
    non_minimal[extra] = 1  # constant, but extra is on no tangent line
    single = np.zeros(g.num_points, dtype=np.uint8)
    single[extra] = 1  # blocks no line through another point
    spectrum = enumerate_spectrum

    def tampered(model, **kwargs):
        report = spectrum(model, **kwargs)
        words = list(report.low_weight)
        non_constant = words[3].copy()
        at = np.nonzero(non_constant)[0][1]
        non_constant[at] = p - non_constant[at]
        words[5:5] = [non_constant]
        return dataclasses.replace(
            report, low_weight=np.array([non_minimal, *words, single], dtype=np.uint8)
        )

    monkeypatch.setattr(verify, "enumerate_spectrum", tampered)
    check = run_suite(params, ["blocking"]).check("blocking")
    low = tampered(build_model(g)).low_weight
    weights = np.count_nonzero(low, axis=1)
    small = low[(weights > 0) & (weights < 2 * g.q ** (n - 1))]
    bad = [r for r in small if _scalar_small_word_fault(g, r)]
    assert [r.tolist() for r in bad] == [non_minimal.tolist(), low[6].tolist(), single.tolist()]
    assert check.status == "fail"
    assert check.details["small_words_checked"] == (p - 1) * g.num_points + 3
    assert check.witnesses == [
        {"weight": int(np.count_nonzero(r)), "digits": r.tolist()} for r in bad
    ]


@pytest.mark.parametrize("params", [(3, 1, 2), (2, 1, 3)])
def test_blocking_lists_a_forced_reduction_disagreement(monkeypatch, params):
    # the fifth reduction, trial 1's first random order, returns its input
    # unreduced; the draws are replayed with the one-point-at-a-time oracle
    seed, trials, orders, wrong = 4, 4, 3, 4
    reduce_mask_orders = blocking.reduce_mask_orders
    calls = []

    def one_wrong(g, mask, orders, rng):
        out = reduce_mask_orders(g, mask, orders, rng)
        if len(calls) == wrong // orders:
            out[wrong % orders] = mask.copy()
        calls.append(len(out))
        return out

    monkeypatch.setattr(verify, "reduce_mask_orders", one_wrong)
    monkeypatch.setattr(verify, "BLOCKING_TRIALS", trials)
    monkeypatch.setattr(verify, "BLOCKING_ORDERS", orders)
    check = run_suite(params, ["blocking"], seed=seed).check("blocking")
    assert len(calls) == trials and sum(calls) == trials * orders
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    rng = verify._suite_rng(seed, "blocking")
    hyp_rows = hyperplane_point_indices(g)
    expected = []
    for trial in range(trials):
        h_idx = int(rng.integers(g.num_points))
        base = set(hyp_rows[h_idx].tolist())
        off = [i for i in range(g.num_points) if i not in base]
        n_extra = int(rng.integers(1, min(g.q ** (n - 1) - 1, len(off)) + 1))
        pick = rng.choice(len(off), size=n_extra, replace=False)
        superset = sorted(base | {off[i] for i in pick})
        results = {PointSet(g, reduce_to_minimal_reference(g, superset, n - 1))}
        for order in range(1, orders):
            reduced = reduce_to_minimal_reference(g, superset, n - 1, rng)
            wrong_call = trial * orders + order == wrong
            results.add(PointSet(g, superset if wrong_call else reduced))
        if results != {PointSet(g, base)}:
            expected.append(
                {
                    "superset": superset,
                    "hyperplane": h_idx,
                    "results": [list(r.indices) for r in results],
                }
            )
    assert len(expected) == 1 and len(expected[0]["results"]) == 2
    assert check.status == "fail"
    assert check.witnesses == expected


def _one_reduce_mask_per_order(g, mask, orders, rng):
    """The reductions of one superset as separate reduce_mask calls, each
    starting from scratch: the deterministic order, then orders - 1 random
    ones drawing from rng."""
    results = [blocking.reduce_mask(g, mask)]
    return results + [blocking.reduce_mask(g, mask, rng=rng) for _ in range(orders - 1)]


_EXHAUSTIVE_GRID = [params for params in DEFAULT_GRID if params != (2, 3, 2)]


@pytest.mark.parametrize("params", _EXHAUSTIVE_GRID)
@pytest.mark.parametrize("seed, orders", [(0, 3), (7, 3), (11, 2)])
def test_blocking_suite_matches_one_reduction_per_order(monkeypatch, params, seed, orders):
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    spectrum = enumerate_spectrum(model)
    low = verify._LowWords(model, spectrum.low_weight, spectrum.weight_counts)
    shared_rng = verify._suite_rng(seed, "blocking")
    shared = verify._run_blocking(g, low, shared_rng, 20, orders)
    monkeypatch.setattr(verify, "reduce_mask_orders", _one_reduce_mask_per_order)
    replay_rng = verify._suite_rng(seed, "blocking")
    replay = verify._run_blocking(g, low, replay_rng, 20, orders)
    assert shared == replay
    assert shared_rng.bit_generator.state == replay_rng.bit_generator.state


def _spy_sweeps(monkeypatch, model):
    """The (basis is the generator, collect limit) of every kernel sweep."""
    sweep = kernels.spectrum
    calls = []

    def spy(rows, p, collect_limit):
        calls.append((np.array_equal(rows, model.generator), collect_limit))
        return sweep(rows, p, collect_limit)

    monkeypatch.setattr(kernels, "spectrum", spy)
    return calls


@pytest.mark.parametrize("params", _EXHAUSTIVE_GRID)
def test_an_exhaustive_run_sweeps_the_generator_once(monkeypatch, params):
    # the spectrum, the weight suites and bbw share one generator sweep, which
    # collects every word only for a planar bbw within its budget; the hull
    # suite proves its minimum and sweeps nothing
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    low, messages = 2 * g.q ** (n - 1), p**model.dimension
    low_words = len(enumerate_spectrum(model).low_weight)
    classify_words = verify.classify_words
    classified = []

    def counting(model, words):
        classified.append(len(words))
        return classify_words(model, words)

    monkeypatch.setattr(verify, "classify_words", counting)
    calls = _spy_sweeps(monkeypatch, model)
    run_suite(params)
    assert calls == [(True, g.num_points if n == 2 else low)]
    # the weight suites classify the low words only, not every word bbw reads
    assert classified == [low_words]
    if n == 2:
        calls.clear()
        monkeypatch.setattr(verify, "BBW_BUDGET", messages - 1)
        run_suite(params)
        assert calls == [(True, low)]
        calls.clear()
        monkeypatch.setattr(verify, "BBW_BUDGET", messages)
        assert run_suite(params, ["bbw"]).check("bbw").status == "pass"
        assert calls == [(True, g.num_points)]


@pytest.mark.parametrize("params", _EXHAUSTIVE_GRID + [(3, 1, 4), (2, 3, 2), (2, 2, 4)])
def test_the_hull_suite_sweeps_only_where_the_sweep_is_cheap(monkeypatch, params):
    # the hull suite sweeps no hull, however small: every hull here,
    # PG(4,3)'s, PG(2,8)'s and PG(4,4)'s too, is proved under the
    # collineations, built once
    p, h, n = params
    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    calls = _spy_sweeps(monkeypatch, model)
    builds = []

    def spy(geometry):
        builds.append(geometry)
        return collineations(geometry)

    monkeypatch.setattr(verify, "collineations", spy)
    report = run_suite(params, suites=["hull"])
    assert report.check("hull").status == "pass"
    assert calls == []
    assert builds == [g]


def test_the_hull_proof_adds_no_option():
    # run_suite takes what `pgcodes verify` takes, minimum_weight takes the
    # code's symmetries (not a setting), and reduce_mask's warning names its
    # caller
    assert list(inspect.signature(run_suite).parameters) == [
        "params", "suites", "budget", "hull_budget", "seed", "mode", "search_iterations",
    ]
    assert list(inspect.signature(analysis.minimum_weight).parameters) == [
        "basis", "p", "symmetries", "contains_rows",
    ]
    assert list(inspect.signature(blocking.reduce_mask).parameters) == ["g", "mask", "k", "rng"]
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in commands.choices["verify"]._actions for o in a.option_strings}
    assert options == {
        "--all", "--budget", "--format", "--h", "--help", "--hull-budget", "--iterations",
        "--mode", "--n", "--out", "--p", "--seed", "--suites", "-h",
    }


# sha256 of the json, table and csv reports of the hull suite alone, each
# captured while its hull was still swept: every hull is proved under the
# collineations now, and PG(2,5)'s stays skipped by hull_budget
PINNED_HULL_REPORTS = {
    ((2, 1, 2), 0): (
        "8a3ff9481bd1fb8ee73dab22ca234c5f1ff0214f341c3c1b81462db84adb94db",
        "59a06f3d1074b8b7135b2eb3ae76d629b91623374d09f4dbe6a9c67f8cade57f",
    ),
    ((2, 1, 2), 3): (
        "d52d4a2d46c656ad2411ed8ee0bc8f84826b855acf852b0cc4d8eaeebca407f0",
        "061dc93779fc1db9e971ae91f823ba3ecbe092c02024084519b86f1040f95dc0",
    ),
    ((3, 1, 2), 0): (
        "3cee5ae2561fd05c54caa348a76fa18c3aa871f1d3af946956f25ef117ba5a31",
        "be6f38e8f61b1c76127102ac50ad8fc45cf06b36198b90ceb823e52637864f7a",
    ),
    ((3, 1, 2), 3): (
        "170686220a098271e1058eeb3d4677439076466525ba8e1b8531b7ae4aae1de6",
        "48efc1b3c59c9d1284fac1b018466faf56715c2ca75342aa0ecaa5606ba0c470",
    ),
    ((2, 2, 2), 0): (
        "f0ea8ddd5527a4e770f99ea742ce88aa4d989cde72bd3f86d206c366c435ea16",
        "dcdf2c9bee2d3f0671426605743219a0c23c9726b8223cfff8436f7b979857a5",
    ),
    ((2, 2, 2), 3): (
        "1ca73982ca3e9c22db0e89d600a97a430f8d469a045b0501c6cd53950b5241a4",
        "36f8d1a9468983308608b19b2e344115b2f04e0f6398ef07f0babcfc4640e382",
    ),
    ((2, 1, 3), 0): (
        "dfb1938d3e5debb15f8bfc985e73e71315acef9da43d01d307d3760eed2cc57f",
        "542dfa7b57efbf0e1e7983d8c84e0adf29430039302564510ea034bd74d84a01",
    ),
    ((2, 1, 3), 3): (
        "e30492c7e077dc9191522adb83a94d9e187e0bd1640d75295e440c0175805eb9",
        "065b692dfcbb96d707abd1252136b175234ab3a1adea1a3a9e9fb8a779758455",
    ),
    ((3, 1, 3), 0): (
        "d953ab9558c9eaa17003482954ba9bd225d81d503ee86da2ec5411d7f2e44949",
        "461d797b1c45ed00ddd3bfd60ecb045472e922a945bf8eb100753bb0a47574b4",
    ),
    ((3, 1, 3), 3): (
        "0801ce0fcbd36f421786e18a0558bae159e8dfedc3c7156c0fef63f0ac3dda35",
        "89ede1e9f6202641fff1f018e13fb4d585c6c1e982370612ef1eebed04a2a071",
    ),
    ((2, 2, 3), 0): (
        "152de15c9c29d637325de89915c67fd384119f4b32f2bc29e28b1d3dbfad03e5",
        "842308418225e77d69dcad49563181b50d51ffd4ed291b0191800354770f3e20",
    ),
    ((2, 2, 3), 3): (
        "42e404b3ccb830cb4cbbfe598fb1cb55d6137ad7653b37d27f2e20982de91c0a",
        "cbd00e5dd8de88fed2588df8203584f932b47af9f440e0c79cec110857fa20ee",
    ),
    ((2, 1, 4), 0): (
        "105ad46e765fbcaa2dac08ed939c5ea6a5277b9a3f80ea910ca8ec265e44651b",
        "e44f26acc3aad2f8f4d737105629ebaa5e5bfbab9fe97ce7bc21b96b5a4e6ed0",
    ),
    ((2, 1, 4), 3): (
        "6d229a034e7a2a3b5143812468a3cd9e8c8f1d381e1653e3cef4b3dcc6443896",
        "1a84bf914cc931f0d216a72bedbd8271a8d8cf9614857a763ffdc92f7210d2fd",
    ),
    ((2, 3, 2), 0): (
        "834ed6043095127f88fbb44870feaf63377ff2ebed2b830e156a23b1cc6a61f8",
        "33447212b4d49b15cbaa43fbd47feae7fa093b5c764c295c8dc038b6776cb6fa",
    ),
    ((2, 3, 2), 3): (
        "8c8dd9043442f7a77049299a36ab0601b5c237671d16ca2d1f1475c05c5accb9",
        "4840a92992e13cc0a926ad55ac81c978b73f3b7abe250468fb80ac966c777536",
    ),
    ((3, 1, 4), 0): (
        "e6459971d41da0c5c4c573e29d4fb4399a1bf9fd8ef9249e830ce0a848304cdf",
        "b0b1398dfafde62bf8d9aeff53115c2e00b7ca2391a8c2077a09bdfc937c01b9",
    ),
    ((3, 1, 4), 3): (
        "8f79e7c18a66975bef0e12a4e661112e5a8b0d1617c8ef9aa6f2265d0cd8e74f",
        "193ed2ea82656903cb5c1aa05dc2dc536e84ed2850a437340d84527f8f09c8ab",
    ),
    ((5, 1, 2), 0): (
        "34ae01dd2e342ab3cf507e9d0968efe551a9b5c3b7cf6aaed12a6d4b3adf0844",
        "aa32fe690e55acad3b19be9047d7b928b2a87675da3b5e391037eb55ed5b2c0b",
    ),
    ((5, 1, 2), 3): (
        "7efe4dcce3ca0b9bcdbf11a16425cd1372b66d87659675a045eef12e56eb705a",
        "16fa46c30b44ba98012840ae89a67e33930fd2189f962e379641c9f9d7c8c91f",
    ),
    ((2, 2, 4), 0): (
        "9d4762a0fae3d2e233d95af84d0d89d26b3fa809a45338b193df7a97932cec00",
        "0b1b53c5d30e9e91e60ec7e62859d4f7541504f8612880d4a0d8efe243c47ecc",
    ),
}
# the csv of a hull run lists one check and its status
_HULL_CSV = {
    "pass": "b3b7b9568215f7a5004780c01271bbee041f7e88631e84097f470802c8607830",
    "skipped": "b70f9f7c70a0ca0ab36930ed18d77ec4f35ec7411cf10ea69393ac8c9d0861fc",
}


@pytest.mark.parametrize("params, seed", list(PINNED_HULL_REPORTS))
def test_hull_reports_match_pinned_digests(params, seed):
    report = run_suite(params, suites=["hull"], seed=seed)
    status = "skipped" if params == (5, 1, 2) else "pass"
    assert report.check("hull").status == status
    assert _report_digests(report) == PINNED_HULL_REPORTS[params, seed] + (_HULL_CSV[status],)


@pytest.mark.parametrize(
    "params, mode", [((5, 1, 2), "search"), ((2, 3, 2), "search"), ((3, 1, 2), "auto")]
)
def test_minweight_and_second_classify_the_low_words_once(monkeypatch, params, mode):
    classify_words = verify.classify_words
    calls = []

    def counting(model, words):
        calls.append(len(words))
        return classify_words(model, words)

    monkeypatch.setattr(verify, "classify_words", counting)
    report = run_suite(params, ["minweight", "second"], mode=mode, search_iterations=100, seed=2)
    assert report.mode == ("search" if mode == "search" else "exhaustive")
    assert len(calls) == 1 and calls[0] > 0
    run_suite(params, ["gap"], mode=mode, search_iterations=100)
    assert len(calls) == 1  # no classification without minweight or second


def test_dimension_suite_eliminates_the_incidence_matrix_once(monkeypatch):
    g = GeometrySpec(make_field(3), 3)
    incidence = build_incidence_matrix(g)
    rref = code.rref_mod_p
    calls = []

    def counting_rref(mat, p):
        calls.append(np.array_equal(mat, incidence))
        return rref(mat, p)

    monkeypatch.setattr(code, "rref_mod_p", counting_rref)
    # a fresh model rather than the cached one, so its elimination is counted
    monkeypatch.setattr(verify, "build_model", CodeModel)
    check = run_suite((3, 1, 3), ["dimension"]).check("dimension")
    assert calls.count(True) == 1
    dim = expected_dimension(g)
    assert check.status == "pass"
    assert check.details == {"p_rank": dim, "formula": dim, "dimension": dim}


# sha256 of emit_report(run_suite(params, seed=seed), fmt) for json, table and
# csv, captured before bbw and restriction worked on whole arrays
PINNED_REPORTS = {
    ((2, 1, 2), 0): (
        "fd2e72f7cd12e19597fbec890764a19f30f10dbeb1749b518f03449fae9d0a9c",
        "215b576d03d7e45a997e11ad9e3a22e898541fcda8b193c054f485777dbb1058",
        "49112b759944ba98030c515ce6491f8845ceb14159d0b1735c5eb15e2a7c38da",
    ),
    ((2, 1, 2), 7): (
        "89535ee5652bf575390383db5ed8a6aca162e91ecf5e1a910950cae1d677549a",
        "1dc9c7efd19137e5c2c2f362f6f950e92862000a51b34b84f9a093490234dde8",
        "49112b759944ba98030c515ce6491f8845ceb14159d0b1735c5eb15e2a7c38da",
    ),
    ((3, 1, 2), 0): (
        "e1e1b2b0e16caef090a9c1dc6b3e9202049a65549c2350982706226bad4e38db",
        "549862e27781d44e1001e0ecc5688b7bf8656562f75b458ffa0694944d24f240",
        "58fd694c977d28331335495b1efd2ddce7339c4e73bb966409cc5d6d63a37974",
    ),
    ((3, 1, 2), 7): (
        "e82b383b1422171e5953ed212c07857795a9ca68e9523ee2d4efb93ebdd290a2",
        "a186b1a5e86c9db0c7f509b33c4bab86344a97b59831db12e570db1aaf58defe",
        "58fd694c977d28331335495b1efd2ddce7339c4e73bb966409cc5d6d63a37974",
    ),
    ((2, 2, 2), 0): (
        "d05a15c922b035b7ec7142f2cdfcb5961f7d84de5cddb05958e8ea5a0050c231",
        "d07146f4b73cd906e070c08eb9537a938fc59b18e01849ecedf8f5859a0aa7af",
        "78d102cd314c2b607e74eed96e0e4366a85b6d8c833189611dd2187bd592795d",
    ),
    ((2, 2, 2), 7): (
        "08c576bc59a67417e1a26a065a0d01d484f9cf9736187ccb406207ab8e2a6d66",
        "77b89bccaffe7ec39ea092ddef2141186a1b703ec38ef9c1b8b7aede06cbde23",
        "78d102cd314c2b607e74eed96e0e4366a85b6d8c833189611dd2187bd592795d",
    ),
    ((2, 1, 3), 0): (
        "f20a7213137b1796690c36d23174d8daee429f6381d21f4dbefcfffb68fc2b14",
        "53d2236181557aae5544320e018c1e21d078d066c70f57f172d8097779e805f6",
        "48b7792eec6bfa5ef944afc9169ada4d94a3903c2398d31b742e412b31a52a87",
    ),
    ((2, 1, 3), 7): (
        "0ac29a46c2cdace369b994a9651acb6e96a67ef05e83598a63fa0cfc38ea555f",
        "776f8668ec19f902554b422ecf6dcac504ce392c6cdcea2a74e51beb7d05ba7b",
        "48b7792eec6bfa5ef944afc9169ada4d94a3903c2398d31b742e412b31a52a87",
    ),
    ((3, 1, 3), 0): (
        "018e122c2540f04c0cc459ef0b27a6aca5c13cf59436125c46173648015d1efc",
        "8dd5d3ce213cf0637086b29edf8f33e94f6aec1dcbcd62e695bee6dca4422475",
        "0f0cef26d389c3dea6bfb2a6e98c08f7cce61da8615effbd0a002f2991bdd27b",
    ),
    ((3, 1, 3), 7): (
        "4465ddba5c5b7afc525faf0efe81a66d6e0eca96ffbed4a0fd07cf1e1519f010",
        "f2af7e8dcce11dcf11e0ec6e4c28a7ef63c1e01defc728eed5e945aea2c63f65",
        "0f0cef26d389c3dea6bfb2a6e98c08f7cce61da8615effbd0a002f2991bdd27b",
    ),
    ((2, 2, 3), 0): (
        "889540a13e00661f5a21c877379a00bf5727df4f980ecddb6da2d046f81f5963",
        "22022f44b946dbe04f30fa1dbf3bf5e11af3daffdb487e634b86946355337eb6",
        "a5f06fb336eb9d6a2dae72f1e246e89dc359306516119ca1a1a9c4f05b2349d5",
    ),
    ((2, 2, 3), 7): (
        "888e40dcaeb47a3d4cb5a8d85778758ff2a95c3a58cec970092d428fe64cc0dc",
        "767322f143d2d15bd2423981a98c286a9c527632b2953861330d3071267c64ae",
        "a5f06fb336eb9d6a2dae72f1e246e89dc359306516119ca1a1a9c4f05b2349d5",
    ),
    ((2, 1, 4), 0): (
        "b05c1ccf7d97bec9c7ad6f40b49e447579cf6b5cbf5076f48637c1687412969a",
        "935acc370543e940ff74c0f1c17e5a942343a1938e74cb2b956f6974687724b8",
        "ce2adf22a9fa0a5abebb545bb06845ed6e09693616b4d4709c6770535266cef9",
    ),
    ((2, 1, 4), 7): (
        "49d2517df3b7024f398ab08137799633331b518b7417ce82d2df95d9ebb98c14",
        "a632292d3334dce5dabd16d032bb9b6ddba6bbf23f38a8e0ba8d07b3ad17f9a4",
        "ce2adf22a9fa0a5abebb545bb06845ed6e09693616b4d4709c6770535266cef9",
    ),
}


def _report_digests(report):
    return tuple(
        hashlib.sha256(emit_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "table", "csv")
    )


@pytest.mark.parametrize("params, seed", list(PINNED_REPORTS))
def test_exhaustive_reports_match_pinned_digests(params, seed):
    report = run_suite(params, seed=seed)
    assert report.mode == "exhaustive"
    assert _report_digests(report) == PINNED_REPORTS[params, seed]


# the same digests of planar runs at seed 1 that choose bbw alone, bbw with
# restriction (whose word pool must stay the low words), or every suite with
# bbw over its budget; captured while bbw still swept the generator itself
_BBW_RUNS = {
    "bbw": {"suites": ["bbw"]},
    "bbw+restriction": {"suites": ["bbw", "restriction"]},
    "bbw_budget=16": {},
}
PINNED_BBW_REPORTS = {
    ((2, 1, 2), "bbw"): (
        "67768045bb632a457fed5644b94316a247493b1c7d6bdec94d9cb5884b8beb65",
        "d6e0086d3630d83bc669392ae07d9cbd478d8e868f6c43f7c689302b6aae2645",
        "49112b759944ba98030c515ce6491f8845ceb14159d0b1735c5eb15e2a7c38da",
    ),
    ((3, 1, 2), "bbw"): (
        "f01abec571644c506958fbeacbc34159fe45a1b3b0d3c4048907fa1d12b535bb",
        "2e2abd7ff6b7d31af0b9fc8c4d87ee72f591184f5795c15279f061d85dcc0ed1",
        "58fd694c977d28331335495b1efd2ddce7339c4e73bb966409cc5d6d63a37974",
    ),
    ((2, 2, 2), "bbw"): (
        "207e87058b883c92e33cccfdb29724bba2ea486de3755462f317280d6e27eb56",
        "61e028b1a165b515992b4e0a3f8fe83ddc417a44ac613d14ff6f2dd6c2734bd1",
        "78d102cd314c2b607e74eed96e0e4366a85b6d8c833189611dd2187bd592795d",
    ),
    ((2, 1, 2), "bbw+restriction"): (
        "f5ff83f459a4e93363e1ccdbcc9bfb73d307e987b6cb6829bdbadce4205e36d0",
        "4bcc64f147ff9fb91452639b5feb203dc9c511b74e41e07cfc764358167c9d77",
        "49112b759944ba98030c515ce6491f8845ceb14159d0b1735c5eb15e2a7c38da",
    ),
    ((3, 1, 2), "bbw+restriction"): (
        "4e0a585f1484d6f7e6f076548a47171f471a98cf7aa62efd87edf21e8f9999ff",
        "d6be60945d2d364451d64aa5ff4494b8f7334e35c41bbf80f0f383f390c4e188",
        "58fd694c977d28331335495b1efd2ddce7339c4e73bb966409cc5d6d63a37974",
    ),
    ((2, 2, 2), "bbw+restriction"): (
        "a94ee06f272007c85ec44e7e69cfd4b2b0a71f8cf23a4960da74282a4d7ff17b",
        "6d230fdb6604c194e6e5ce42c3e8b22bed561178d336aa60702903c55a9bbbf3",
        "78d102cd314c2b607e74eed96e0e4366a85b6d8c833189611dd2187bd592795d",
    ),
    ((2, 1, 2), "bbw_budget=16"): (
        "18e4925836d06fcca7e1f176b0815416db3f834b26be1267fa690a87393fbfbc",
        "650872fc580e173e3dc0b7440ad66218205aeefcb43c0ef5d7b96aa1cfbc290e",
        "49112b759944ba98030c515ce6491f8845ceb14159d0b1735c5eb15e2a7c38da",
    ),
    ((3, 1, 2), "bbw_budget=16"): (
        "f9c4c279194d99ad6683dda647091c601c6a37b21805cb379fac63b1cfebf2d1",
        "ea9c2e1f231f3baefe7b57c606525bc58ebff67b28d5446c6e4ab92550bc1a14",
        "58fd694c977d28331335495b1efd2ddce7339c4e73bb966409cc5d6d63a37974",
    ),
    ((2, 2, 2), "bbw_budget=16"): (
        "9e5aa9578b0f4234351e8099672d3719359c2db55c7482806ea837fe09bfdaf5",
        "d33b09b6c5c19e4dbf5f0c8b45e956ceb6809a890a1f4541fa272bb26cc99b8d",
        "78d102cd314c2b607e74eed96e0e4366a85b6d8c833189611dd2187bd592795d",
    ),
}


@pytest.mark.parametrize("params, run", list(PINNED_BBW_REPORTS))
def test_bbw_run_reports_match_pinned_digests(monkeypatch, params, run):
    if run == "bbw_budget=16":
        monkeypatch.setattr(verify, "BBW_BUDGET", 16)
    report = run_suite(params, seed=1, **_BBW_RUNS[run])
    assert report.mode == "exhaustive"
    assert _report_digests(report) == PINNED_BBW_REPORTS[params, run]


def test_reports_are_reproducible_given_seed():
    a = run_suite((3, 1, 2), seed=42)
    b = run_suite((3, 1, 2), seed=42)
    assert emit_report(a, "json") == emit_report(b, "json")
    assert emit_report(a, "table") == emit_report(b, "table")


# sha256 of the JSON report of a 60-round search-mode run of the weight
# suites at seed 5; (7, 1, 2) was captured before search rounds,
# classification and hull tests worked on whole arrays
PINNED_SEARCH_REPORTS = {
    (7, 1, 2): "b2deaede9c9d4ebdfded0bfb59ae9a9fce6a002204d1ff3dd8cbadbeea5765bc",
    (2, 3, 2): "bcf7ff7a2dd524b10bca133cc1dc9afc81ff5534a6bcea1823fc20a4c6e2a405",
    (5, 1, 2): "c8e93b9655a998b1d1bab750bd2eeafa511dc30ca9133b58c3e877eaebd92361",
}


def _search_report_digest(params):
    r = run_suite(
        params,
        ("dimension", "minweight", "gap", "second", "blocking"),
        seed=5,
        search_iterations=60,
    )
    assert r.mode == "search"
    return hashlib.sha256(emit_report(r, "json").encode()).hexdigest()


def test_search_mode_report_matches_pinned_digest():
    assert _search_report_digest((7, 1, 2)) == PINNED_SEARCH_REPORTS[7, 1, 2]


@pytest.mark.parametrize("params", [(2, 3, 2), (5, 1, 2)])
def test_more_search_mode_reports_match_pinned_digests(params):
    assert _search_report_digest(params) == PINNED_SEARCH_REPORTS[params]


def _every_word_other(classify_words):
    """classify_words with every row's kind replaced by OTHER."""

    def other(model, words):
        classes = classify_words(model, words)
        kinds = np.full_like(classes.kinds, analysis._KINDS.index(WordKind.OTHER))
        return dataclasses.replace(classes, kinds=kinds)

    return other


def _gap_word(g):
    """A word of weight theta_{n-1} + 1, which lies in the gap wherever there is one."""
    word = np.zeros(g.num_points, dtype=np.uint8)
    word[: theta(g.n - 1, g.q) + 1] = 1
    return word


def _with_a_gap_word(enumerate_spectrum, low_words, low_weight_search):
    """Both sources of low words, with one gap word added to their words:
    to the exhaustive low-word value (and the spectrum's counts), so that bbw
    still reads the honest sweep, and to the search's words."""

    def spectrum(model, **kwargs):
        report = enumerate_spectrum(model, **kwargs)
        counts = dict(report.weight_counts)
        w = int(np.count_nonzero(_gap_word(model.geometry)))
        counts[w] = counts.get(w, 0) + 1
        return dataclasses.replace(report, weight_counts=dict(sorted(counts.items())))

    def low(model, words, counts, iterations=None):
        if iterations is None:
            words = np.concatenate([words, _gap_word(model.geometry)[None]])
        return low_words(model, words, counts, iterations)

    def search(model, *args, **kwargs):
        result = low_weight_search(model, *args, **kwargs)
        words = np.concatenate([result.words, _gap_word(model.geometry)[None]])
        return dataclasses.replace(result, words=words)

    return spectrum, low, search


# sha256 of the JSON reports in which minweight and second (every low word
# classified OTHER) or gap (one added gap word) fail, captured before the
# weight suites read one low-word value
PINNED_FAILURE_REPORTS = {
    ((3, 1, 2), "exhaustive", "classes"): "83477b1187e97eeff4554c28c89377eb480c0522a7671e6efe296cd52ec8751f",
    ((3, 1, 2), "exhaustive", "gap"): "9be2ea5a257b76aaf1f5b0f68075ca55421e25f523417767da6713d98ea05e11",
    ((2, 2, 2), "exhaustive", "classes"): "7d3e65d9ff9158c67842044b36565f620cf2d2e74e9be153b92a2c19a8916721",
    ((2, 2, 2), "exhaustive", "gap"): "9dfec7dc2cabab1a2580b7450a8cfc1c6dd22ec3047780faac0d8ca87d28926e",
    ((5, 1, 2), "search", "classes"): "7ec4941cd832e5183f03e1c16410abda75708601ae34e76a4a102457f44bee9f",
    ((5, 1, 2), "search", "gap"): "38445e3be7aedcb82307b51cb88cc1c200790c6f933777d928af2dd523688a31",
    ((2, 3, 2), "search", "classes"): "ab2bb56c5ea16e32570b4b86da890a0ca579521a4a127c8776966a52d46f645b",
    ((2, 3, 2), "search", "gap"): "2d09af35d2977cf41915843a4308351d25ad6aa560441b7e219bd174f9c9c43c",
}


@pytest.mark.parametrize("params, mode, tamper", list(PINNED_FAILURE_REPORTS))
def test_weight_suite_failure_reports_match_pinned_digests(monkeypatch, params, mode, tamper):
    if tamper == "classes":
        monkeypatch.setattr(verify, "classify_words", _every_word_other(verify.classify_words))
        failing = {"minweight", "second"}
    else:
        spectrum, low, search = _with_a_gap_word(
            verify.enumerate_spectrum, verify._LowWords, verify.low_weight_search
        )
        monkeypatch.setattr(verify, "enumerate_spectrum", spectrum)
        monkeypatch.setattr(verify, "_LowWords", low)
        monkeypatch.setattr(verify, "low_weight_search", search)
        failing = {"gap", "blocking"}
    suites = [s for s in SUITES if mode == "exhaustive" or s not in ("hull", "bbw")]
    monkeypatch.setattr(verify, "RESTRICTION_SAMPLES", 100)
    report = run_suite(params, suites, seed=3, mode=mode, search_iterations=60)
    assert report.mode == mode
    failed = {c.name: c for c in report.checks if c.status == "fail"}
    assert failing <= set(failed)
    # an exhaustive gap check reads the histogram alone and lists no words
    assert all(failed[name].witnesses for name in failing if mode == "search" or name != "gap")
    digest = hashlib.sha256(emit_report(report, "json").encode()).hexdigest()
    assert digest == PINNED_FAILURE_REPORTS[params, mode, tamper]


def test_json_rendering_round_trips():
    r = run_suite((2, 1, 2), suites=["dimension", "minweight"])
    text = emit_report(r, "json")
    parsed = json.loads(text)
    jsonschema.validate(parsed, REPORT_SCHEMA)
    assert parsed["params"] == {
        "p": 2,
        "h": 1,
        "n": 2,
        "q": 2,
        "theta_n": 7,
        "modulus": [0, 1],
    }
    assert parsed["mode"] == "exhaustive"


def test_csv_rendering_of_spectrum():
    r = run_suite((2, 1, 2), suites=["minweight"])
    assert emit_report(r, "csv") == "weight,count\n0,1\n3,7\n4,7\n7,1\n"


def test_csv_rendering_without_spectrum_lists_checks():
    r = run_suite((2, 1, 2), suites=["dimension", "hull"])
    assert emit_report(r, "csv") == "check,status\ndimension,pass\nhull,pass\n"


def test_table_rendering_names_the_minimum_weight():
    r = run_suite((2, 1, 2))
    table = emit_report(r, "table")
    assert "minimum weight: 3 = theta_1" in table
    assert "mode: exhaustive" in table


def test_unknown_format_rejected():
    r = run_suite((2, 1, 2), suites=["dimension"])
    with pytest.raises(UnknownFormat):
        emit_report(r, "yaml")
