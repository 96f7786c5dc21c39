"""Suite orchestration, report schema, rendering, reproducibility."""

import hashlib
import json

import jsonschema
import pytest

from pgcodes import kernels, verify
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


def test_full_suite_pg32_statuses():
    r = run_suite((2, 1, 3), restriction_samples=200)
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
    r = run_suite(
        (3, 1, 2),
        mode="search",
        search_iterations=300,
        restriction_samples=50,
        blocking_trials=5,
    )
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


def test_suite_subset_runs_in_canonical_order():
    r = run_suite((3, 1, 2), suites=["hull", "dimension"])
    assert [c.name for c in r.checks] == ["dimension", "hull"]
    assert r.spectrum is None  # no weight suite selected, no enumeration done
    jsonschema.validate(r.to_json_dict(), REPORT_SCHEMA)
    with pytest.raises(KeyError):
        r.check("minweight")


def test_skip_gates_for_hull_and_bbw_budgets():
    r = run_suite((2, 2, 2), suites=["hull"], hull_budget=8)
    assert r.check("hull").status == "skipped"
    r = run_suite((2, 2, 2), suites=["bbw"], bbw_budget=16)
    assert r.check("bbw").status == "skipped"


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2)])
def test_bbw_witnesses_do_not_depend_on_kernel_word_order(monkeypatch, params):
    # every (word, external point) pair fails, so the witnesses list every
    # incidence word in the order the suite visits them
    monkeypatch.setattr(verify, "tangent_collinearity", lambda model, x, q: (False, None))
    expected = run_suite(params, suites=["bbw"]).check("bbw")
    assert expected.status == "fail" and len(expected.witnesses) > 1
    sweep = kernels.spectrum

    def reversed_words(*args):
        hist, words, overflow = sweep(*args)
        return hist, words[::-1], overflow

    monkeypatch.setattr(kernels, "spectrum", reversed_words)
    assert run_suite(params, suites=["bbw"]).check("bbw") == expected


def test_reports_are_reproducible_given_seed():
    a = run_suite((3, 1, 2), seed=42, restriction_samples=100, blocking_trials=5)
    b = run_suite((3, 1, 2), seed=42, restriction_samples=100, blocking_trials=5)
    assert emit_report(a, "json") == emit_report(b, "json")
    assert emit_report(a, "table") == emit_report(b, "table")


def test_search_mode_report_matches_pinned_digest():
    # captured before search rounds, classification and hull tests worked on
    # whole arrays: the JSON report must stay byte-identical
    r = run_suite(
        (7, 1, 2),
        ("dimension", "minweight", "gap", "second", "blocking"),
        seed=5,
        search_iterations=60,
    )
    assert r.mode == "search"
    digest = hashlib.sha256(emit_report(r, "json").encode()).hexdigest()
    assert digest == "b2deaede9c9d4ebdfded0bfb59ae9a9fce6a002204d1ff3dd8cbadbeea5765bc"


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
