"""CLI subcommands, exit codes, file output determinism."""

import json
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pgcodes.cli import CliUsageError, main, parse_pointset_text
from pgcodes.gf import make_field
from pgcodes.geometry import GeometrySpec, point_array, subspace_point_indices
from pgcodes.verify import REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geometry_info_table(capsys):
    code, out, _ = run_cli(capsys, "geometry", "info", "--p", "3", "--n", "3")
    assert code == 0
    assert "theta_3: 40" in out
    assert "theta_2: 13" in out
    assert "subspaces dim 1: 130" in out


def test_geometry_info_json(capsys):
    code, out, _ = run_cli(
        capsys, "geometry", "info", "--p", "2", "--h", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 4
    assert doc["theta"] == {"0": 1, "1": 5, "2": 21}
    assert doc["subspace_counts"] == {"0": 21, "1": 21}
    assert doc["modulus"] == [1, 1, 1]


def test_code_rank_reports_both_values(capsys):
    code, out, _ = run_cli(capsys, "code", "rank", "--p", "2", "--h", "2", "--n", "2")
    assert code == 0
    assert "p-rank: 10" in out
    assert "formula: 10" in out


def test_code_build_json(capsys):
    code, out, _ = run_cli(
        capsys, "code", "build", "--p", "2", "--n", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 15
    assert doc["dimension"] == 5
    assert doc["hull_dimension"] == 4


def test_code_export_csv_matches_incidence(capsys):
    code, out, _ = run_cli(
        capsys, "code", "export", "--p", "2", "--n", "2", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 7 and all(len(r) == 7 for r in rows)
    # symmetry of the self-dual indexing
    for i in range(7):
        for j in range(7):
            assert rows[i][j] == rows[j][i]
    assert sum(int(x) for x in rows[0]) == 3


def test_code_spectrum_csv(capsys):
    code, out, _ = run_cli(
        capsys, "code", "spectrum", "--p", "2", "--n", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "weight,count\n0,1\n3,7\n4,7\n7,1\n"


def test_code_spectrum_search_deterministic(capsys):
    argv = [
        "code", "spectrum", "--p", "3", "--n", "2", "--search",
        "--max-weight", "6", "--iterations", "40", "--seed", "9",
        "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc["found_counts"]) <= {"4", "6"}
    assert doc["mode"] == "search"


def test_code_spectrum_over_budget_exits_3(capsys):
    code, out, err = run_cli(capsys, "code", "spectrum", "--p", "5", "--n", "2")
    assert code == 3
    assert out == ""
    assert "infeasible" in err


def test_verify_all_fano(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "2", "--n", "2", "--all", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["spectrum"]["counts"] == {"0": 1, "3": 7, "4": 7, "7": 1}
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_suite_subset(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "3", "--n", "2", "--suites", "dimension,hull",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["dimension", "hull"]


def test_verify_search_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "3", "--n", "2", "--suites", "minweight",
        "--mode", "search", "--iterations", "200", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "search"
    assert doc["checks"][0]["status"] == "evidence-only"


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2", "--n", "2", "--suites", "bogus"])
    assert exc.value.code == 2


def test_verify_requires_suite_selection(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2", "--n", "2"])
    assert exc.value.code == 2


def test_verify_exhaustive_beyond_budget_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "verify", "--p", "5", "--n", "2", "--all", "--mode", "exhaustive",
    )
    assert code == 3
    assert "infeasible" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["code", "spectrum", "--p", "2", "--n", "2", "--search", "--iterations", "0"], "--iterations"),
        (["code", "spectrum", "--p", "2", "--n", "2", "--search", "--max-weight", "-1"], "--max-weight"),
        (["verify", "--p", "2", "--h", "3", "--n", "2", "--suites", "minweight", "--iterations", "0"],
         "--iterations"),
        (["verify", "--p", "2", "--n", "2", "--all", "--iterations", "0"], "--iterations"),
        # p^k >= 1, so no budget below 1 admits a sweep
        (["verify", "--p", "2", "--n", "2", "--all", "--budget", "-1", "--iterations", "5"], "--budget"),
        (["verify", "--p", "2", "--n", "2", "--suites", "hull", "--hull-budget", "-1"], "--hull-budget"),
        (["code", "spectrum", "--p", "2", "--n", "2", "--budget", "-1"], "--budget"),
    ],
)
def test_invalid_round_counts_are_usage_errors(capsys, argv, option):
    # refused while parsing, before any model is built; an exhaustive run
    # that would never search is refused too
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err


def test_zero_max_weight_is_a_valid_search_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "code", "spectrum", "--p", "2", "--n", "2", "--search",
        "--max-weight", "0", "--iterations", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["found_counts"] == {}


def test_composite_p_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "info", "--p", "6", "--n", "2"])
    assert exc.value.code == 2


def test_field_beyond_256_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2", "--h", "9", "--n", "2", "--all"])
    assert exc.value.code == 2
    assert "256" in capsys.readouterr().err


def test_bad_format_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "info", "--p", "2", "--n", "2", "--format", "yaml"])
    assert exc.value.code == 2


def test_out_files_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--p", "2", "--n", "2", "--all", "--format", "json", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv, "--out", str(a))
    code2, out2, _ = run_cli(capsys, *argv, "--out", str(b))
    assert code1 == code2 == 0
    assert out1 == out2 == ""  # everything went to the files
    assert a.read_bytes() == b.read_bytes()


# -- point set files ---------------------------------------------------------

PG23 = GeometrySpec(make_field(3), 2)


def test_parse_pointset_text_canonicalizes():
    text = """
    # a line of PG(2,3), written with non-canonical scalings
    0,1,0
    0,2,1   # same as 0,1,2
    1,0,0
    2,0,2   # same as 1,0,1
    """
    s = parse_pointset_text(text, PG23)
    assert len(s) == 4


def test_blocking_reduce_roundtrip(capsys, tmp_path):
    line_pts = subspace_point_indices(PG23, 1)[2].tolist()
    from pgcodes.blocking import PointSet

    line = PointSet(PG23, line_pts)
    extra = next(i for i in range(13) if i not in line_pts)
    both = PointSet(PG23, line_pts + [extra])
    src = tmp_path / "points.txt"
    src.write_text(
        "# line plus one extra point\n"
        + "\n".join(",".join(str(c) for c in pt) for pt in both.to_json_list())
        + "\n"
    )
    code, out, _ = run_cli(
        capsys,
        "blocking", "reduce", "--p", "3", "--n", "2",
        "--input", str(src), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert doc["points"] == line.to_json_list()


def test_blocking_reduce_not_blocking_exits_1(capsys, tmp_path):
    src = tmp_path / "points.txt"
    src.write_text("1,0,0\n0,1,0\n")
    code, out, err = run_cli(
        capsys, "blocking", "reduce", "--p", "3", "--n", "2", "--input", str(src)
    )
    assert code == 1
    assert "check failed" in err


def test_blocking_reduce_malformed_file_exits_2(capsys, tmp_path):
    src = tmp_path / "points.txt"
    src.write_text("1,0\n")  # wrong arity for n = 2
    with pytest.raises(SystemExit) as exc:
        main(["blocking", "reduce", "--p", "3", "--n", "2", "--input", str(src)])
    assert exc.value.code == 2
    src.write_text("0,0,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["blocking", "reduce", "--p", "3", "--n", "2", "--input", str(src)])
    assert exc.value.code == 2


# a prime field, a field with q not prime, and a solid
PARSER_GEOMETRIES = [PG23, GeometrySpec(make_field(2, 2), 2), GeometrySpec(make_field(2), 3)]


@st.composite
def _scaled_points(draw):
    """(geometry, [(point index, its coordinates times a nonzero element)])."""
    g = draw(st.sampled_from(PARSER_GEOMETRIES))
    canonical = point_array(g)
    point = st.integers(0, g.num_points - 1)
    picks = draw(st.lists(st.tuples(point, st.integers(1, g.q - 1)), max_size=6))
    return g, [(i, g.field.mul_table[c][canonical[i]].tolist()) for i, c in picks]


@settings(max_examples=100, deadline=None)
@given(_scaled_points(), st.data())
def test_parse_pointset_text_reads_any_scaling_between_comments(case, data):
    g, points = case
    noise = st.lists(st.sampled_from(["", "   ", "# a comment", "  # 1,2,x"]), max_size=2)
    lines = []
    for i, coords in points:
        lines += data.draw(noise)
        comment = data.draw(st.sampled_from(["", "  # scaled", "#"]))
        lines.append(" , ".join(str(c) for c in coords) + comment)
    s = parse_pointset_text("\n".join(lines), g)
    assert s.indices == tuple(sorted({i for i, _ in points}))
    for i, coords in points:
        assert parse_pointset_text(",".join(map(str, coords)), g).indices == (i,)


@st.composite
def _bad_files(draw):
    """(geometry, file text): up to two valid points, then one line the
    parser must refuse: a non-integer, the wrong arity, an entry outside
    [0, q), or the zero vector."""
    g = draw(st.sampled_from(PARSER_GEOMETRIES))
    arity = g.n + 1
    entries = [str(c) for c in draw(st.lists(st.integers(0, g.q - 1), min_size=arity, max_size=arity))]
    at = draw(st.integers(0, arity - 1))
    kind = draw(st.sampled_from(["not an integer", "arity", "range", "zero"]))
    if kind == "not an integer":
        entries[at] = draw(st.sampled_from(["x", "1.5", "", "0x1", "one"]))
    elif kind == "arity":
        size = draw(st.integers(1, 2 * arity).filter(lambda m: m != arity))
        entries = (entries * 2)[:size]
    elif kind == "range":
        entries[at] = str(draw(st.one_of(st.integers(g.q, 3 * g.q), st.integers(-g.q, -1))))
    else:
        entries = ["0"] * arity
    good = [",".join(map(str, row)) for row in point_array(g)[: draw(st.integers(0, 2))].tolist()]
    return g, "\n".join(good + ["# then a bad line", ",".join(entries)]) + "\n"


# tmp_path and capsys are shared by the examples; each one rewrites the file
# and reads the captured stderr
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_bad_files())
def test_malformed_point_files_raise_usage_errors_and_exit_2(case, tmp_path, capsys):
    g, text = case
    with pytest.raises(CliUsageError):
        parse_pointset_text(text, g)
    src = tmp_path / "points.txt"
    src.write_text(text)
    argv = ["blocking", "reduce", "--p", str(g.field.p), "--h", str(g.field.h), "--n", str(g.n)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(src)])
    assert exc.value.code == 2
    assert "line" in capsys.readouterr().err


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "pgcodes.cli", "geometry", "info", "--p", "2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "theta_2: 7" in result.stdout
