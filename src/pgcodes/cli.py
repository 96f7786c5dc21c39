"""Command-line front end.

Subcommands cover geometry facts, code construction and spectra, the
verification suites and blocking-set reduction.  All output is rendered
deterministically so that identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 failed check, 2 usage error, 3
infeasible parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .gf import FieldTooLarge, is_prime, make_field
from .geometry import GeometrySpec, gaussian_binomial, theta
from .code import build_incidence_matrix, build_model, expected_dimension, p_rank
from .analysis import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    digit_string,
    enumerate_spectrum,
    low_weight_search,
    tally,
)
from .blocking import NotBlocking, PointSet, reduce_to_minimal
from .verify import (
    DEFAULT_HULL_BUDGET,
    SUITES,
    InfeasibleParams,
    emit_report,
    run_suite,
)


class CliUsageError(Exception):
    """Input problem that should surface as a usage error (exit 2)."""


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["json", "csv", "table"],
        default="table",
        help="output rendering (default: table)",
    )
    common.add_argument("--out", type=Path, default=None, help="write output to this path")
    common.add_argument("--seed", type=_seed_value, default=0, help="PRNG seed")

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    params.add_argument("--h", type=int, default=1, help="extension degree (default 1)")
    params.add_argument("--n", type=int, required=True, help="projective dimension (>= 2)")

    parser = argparse.ArgumentParser(
        prog="pgcodes",
        description="point-hyperplane incidence codes of PG(n,q): construction, "
        "weight analysis and theorem verification",
    )
    top = parser.add_subparsers(dest="command", required=True)

    geo = top.add_parser("geometry", help="projective geometry facts")
    geo_sub = geo.add_subparsers(dest="subcommand", required=True)
    info = geo_sub.add_parser(
        "info", parents=[params, common], help="point/subspace counts and theta values"
    )
    info.set_defaults(func=cmd_geometry_info)

    code = top.add_parser("code", help="incidence code construction and spectra")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    build = code_sub.add_parser(
        "build", parents=[params, common], help="construct the code and print its stats"
    )
    build.set_defaults(func=cmd_code_build)
    rank = code_sub.add_parser(
        "rank", parents=[params, common], help="p-rank of the incidence matrix vs formula"
    )
    rank.set_defaults(func=cmd_code_rank)
    export = code_sub.add_parser(
        "export", parents=[params, common], help="emit the incidence matrix"
    )
    export.set_defaults(func=cmd_code_export)
    spectrum = code_sub.add_parser(
        "spectrum", parents=[params, common], help="weight distribution"
    )
    spectrum.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="message budget for enumeration"
    )
    spectrum.add_argument(
        "--search", action="store_true", help="randomized low-weight search instead"
    )
    spectrum.add_argument(
        "--max-weight", type=int, default=None, help="search weight cap (default 2q^(n-1))"
    )
    spectrum.add_argument("--iterations", type=int, default=10_000, help="search rounds")
    spectrum.set_defaults(func=cmd_code_spectrum)

    verify = top.add_parser("verify", parents=[params, common], help="run check suites")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--suites", type=str, help="comma-separated suite names")
    which.add_argument("--all", action="store_true", help="run every suite")
    verify.add_argument(
        "--mode",
        choices=["auto", "exhaustive", "search"],
        default="auto",
        help="enumeration strategy (default auto)",
    )
    verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    verify.add_argument("--hull-budget", type=int, default=DEFAULT_HULL_BUDGET)
    verify.add_argument(
        "--iterations", type=int, default=100_000, help="search rounds in search mode"
    )
    verify.set_defaults(func=cmd_verify)

    blocking = top.add_parser("blocking", help="blocking-set operations")
    blocking_sub = blocking.add_subparsers(dest="subcommand", required=True)
    reduce_cmd = blocking_sub.add_parser(
        "reduce", parents=[params, common], help="reduce a blocking set to a minimal one"
    )
    reduce_cmd.add_argument(
        "--input", type=Path, required=True, help="point set file, one point per line"
    )
    reduce_cmd.set_defaults(func=cmd_blocking_reduce)

    return parser


def _validated_geometry(args) -> GeometrySpec:
    if args.p < 2 or not is_prime(args.p):
        raise CliUsageError(f"--p must be prime, got {args.p}")
    if args.h < 1:
        raise CliUsageError(f"--h must be at least 1, got {args.h}")
    if args.n < 2:
        raise CliUsageError(f"--n must be at least 2, got {args.n}")
    try:
        field = make_field(args.p, args.h)
    except FieldTooLarge as exc:
        raise CliUsageError(str(exc))
    return GeometrySpec(field, args.n)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _kv_csv(pairs) -> str:
    return "\n".join(f"{k},{v}" for k, v in pairs) + "\n"


# -- subcommands -------------------------------------------------------------


def cmd_geometry_info(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    thetas = {str(m): theta(m, g.q) for m in range(g.n + 1)}
    counts = {str(k): gaussian_binomial(g.n + 1, k + 1, g.q) for k in range(g.n)}
    if args.format == "json":
        doc = {
            "p": g.field.p,
            "h": g.field.h,
            "n": g.n,
            "q": g.q,
            "modulus": list(g.field.modulus),
            "num_points": g.num_points,
            "num_hyperplanes": g.num_points,
            "theta": thetas,
            "subspace_counts": counts,
        }
        return _json_text(doc), False
    if args.format == "csv":
        pairs = [("quantity", "value"), ("q", g.q), ("num_points", g.num_points)]
        pairs += [(f"theta_{m}", v) for m, v in thetas.items()]
        pairs += [(f"subspaces_dim_{k}", v) for k, v in counts.items()]
        return _kv_csv(pairs), False
    lines = [
        f"PG({g.n},{g.q}): {g.num_points} points, {g.num_points} hyperplanes",
        f"field: p={g.field.p} h={g.field.h} modulus={list(g.field.modulus)}",
    ]
    lines += [f"theta_{m}: {v}" for m, v in thetas.items()]
    lines += [f"subspaces dim {k}: {v}" for k, v in counts.items()]
    return "\n".join(lines) + "\n", False


def cmd_code_build(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    model = build_model(g)
    doc = {
        "p": g.field.p,
        "h": g.field.h,
        "n": g.n,
        "q": g.q,
        "length": g.num_points,
        "dimension": model.dimension,
        "expected_dimension": expected_dimension(g),
        "hull_dimension": model.hull_dimension,
    }
    if args.format == "json":
        return _json_text(doc), False
    if args.format == "csv":
        return _kv_csv([("quantity", "value")] + list(doc.items())), False
    lines = [f"{k}: {v}" for k, v in doc.items()]
    return "\n".join(lines) + "\n", False


def cmd_code_rank(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    rank = p_rank(build_incidence_matrix(g), g.field.p)
    formula = expected_dimension(g)
    agree = rank == formula
    if args.format == "json":
        return _json_text({"p_rank": rank, "formula": formula, "agreement": agree}), not agree
    if args.format == "csv":
        pairs = [("quantity", "value"), ("p_rank", rank), ("formula", formula)]
        return _kv_csv(pairs), not agree
    text = f"p-rank: {rank}\nformula: {formula}\nagreement: {str(agree).lower()}\n"
    return text, not agree


def cmd_code_export(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    matrix = build_incidence_matrix(g)
    if args.format == "json":
        return _json_text({"q": g.q, "n": g.n, "matrix": matrix.tolist()}), False
    if args.format == "csv":
        return "\n".join(",".join(str(int(x)) for x in row) for row in matrix) + "\n", False
    return "\n".join("".join(str(int(x)) for x in row) for row in matrix) + "\n", False


def cmd_code_spectrum(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    model = build_model(g)
    if args.search:
        max_weight = (
            2 * g.q ** (g.n - 1) if args.max_weight is None else args.max_weight
        )
        result = low_weight_search(model, max_weight, args.iterations, seed=args.seed)
        found = tally(np.count_nonzero(result.words, axis=1))
        if args.format == "json":
            doc = {
                "mode": "search",
                "max_weight": max_weight,
                "iterations": args.iterations,
                "seed": args.seed,
                "found_counts": {str(w): c for w, c in found.items()},
                "representatives": [
                    digit_string(row) for row in result.orbit_representatives
                ],
            }
            return _json_text(doc), False
        if args.format == "csv":
            pairs = [("weight", "count")] + list(found.items())
            return _kv_csv(pairs), False
        lines = [f"search: {args.iterations} rounds, words up to weight {max_weight}"]
        lines += [f"weight {w}: {c} words" for w, c in found.items()]
        return "\n".join(lines) + "\n", False
    report = enumerate_spectrum(model, budget=args.budget)
    if args.format == "json":
        return _json_text(report.to_json_dict()), False
    if args.format == "csv":
        pairs = [("weight", "count")] + list(report.to_csv_rows())
        return _kv_csv(pairs), False
    lines = [f"exhaustive: {report.messages} messages"]
    lines += [f"weight {w}: {c} words" for w, c in report.to_csv_rows()]
    return "\n".join(lines) + "\n", False


def cmd_verify(args) -> tuple[str, bool]:
    _validated_geometry(args)
    if args.all:
        suites = None
    else:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise CliUsageError(
                f"unknown suites: {', '.join(unknown)}; known: {', '.join(SUITES)}"
            )
        if not suites:
            raise CliUsageError("--suites must name at least one suite")
    report = run_suite(
        (args.p, args.h, args.n),
        suites,
        budget=args.budget,
        hull_budget=args.hull_budget,
        seed=args.seed,
        mode=args.mode,
        search_iterations=args.iterations,
    )
    return emit_report(report, args.format), not report.passed


def parse_pointset_text(text: str, g: GeometrySpec) -> PointSet:
    """One point per line, comma-separated coefficients; # starts a comment.

    Coordinates need not be canonical; each line is scaled so its first
    nonzero coefficient becomes 1 before lookup.
    """
    indices = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [s.strip() for s in line.split(",")]
        try:
            coeffs = [int(s) for s in parts]
        except ValueError:
            raise CliUsageError(f"line {lineno}: coefficients must be integers: {raw!r}")
        if len(coeffs) != g.n + 1:
            raise CliUsageError(
                f"line {lineno}: expected {g.n + 1} coefficients, got {len(coeffs)}"
            )
        if any(not 0 <= c < g.q for c in coeffs):
            raise CliUsageError(
                f"line {lineno}: coefficients must be field element indices in [0, {g.q})"
            )
        if not any(coeffs):
            raise CliUsageError(f"line {lineno}: the zero vector is not a projective point")
        indices.append(g.point(coeffs).index)
    return PointSet(g, indices)


def cmd_blocking_reduce(args) -> tuple[str, bool]:
    g = _validated_geometry(args)
    try:
        text = args.input.read_text()
    except OSError as exc:
        raise CliUsageError(f"cannot read {args.input}: {exc}")
    point_set = parse_pointset_text(text, g)
    try:
        reduced = reduce_to_minimal(point_set)
    except NotBlocking as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return "", True
    if args.format == "json":
        doc = {"size": len(reduced), "points": reduced.to_json_list()}
        return _json_text(doc), False
    if args.format == "csv":
        body = "\n".join(",".join(str(c) for c in pt) for pt in reduced.to_json_list())
        return body + "\n", False
    lines = [f"minimal blocking set with {len(reduced)} points"]
    lines += ["(" + ",".join(str(c) for c in pt) + ")" for pt in reduced.to_json_list()]
    return "\n".join(lines) + "\n", False


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, failed = args.func(args)
    except CliUsageError as exc:
        parser.error(str(exc))
    except (InfeasibleParams, BudgetExceeded) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
