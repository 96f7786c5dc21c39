"""Structural check suites over the hyperplane-incidence codes.

run_suite builds the code for one (p, h, n) triple and runs a selection
of named check suites, each recording pass/fail with enough detail to
audit.  Where the full message space fits the budget the checks are
exhaustive; beyond it the weight-facing suites degrade to randomized
search evidence and say so in their status.  An exhaustive run sweeps the
generator once.  The weight suites (minweight, gap, second, blocking) read
one low-word value, _LowWords: the sweep's words up to weight 2q^(n-1) and
its histogram, or the search's words and a tally of their weights,
classified once.  bbw reads every word of the sweep.  The hull suite
reads the hull's minimum weight off analysis.minimum_weight, which proves
it from one information set under the geometry's collineations; no hull
is ever swept.
Suites test whole word arrays: bbw asks about every (incidence word,
external point) pair in one call, and restriction tests its sampled
(subspace, word) pairs a dimension at a time.

run_suite takes the options of `pgcodes verify`.  Four sizes are fixed
module constants, read when a run starts: BBW_BUDGET, the messages up to
which a planar run's one sweep collects every word for bbw;
RESTRICTION_SAMPLES, the (subspace, word) pairs restriction samples;
BLOCKING_TRIALS, the hyperplane supersets blocking reduces; and
BLOCKING_ORDERS, the removal orders of each.  The search's weight cap is
always 2q^(n-1).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .gf import make_field
from .geometry import (
    GeometrySpec,
    _whole_numbers,
    collineations,
    incidence_bool,
    subspace_point_indices,
    theta,
)
from .code import (
    CodeModel,
    build_incidence_matrix,
    build_model,
    expected_dimension,
    row_blocks,
    weight,
)
from .analysis import (
    DEFAULT_BUDGET,
    NotInCode,
    WordKind,
    _line_columns,
    classify_words,
    enumerate_spectrum,
    low_weight_search,
    minimum_weight,
    tally,
    tangent_collinear_rows,
)
from .blocking import reduce_mask_orders

DEFAULT_HULL_BUDGET = 2**28
DEFAULT_SEARCH_ITERATIONS = 100_000
BBW_BUDGET = 2**20
RESTRICTION_SAMPLES = 1000
BLOCKING_TRIALS = 20
BLOCKING_ORDERS = 3

SUITES = (
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

DEFAULT_GRID = (
    (2, 1, 2),
    (3, 1, 2),
    (2, 2, 2),
    (2, 3, 2),
    (2, 1, 3),
    (3, 1, 3),
    (2, 2, 3),
    (2, 1, 4),
)

# stream id for the shared low-weight search; suites use their own index
_SEARCH_STREAM = 97


class InfeasibleParams(ValueError):
    """Exhaustive verification was requested beyond the message budget."""


class UnknownFormat(ValueError):
    """Requested report rendering format does not exist."""


class UnknownSuite(ValueError):
    """Requested suite name is not one of the known suites."""


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skipped | evidence-only
    details: dict
    witnesses: list = field(default_factory=list)


@dataclass
class VerificationReport:
    params: dict
    code: dict
    mode: str  # exhaustive | search
    seed: int
    checks: list
    spectrum: Optional[dict] = None
    timing: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        # timing intentionally stays out: it would break run-to-run equality
        out = {
            "params": self.params,
            "code": self.code,
            "mode": self.mode,
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "details": c.details,
                    "witnesses": c.witnesses,
                }
                for c in self.checks
            ],
        }
        if self.spectrum is not None:
            out["spectrum"] = self.spectrum
        return _jsonify(out)


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["params", "code", "mode", "seed", "checks"],
    "additionalProperties": False,
    "properties": {
        "params": {
            "type": "object",
            "required": ["p", "h", "n", "q", "theta_n", "modulus"],
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer", "minimum": 2},
                "h": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 2},
                "q": {"type": "integer", "minimum": 2},
                "theta_n": {"type": "integer", "minimum": 7},
                "modulus": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "code": {
            "type": "object",
            "required": ["dimension", "expected_dimension"],
            "additionalProperties": False,
            "properties": {
                "dimension": {"type": "integer", "minimum": 1},
                "expected_dimension": {"type": "integer", "minimum": 1},
            },
        },
        "mode": {"enum": ["exhaustive", "search"]},
        "seed": {"type": "integer"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "details", "witnesses"],
                "additionalProperties": False,
                "properties": {
                    "name": {"enum": list(SUITES)},
                    "status": {"enum": ["pass", "fail", "skipped", "evidence-only"]},
                    "details": {"type": "object"},
                    "witnesses": {"type": "array"},
                },
            },
        },
        "spectrum": {
            "type": "object",
            "required": ["counts", "exhaustive", "budget", "messages"],
            "additionalProperties": False,
            "properties": {
                "counts": {
                    "type": "object",
                    "patternProperties": {"^[0-9]+$": {"type": "integer"}},
                    "additionalProperties": False,
                },
                "exhaustive": {"type": "boolean"},
                "budget": {"type": "integer"},
                "messages": {"type": "integer"},
            },
        },
    },
}


def _jsonify(obj):
    """Recursively strip numpy scalar/array types for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _word_witness(w: np.ndarray) -> dict:
    return {"weight": int(weight(w)), "digits": [int(x) for x in w]}


def _suite_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, SUITES.index(name)])


def _search_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, _SEARCH_STREAM]).generate_state(1)[0])


def _random_codewords(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """count uniformly random codewords as uint8 rows."""
    p = model.geometry.field.p
    msgs = rng.integers(0, p, size=(count, model.dimension))
    return kernels._product_mod_p(msgs, model.generator, p)


def _subspace_words(g: GeometrySpec) -> np.ndarray:
    """Incidence vectors of every subspace of dimension >= 1, all dims."""
    rows = []
    for k in range(1, g.n):
        spi = subspace_point_indices(g, k)
        block = np.zeros((spi.shape[0], g.num_points), dtype=np.uint8)
        np.put_along_axis(block, spi.astype(np.int64), 1, axis=1)
        rows.append(block)
    return np.concatenate(rows, axis=0)


@dataclass(eq=False)
class _LowWords:
    """The low words that minweight, gap, second and blocking read, sorted
    by (weight, entries): the spectrum's words up to weight 2q^(n-1), with
    its whole histogram as counts, or the search's found words, with a tally
    of their weights and the round count as iterations.  The weights and
    the one classification are computed on first use."""

    model: CodeModel
    words: np.ndarray
    counts: dict
    iterations: Optional[int] = None

    @property
    def exhaustive(self) -> bool:
        return self.iterations is None

    @cached_property
    def weights(self) -> np.ndarray:
        return np.count_nonzero(self.words, axis=1)

    @cached_property
    def classes(self):
        return classify_words(self.model, self.words)


def run_suite(
    params: Sequence[int],
    suites: Optional[Sequence[str]] = None,
    *,
    budget: int = DEFAULT_BUDGET,
    hull_budget: int = DEFAULT_HULL_BUDGET,
    seed: int = 0,
    mode: str = "auto",
    search_iterations: int = DEFAULT_SEARCH_ITERATIONS,
) -> VerificationReport:
    """Run the selected check suites for one triple (p, h, n) of whole numbers.

    The options are those of `pgcodes verify`.  BBW_BUDGET,
    RESTRICTION_SAMPLES, BLOCKING_TRIALS and BLOCKING_ORDERS are read here,
    at the call.
    """
    p, h, n = _whole_numbers(list(params)).tolist()
    if suites is None:
        chosen = list(SUITES)
    else:
        chosen = list(suites)
        for s in chosen:
            if s not in SUITES:
                raise UnknownSuite(f"unknown suite {s!r}; known: {', '.join(SUITES)}")
    if mode not in ("auto", "exhaustive", "search"):
        raise ValueError(f"mode must be auto, exhaustive or search, got {mode!r}")

    g = GeometrySpec(make_field(p, h), n)
    model = build_model(g)
    feasible = p**model.dimension <= budget
    if mode == "exhaustive" and not feasible:
        raise InfeasibleParams(
            f"{p}^{model.dimension} messages exceed the budget {budget}; "
            f"use search mode or raise the budget"
        )
    resolved = "exhaustive" if (mode == "auto" and feasible) or mode == "exhaustive" else "search"

    second_weight = 2 * g.q ** (n - 1)
    report = VerificationReport(
        params={
            "p": p,
            "h": h,
            "n": n,
            "q": g.q,
            "theta_n": g.num_points,
            "modulus": list(g.field.modulus),
        },
        code={"dimension": model.dimension, "expected_dimension": expected_dimension(g)},
        mode=resolved,
        seed=seed,
        checks=[],
    )

    spectrum = low = None
    if resolved == "exhaustive" and set(chosen) & {"minweight", "gap", "second", "bbw", "blocking"}:
        # the one sweep collects every word when planar bbw is within its budget
        every_word = "bbw" in chosen and n == 2 and p**model.dimension <= BBW_BUDGET
        limit = g.num_points if every_word else None
        spectrum = enumerate_spectrum(model, budget=budget, collect_limit=limit)
        report.spectrum = spectrum.to_json_dict()
        low_rows = np.count_nonzero(spectrum.low_weight, axis=1) <= second_weight
        low = _LowWords(model, spectrum.low_weight[low_rows], spectrum.weight_counts)
    if resolved == "search" and set(chosen) & {"minweight", "gap", "second", "blocking"}:
        search = low_weight_search(model, second_weight, search_iterations, seed=_search_seed(seed))
        weights = np.count_nonzero(search.words, axis=1)
        low = _LowWords(model, search.words, tally(weights), search.iterations)

    runners = {
        "dimension": lambda: _run_dimension(g, model),
        "minweight": lambda: _run_minweight(g, low),
        "gap": lambda: _run_gap(g, low),
        "second": lambda: _run_second(g, model, low),
        "hull": lambda: _run_hull(g, model, hull_budget),
        "properties": lambda: _run_properties(g, model, _suite_rng(seed, "properties")),
        "restriction": lambda: _run_restriction(
            g, model, low, _suite_rng(seed, "restriction"), RESTRICTION_SAMPLES
        ),
        "bbw": lambda: _run_bbw(g, model, spectrum, BBW_BUDGET),
        "blocking": lambda: _run_blocking(
            g, low, _suite_rng(seed, "blocking"), BLOCKING_TRIALS, BLOCKING_ORDERS
        ),
    }
    for name in SUITES:
        if name not in chosen:
            continue
        start = time.perf_counter()
        report.checks.append(runners[name]())
        report.timing[name] = time.perf_counter() - start
    return report


# -- individual suites -------------------------------------------------------


def _run_dimension(g, model) -> CheckResult:
    # the dimension is the pivot count of the incidence matrix's RREF, its p-rank
    expected = expected_dimension(g)
    details = {"p_rank": model.dimension, "formula": expected, "dimension": model.dimension}
    ok = model.dimension == expected
    return CheckResult("dimension", "pass" if ok else "fail", details)


def _run_minweight(g, low) -> CheckResult:
    expected = theta(g.n - 1, g.q)
    expected_count = (g.field.p - 1) * g.num_points
    found_min = min((w for w in low.counts if w), default=None)
    multiples = low.classes.of_kind(WordKind.HYPERPLANE_MULTIPLE)
    if low.exhaustive:
        count = low.counts[found_min]
        is_min = low.weights == found_min
        bad = low.words[is_min & ~multiples]
        details = {
            "minimum_weight": found_min,
            "expected": expected,
            "count": count,
            "expected_count": expected_count,
            "classified": int(is_min.sum()),
        }
        ok = found_min == expected and count == expected_count and len(bad) == 0
        return CheckResult(
            "minweight", "pass" if ok else "fail", details, [_word_witness(r) for r in bad]
        )
    # search evidence: hyperplane words guarantee found weight <= expected,
    # so any deviation below expected, or any word whose weight names a kind
    # (theta_{n-1}: multiple, 2q^{n-1}: difference) it does not have, fails
    bad = (low.weights == expected) & ~multiples
    bad |= (low.weights == 2 * g.q ** (g.n - 1)) & ~low.classes.of_kind(
        WordKind.HYPERPLANE_DIFFERENCE
    )
    details = {
        "found_minimum_weight": found_min,
        "expected": expected,
        "words_found": len(low.words),
        "found_weights": sorted(low.counts),
        "classification_counts": low.classes.counts(),
        "iterations": low.iterations,
    }
    if (found_min is not None and found_min < expected) or bad.any():
        return CheckResult(
            "minweight", "fail", details, [_word_witness(r) for r in low.words[bad]]
        )
    return CheckResult("minweight", "evidence-only", details)


def _run_gap(g, low) -> CheckResult:
    bottom = theta(g.n - 1, g.q)
    top = 2 * g.q ** (g.n - 1)
    inside = {w: c for w, c in low.counts.items() if bottom < w < top}
    details = {"interval": [bottom, top], "weights_inside": inside}
    if low.exhaustive:
        return CheckResult("gap", "pass" if not inside else "fail", details)
    details["found_weights"] = sorted(low.counts)
    details["iterations"] = low.iterations
    if inside:
        in_gap = (low.weights > bottom) & (low.weights < top)
        return CheckResult("gap", "fail", details, [_word_witness(r) for r in low.words[in_gap]])
    return CheckResult("gap", "evidence-only", details)


def _run_second(g, model, low) -> CheckResult:
    target = 2 * g.q ** (g.n - 1)
    at_target = low.weights == target
    words = low.words[at_target]
    bad_kind = words[~low.classes.of_kind(WordKind.HYPERPLANE_DIFFERENCE)[at_target]]
    bad_hull = words[~model.hull_contains_rows(words)]
    details = {
        "weight": target,
        "words_checked": len(words),
        "all_hyperplane_differences": len(bad_kind) == 0,
        "all_in_hull": len(bad_hull) == 0,
    }
    if not low.exhaustive:
        details["iterations"] = low.iterations
    if len(bad_kind) or len(bad_hull):
        witnesses = [_word_witness(r) for r in np.concatenate([bad_kind, bad_hull])]
        return CheckResult("second", "fail", details, witnesses)
    return CheckResult("second", "pass" if low.exhaustive else "evidence-only", details)


def _run_hull(g, model, hull_budget) -> CheckResult:
    """The hull's minimum weight against 2q^(n-1), proved under the
    collineations, skipped when its p^k messages exceed hull_budget."""
    expected = 2 * g.q ** (g.n - 1)
    hull_dim = model.hull_dimension
    messages = g.field.p**hull_dim
    if messages > hull_budget:
        details = {
            "hull_dimension": hull_dim,
            "messages": messages,
            "hull_budget": hull_budget,
        }
        return CheckResult("hull", "skipped", details)
    # the hull is preserved by every collineation, as the code and its dual are
    minw = minimum_weight(model.hull, g.field.p, collineations(g), model.hull_contains_rows)
    details = {
        "hull_dimension": hull_dim,
        "hull_minimum_weight": minw,
        "expected": expected,
        "messages": messages,
    }
    return CheckResult("hull", "pass" if minw == expected else "fail", details)


def _run_properties(g, model, rng) -> CheckResult:
    p = g.field.p
    subs = _subspace_words(g)
    sample = np.concatenate(
        [
            model.generator,
            build_incidence_matrix(g),
            np.ones((1, g.num_points), dtype=np.uint8),
            _random_codewords(model, rng, 32),
        ]
    )
    pairing = kernels._product_mod_p(sample, subs.T, p)
    # difference of any two subspace vectors orthogonal to every incidence row
    against_code = pairing[len(model.generator) :][: g.num_points]
    item1 = bool((against_code == against_code[:, :1]).all())
    item2 = bool((pairing == pairing[:, :1]).all())
    in_hull = model.hull_contains_rows(sample)
    item3 = bool((in_hull == (pairing[:, 0] == 0)).all())
    details = {
        "subspaces": int(subs.shape[0]),
        "sample_words": int(sample.shape[0]),
        "differences_in_dual": item1,
        "pairing_constant": item2,
        "hull_iff_zero_pairing": item3,
    }
    ok = item1 and item2 and item3
    return CheckResult("properties", "pass" if ok else "fail", details)


def _run_restriction(g, model, low, rng, samples) -> CheckResult:
    # the pool is every k-subspace, 2 <= k < n, in enumerate_subspaces order
    tables = [subspace_point_indices(g, k) for k in range(2, g.n)]
    offsets = np.cumsum([0] + [len(t) for t in tables])
    pool = int(offsets[-1])
    if not pool:
        details = {
            "pairs_checked": 0,
            "note": "no proper subspace has dimension 2 or more; restriction is the identity",
        }
        return CheckResult("restriction", "pass", details)
    # the spectrum's low words join the pool only in an exhaustive run
    extra = [low.words] if low is not None and low.exhaustive else []
    randoms = _random_codewords(model, rng, 64)
    ones = np.ones((1, g.num_points), dtype=np.uint8)
    words = np.concatenate([ones, model.generator, *extra, randoms])
    # one call draws the same (subspace, word) stream as alternating scalar calls
    si, wi = rng.integers([pool, len(words)], size=(samples, 2)).T
    which = np.searchsorted(offsets, si, side="right") - 1
    local = si - offsets[which]
    failed = np.zeros(si.size, dtype=bool)
    for i, table in enumerate(tables):
        picked = which == i
        pts = table[local[picked]]
        full = words[wi[picked]]
        restricted = np.take_along_axis(full, pts, axis=1)
        closure = build_model(GeometrySpec(g.field, i + 2)).contains_rows(restricted)
        supp_ok = ((restricted != 0) == np.take_along_axis(full != 0, pts, axis=1)).all(axis=1)
        failed[picked] = ~(closure & supp_ok)
    bad = [
        {
            "word": _word_witness(words[w]),
            "subspace": {"dimension": i + 2, "points": tables[i][s].tolist()},
        }
        for i, s, w in zip(which[failed].tolist(), local[failed].tolist(), wi[failed].tolist())
    ]
    details = {"pairs_checked": si.size, "subspace_pool": pool, "word_pool": len(words)}
    return CheckResult("restriction", "pass" if not bad else "fail", details, bad)


def _run_bbw(g, model, spectrum, bbw_budget) -> CheckResult:
    if g.n != 2:
        return CheckResult("bbw", "skipped", {"reason": "planar statement only"})
    if spectrum is None:
        return CheckResult("bbw", "skipped", {"reason": "requires exhaustive enumeration"})
    if spectrum.collect_limit < g.num_points:  # run_suite kept it to the low words
        details = {"messages": spectrum.messages, "bbw_budget": bbw_budget}
        return CheckResult("bbw", "skipped", details)
    # the run's one sweep collected every codeword; keep those with entries in {0, 1}
    words = spectrum.low_weight
    words = words[words.max(axis=1) <= 1]
    if not model.contains_rows(words).all():
        raise NotInCode("an incidence word of the sweep is not a codeword")
    inside = words != 0
    ok = tangent_collinear_rows(g, inside)
    bad = [
        {"word": _word_witness(words[wi]), "external_point": qi}
        for wi, qi in zip(*(a.tolist() for a in np.nonzero(~ok & ~inside)))
    ]
    details = {"incidence_words": len(words), "pairs_checked": int((~inside).sum())}
    return CheckResult("bbw", "pass" if not bad else "fail", details, bad)


def _small_word_faults(g, words) -> np.ndarray:
    """Which rows of an (m, theta_n) array of nonzero words break the
    statement on words of weight below 2q^(n-1): constant entries, and a
    support that is a minimal blocking set meeting every line in 1 mod p
    points.  The line meet counts are one product per row block, and the
    points on tangent lines a second one."""
    lines = _line_columns(g)
    p = g.field.p
    faults = np.empty(len(words), dtype=bool)
    for rows in row_blocks(len(words), lines.shape[1]):
        block = words[rows]
        inside = block != 0
        meets = inside.astype(np.float32) @ lines
        on_tangent = (meets == 1).astype(np.float32) @ lines.T > 0
        constant = np.where(inside, block, p).min(axis=1) == block.max(axis=1)
        blocking = (meets > 0).all(axis=1)
        minimal = (on_tangent | ~inside).all(axis=1)
        residues = (kernels._mod_p(meets.astype(np.uint16), p) == 1).all(axis=1)
        faults[rows] = ~(constant & blocking & minimal & residues)
    return faults


def _run_blocking(g, low, rng, trials, orders) -> CheckResult:
    high = 2 * g.q ** (g.n - 1)
    small_words = low.words[(low.weights > 0) & (low.weights < high)]
    bad = [_word_witness(r) for r in small_words[_small_word_faults(g, small_words)]]
    # order-independent reduction of hyperplane supersets below the bound
    bound_extras = g.q ** (g.n - 1) - 1
    disagreements = []
    for _ in range(trials):
        h_idx = int(rng.integers(g.num_points))
        base = incidence_bool(g)[h_idx]
        off = np.flatnonzero(~base)
        n_extra = int(rng.integers(1, min(bound_extras, off.size) + 1))
        superset = base.copy()
        superset[off[rng.choice(off.size, size=n_extra, replace=False)]] = True
        results = reduce_mask_orders(g, superset, orders, rng)
        if any((r != base).any() for r in results):
            # (geometry, indices) keys hash as PointSets do, so the distinct
            # results list in the order a set of PointSets iterates them
            distinct = {(g, tuple(np.flatnonzero(r).tolist())) for r in results}
            disagreements.append(
                {
                    "superset": np.flatnonzero(superset).tolist(),
                    "hyperplane": h_idx,
                    "results": [list(indices) for _, indices in distinct],
                }
            )
    details = {
        "small_words_checked": len(small_words),
        "reduction_trials": trials,
        "orders_per_trial": orders,
        "exhaustive_words": low.exhaustive,
    }
    ok = not bad and not disagreements
    return CheckResult("blocking", "pass" if ok else "fail", details, bad + disagreements)


# -- rendering ---------------------------------------------------------------


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Render a report deterministically as json, csv or a text table."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = []
        if report.spectrum is not None:
            lines.append("weight,count")
            counts = report.spectrum["counts"]
            lines.extend(f"{w},{counts[w]}" for w in sorted(counts, key=int))
        else:
            lines.append("check,status")
            lines.extend(f"{c.name},{c.status}" for c in report.checks)
        return "\n".join(lines) + "\n"
    if fmt == "table":
        return _render_table(report)
    raise UnknownFormat(f"unknown format {fmt!r}; known: json, csv, table")


def _render_table(report: VerificationReport) -> str:
    pr = report.params
    lines = [
        f"PG({pr['n']},{pr['q']})  p={pr['p']} h={pr['h']}  points={pr['theta_n']}",
        f"mode: {report.mode}  seed: {report.seed}",
        f"dimension: {report.code['dimension']} (expected {report.code['expected_dimension']})",
    ]
    for c in report.checks:
        if c.name == "minweight" and "minimum_weight" in c.details:
            lines.append(
                f"minimum weight: {c.details['minimum_weight']} = theta_{pr['n'] - 1}"
            )
        lines.append(f"{c.name}: {c.status}")
    if report.spectrum is not None:
        counts = report.spectrum["counts"]
        body = ", ".join(f"{w}:{counts[w]}" for w in sorted(counts, key=int))
        lines.append(f"spectrum: {{{body}}}")
    return "\n".join(lines) + "\n"
