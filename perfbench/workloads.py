"""Workload definitions and the correctness gate for the pgcodes benchmark.

A workload is a fixed list of operations; one operation is one
``run_suite(params, **kwargs)`` call followed by ``emit_report(.., "json")``.
The benchmark seed only enters as ``run_suite(seed=...)``, so the same seed
gives the same inputs and, by the package's own contract, the same report.

Why these four workloads (each stresses a different layer):

- ``verify-exhaustive`` is ``pgcodes verify --all`` on every DEFAULT_GRID
  triple that fits the exhaustive budget: word classification, the
  second/bbw/restriction suites and the collecting spectrum sweep.
- ``verify-search`` is the search phase beyond the budget: Lee-Brickell
  rounds, their dedup and the classification of the found words.  No hull
  suite, so the big count-only sweep stays out.  At these round counts
  PG(2,5) and PG(2,8) find about 99 % of the paper's words and PG(2,7)
  (odd p) about 18 %, so its found set is still growing.
- ``sweep-hull`` is the count-only hull sweep on both kernel paths: GF(2)
  bit-packed (PG(2,8), 2^27 messages) and GF(3) bytes (PG(4,3), 3^15).
- ``build-large`` is model construction on the largest geometries: RREF,
  check and hull bases, p-rank and the incidence matrix.  Builds are under
  1 % of every other workload, so without it the ``code`` layer goes
  unmeasured.

``SMOKE`` holds the same workloads at minimal size for the smoke test.
"""

from __future__ import annotations

from math import comb

SEARCH_SUITES = ("dimension", "minweight", "gap", "second", "blocking")

WORKLOADS = {
    "verify-exhaustive": [
        ((2, 1, 2), {}),
        ((3, 1, 2), {}),
        ((2, 2, 2), {}),
        ((2, 1, 3), {}),
        ((3, 1, 3), {}),
        ((2, 2, 3), {}),
        ((2, 1, 4), {}),
    ],
    "verify-search": [
        ((2, 3, 2), {"suites": SEARCH_SUITES, "search_iterations": 400}),
        ((5, 1, 2), {"suites": SEARCH_SUITES, "search_iterations": 300}),
        ((7, 1, 2), {"suites": SEARCH_SUITES, "search_iterations": 100}),
    ],
    "sweep-hull": [
        ((2, 3, 2), {"suites": ("hull",)}),
        ((3, 1, 4), {"suites": ("hull",)}),
    ],
    "build-large": [
        ((2, 3, 3), {"suites": ("dimension",)}),
        ((3, 2, 3), {"suites": ("dimension",)}),
        ((2, 4, 2), {"suites": ("dimension",)}),
    ],
}

# The speed probe (see worker.py) that each workload's operation times are
# normalised by: the one slowed by other tenants about as much as the
# workload is.  Neither probe tracks the large builds (their slowdown
# correlates with either only weakly), so build-large reports wall time.
PROBE = {
    "verify-exhaustive": "interpreter",
    "verify-search": "interpreter",
    "sweep-hull": "numpy",
}

SMOKE = {
    "verify-exhaustive": [((2, 1, 2), {}), ((3, 1, 2), {})],
    "verify-search": [
        ((2, 1, 2), {"suites": SEARCH_SUITES, "search_iterations": 20, "mode": "search"}),
        ((3, 1, 2), {"suites": SEARCH_SUITES, "search_iterations": 20, "mode": "search"}),
    ],
    "sweep-hull": [((2, 1, 3), {"suites": ("hull",)}), ((3, 1, 3), {"suites": ("hull",)})],
    "build-large": [((2, 1, 2), {"suites": ("dimension",)}), ((3, 1, 2), {"suites": ("dimension",)})],
}


def operations(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's operations as ``run_suite`` arguments for one seed."""
    table = SMOKE if smoke else WORKLOADS
    return [
        {"params": list(params), "kwargs": {**kwargs, "seed": seed}}
        for params, kwargs in table[workload]
    ]


def _theta(m: int, q: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1)


def paper_counts(p: int, h: int, n: int) -> tuple[int, int]:
    """The paper's sizes of the two low-weight classes: hyperplane
    multiples (p-1)theta_n and hyperplane differences (p-1)theta_n(theta_n-1)/2.

    Over q = 2 two hyperplanes' difference is the complement of the third
    hyperplane through their intersection, so the differences are the
    theta_n hyperplane complements.
    """
    q = p**h
    t = _theta(n, q)
    return (p - 1) * t, t if q == 2 else (p - 1) * t * (t - 1) // 2


def gate(op: dict, report: dict) -> list[str]:
    """Problems with one operation's parsed JSON report; empty means correct.

    Checks the paper's invariants independently of the package: the
    dimension formula, the spectrum total, the minimum-weight count, the
    hull minimum weight, and that no check failed.  Schema validation and
    byte-identity across passes are done by the caller.
    """
    p, h, n = op["params"]
    q = p**h
    theta_n = _theta(n, q)
    mult, diff = paper_counts(p, h, n)
    problems = []
    if (report["params"]["p"], report["params"]["h"], report["params"]["n"]) != (p, h, n):
        problems.append(f"params {report['params']} do not match {op['params']}")
    dim = comb(p + n - 1, n) ** h + 1
    if report["code"]["dimension"] != dim:
        problems.append(f"dimension {report['code']['dimension']} != {dim}")
    checks = {c["name"]: c for c in report["checks"]}
    wanted = op["kwargs"].get("suites")
    if wanted is not None and sorted(checks) != sorted(wanted):
        problems.append(f"checks {sorted(checks)} != requested {sorted(wanted)}")
    problems.extend(f"check {name} failed" for name, c in checks.items() if c["status"] == "fail")
    spectrum = report.get("spectrum")
    if spectrum is not None and sum(spectrum["counts"].values()) != p**dim:
        problems.append(f"spectrum sums to {sum(spectrum['counts'].values())}, not {p}^{dim}")
    mw = checks.get("minweight")
    if mw is not None:
        d = mw["details"]
        if "count" in d:
            if d["minimum_weight"] != _theta(n - 1, q) or d["count"] != mult:
                problems.append(f"minimum weight {d['minimum_weight']} x {d['count']}, expected "
                                f"{_theta(n - 1, q)} x {mult}")
        else:
            cc = d["classification_counts"]
            if cc.get("HyperplaneMultiple", 0) > mult or cc.get("HyperplaneDifference", 0) > diff:
                problems.append(f"search found more words than exist: {cc}")
            if d["found_minimum_weight"] != _theta(n - 1, q):
                problems.append(f"search minimum weight {d['found_minimum_weight']}")
    second = checks.get("second")
    if second is not None and spectrum is not None and second["details"]["words_checked"] != diff:
        problems.append(f"{second['details']['words_checked']} second-weight words, expected {diff}")
    hull = checks.get("hull")
    if hull is not None:
        if hull["status"] != "pass":
            problems.append(f"hull status {hull['status']}")
        elif hull["details"]["hull_minimum_weight"] != 2 * q ** (n - 1):
            problems.append(f"hull minimum weight {hull['details']['hull_minimum_weight']}")
    if theta_n != report["params"]["theta_n"]:
        problems.append(f"theta_n {report['params']['theta_n']} != {theta_n}")
    return problems


def coverage_counts(op: dict, report: dict) -> tuple[int, int] | None:
    """(found, expected) low-weight words of the paper's two classes, or
    None when the report classifies no low-weight words."""
    checks = {c["name"]: c for c in report["checks"]}
    mw = checks.get("minweight")
    if mw is None:
        return None
    expected = sum(paper_counts(*op["params"]))
    d = mw["details"]
    if "count" in d:
        return d["count"] + checks["second"]["details"]["words_checked"], expected
    cc = d["classification_counts"]
    return cc.get("HyperplaneMultiple", 0) + cc.get("HyperplaneDifference", 0), expected
