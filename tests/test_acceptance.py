"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single verdict line
(visible with -s); tolerances are exact equalities and the runtime limits
are asserted where stated.
"""

import hashlib
import time
from contextlib import contextmanager

import numpy as np

from pgcodes.gf import make_field
from pgcodes.geometry import (
    GeometrySpec,
    enumerate_subspaces,
    global_point_indices,
    theta,
)
from pgcodes.code import (
    build_incidence_matrix,
    build_model,
    expected_dimension,
    weight,
    zero_word,
)
from pgcodes.analysis import (
    WordKind,
    classify_word,
    enumerate_spectrum,
    line_profile,
    minimum_weight,
    restrict,
    restriction_model,
    support,
    tangent_collinearity,
)
from pgcodes.blocking import PointSet, is_k_blocking, is_minimal, reduce_to_minimal
from pgcodes.verify import run_suite
from pgcodes import kernels

from helpers import python_rank_mod_p

# parameter sets whose full message space fits the default budget
EXHAUSTIVE_GRID = (
    (2, 1, 2),
    (3, 1, 2),
    (2, 2, 2),
    (2, 1, 3),
    (3, 1, 3),
    (2, 2, 3),
    (2, 1, 4),
)


def geom(p, h, n):
    return GeometrySpec(make_field(p, h), n)


@contextmanager
def verdict(num, slug):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {slug}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {slug}: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_01_dimension_formula():
    expected = {
        (2, 1, 2): 4,
        (3, 1, 2): 7,
        (2, 2, 2): 10,
        (5, 1, 2): 16,
        (7, 1, 2): 29,
        (2, 3, 2): 28,
        (2, 1, 3): 5,
        (3, 1, 3): 11,
        (2, 2, 3): 17,
        (2, 1, 4): 6,
    }
    with verdict(1, "dimension-formula"):
        start = time.perf_counter()
        for (p, h, n), dim in expected.items():
            g = geom(p, h, n)
            oracle = python_rank_mod_p(build_incidence_matrix(g).tolist(), p)
            assert oracle == dim, (p, h, n)
            assert expected_dimension(g) == dim, (p, h, n)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_minimum_weight_and_classification():
    with verdict(2, "minimum-weight"):
        for p, h, n in EXHAUSTIVE_GRID:
            g = geom(p, h, n)
            start = time.perf_counter()
            model = build_model(g)
            report = enumerate_spectrum(model)
            minw = min(w for w in report.weight_counts if w)
            assert minw == theta(n - 1, g.q), (p, h, n)
            assert report.weight_counts[minw] == (p - 1) * g.num_points, (p, h, n)
            min_words = [r for r in report.low_weight if weight(r) == minw]
            assert len(min_words) == (p - 1) * g.num_points
            for row in min_words:
                assert classify_word(model, row).kind is WordKind.HYPERPLANE_MULTIPLE
            elapsed = time.perf_counter() - start
            assert elapsed < (60.0 if (p, h, n) == (3, 1, 3) else 10.0), (p, h, n)


def test_criterion_03_weight_gap():
    with verdict(3, "weight-gap"):
        spectra = {}
        for p, h, n in EXHAUSTIVE_GRID:
            g = geom(p, h, n)
            counts = enumerate_spectrum(build_model(g)).weight_counts
            spectra[(p, h, n)] = counts
            low, high = theta(n - 1, g.q), 2 * g.q ** (n - 1)
            assert not any(low < w < high for w in counts), (p, h, n)
        assert 5 not in spectra[(3, 1, 2)]
        assert 6 not in spectra[(2, 2, 2)] and 7 not in spectra[(2, 2, 2)]
        assert not any(w in spectra[(3, 1, 3)] for w in (14, 15, 16, 17))


def test_criterion_04_second_weight_characterization():
    with verdict(4, "second-weight"):
        observed = {}
        for p, h, n in EXHAUSTIVE_GRID:
            g = geom(p, h, n)
            model = build_model(g)
            report = enumerate_spectrum(model)
            target = 2 * g.q ** (n - 1)
            words = [r for r in report.low_weight if weight(r) == target]
            assert len(words) == report.weight_counts[target], (p, h, n)
            for row in words:
                got = classify_word(model, row)
                assert got.kind is WordKind.HYPERPLANE_DIFFERENCE, (p, h, n)
            observed[(p, h, n)] = len(words)
        assert observed[(3, 1, 2)] == 156
        assert observed[(2, 1, 2)] == 7
        assert observed[(2, 1, 3)] == 15


def test_criterion_05_hull_minimum_weight_and_membership():
    with verdict(5, "hull"):
        for p, h, n in EXHAUSTIVE_GRID:
            g = geom(p, h, n)
            r = run_suite((p, h, n), suites=["hull", "second"])
            hull = r.check("hull")
            assert hull.status == "pass", (p, h, n)
            assert hull.details["hull_minimum_weight"] == 2 * g.q ** (n - 1)
            second = r.check("second")
            assert second.status == "pass" and second.details["all_in_hull"]
        # PG(2,8) exceeds the default budget; a raised-budget histogram pass
        # makes both statements exact there as well
        g8 = geom(2, 3, 2)
        model8 = build_model(g8)
        hull_hist, _ = kernels.spectrum(model8.hull, 2, 0)
        assert int(hull_hist.sum()) == 2**27
        nonzero = np.nonzero(hull_hist[1:])[0]
        assert int(nonzero[0]) + 1 == 16  # 2q^(n-1) for q = 8
        # the proof by information sets gives the sweep's minimum
        assert minimum_weight(model8.hull, 2) == int(nonzero[0]) + 1
        report8 = enumerate_spectrum(model8, budget=2**28)
        assert min(w for w in report8.weight_counts if w) == 9
        # the collecting sweep's words, as they were before the proof existed
        low8 = np.ascontiguousarray(report8.low_weight)
        assert low8.shape == (2701, 73) and low8.dtype == np.uint8
        assert hashlib.sha256(low8.tobytes()).hexdigest() == (
            "742872e75a03507dfb397f32a64d03184ed0adf0802cb0378a569344d138e177"
        )
        assert report8.weight_counts[16] == int(hull_hist[16])
        sixteens = [r for r in report8.low_weight if weight(r) == 16]
        assert len(sixteens) == report8.weight_counts[16]
        assert all(model8.hull_contains(r) for r in sixteens)


def test_criterion_06_scalar_product_properties():
    with verdict(6, "subspace-pairing-properties"):
        for params in ((2, 1, 2), (3, 1, 2), (2, 1, 3)):
            r = run_suite(params, suites=["properties"])
            c = r.check("properties")
            assert c.status == "pass", params
            assert c.details["differences_in_dual"]
            assert c.details["pairing_constant"]
            assert c.details["hull_iff_zero_pairing"]


def test_criterion_07_restriction_closure():
    with verdict(7, "restriction"):
        # exhaustive: every codeword of PG(3,2) restricted to every plane
        g = geom(2, 1, 3)
        model = build_model(g)
        report = enumerate_spectrum(model, collect_limit=g.num_points)
        words = [zero_word(g)] + list(report.low_weight)
        assert len(words) == 32
        planes = enumerate_subspaces(g, 2)
        assert len(planes) == 15
        local = restriction_model(planes[0])
        for s in planes:
            s_pts = global_point_indices(s)
            for row in words:
                restricted = restrict(row, s)
                assert local.contains(restricted)
                assert np.array_equal(restricted, row[s_pts])
        # sampled: at least 1000 pairs in PG(3,3)
        r = run_suite((3, 1, 3), suites=["restriction"])
        c = r.check("restriction")
        assert c.status == "pass"
        assert c.details["pairs_checked"] >= 1000


def test_criterion_08_small_words_are_blocking_sets():
    with verdict(8, "small-word-blocking-sets"):
        for p, h, n in EXHAUSTIVE_GRID:
            g = geom(p, h, n)
            model = build_model(g)
            report = enumerate_spectrum(model)
            high = 2 * g.q ** (n - 1)
            checked = 0
            for row in report.low_weight:
                w = weight(row)
                if not 0 < w < high:
                    continue
                nonzero = row[np.nonzero(row)[0]]
                assert len(set(nonzero.tolist())) == 1, (p, h, n)
                s = PointSet.from_word(g, row)
                assert is_k_blocking(s, n - 1), (p, h, n)
                assert is_minimal(s, n - 1), (p, h, n)
                assert set(line_profile(g, row).residues) == {1}, (p, h, n)
                checked += 1
            assert checked == (p - 1) * g.num_points, (p, h, n)


def test_criterion_09_reduction_order_independence():
    sets = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 1, 3), (3, 1, 3)]
    with verdict(9, "unique-reduction"):
        start = time.perf_counter()
        for p, h, n in sets:
            g = geom(p, h, n)
            rng = np.random.default_rng([p, h, n, 2024])
            from pgcodes.geometry import hyperplane_point_indices

            hyp_rows = hyperplane_point_indices(g)
            max_extras = g.q ** (n - 1) - 1
            for _ in range(200):
                h_idx = int(rng.integers(g.num_points))
                base = set(hyp_rows[h_idx].tolist())
                off = [i for i in range(g.num_points) if i not in base]
                n_extra = int(rng.integers(1, max_extras + 1))
                picks = rng.choice(len(off), size=min(n_extra, len(off)), replace=False)
                superset = PointSet(g, sorted(base | {off[i] for i in picks}))
                assert len(superset) < g.q ** (n - 1) + theta(n - 1, g.q)
                results = {reduce_to_minimal(superset)}
                for _ in range(4):
                    results.add(reduce_to_minimal(superset, rng=rng))
                assert results == {PointSet(g, sorted(base))}, (p, h, n)
        assert time.perf_counter() - start < 60.0


def test_criterion_10_tangent_collinearity():
    with verdict(10, "tangent-collinearity"):
        for params in ((2, 1, 2), (2, 2, 2)):
            g = geom(*params)
            model = build_model(g)
            report = enumerate_spectrum(model, collect_limit=g.num_points)
            words = [zero_word(g)] + list(report.low_weight)
            assert len(words) == 2**model.dimension
            pairs = 0
            for row in words:
                x = support(row).tolist()
                inside = set(x)
                for q_idx in range(g.num_points):
                    if q_idx in inside:
                        continue
                    ok, _ = tangent_collinearity(model, x, q_idx)
                    assert ok, params
                    pairs += 1
            assert pairs > 0


def test_criterion_11_search_evidence_beyond_exhaustion():
    with verdict(11, "search-evidence"):
        start = time.perf_counter()
        r = run_suite(
            (5, 1, 2),
            suites=["minweight", "gap", "second"],
            seed=20240817,
            search_iterations=100_000,
        )
        assert r.mode == "search"
        statuses = {c.name: c.status for c in r.checks}
        assert statuses == {
            "minweight": "evidence-only",
            "gap": "evidence-only",
            "second": "evidence-only",
        }
        mw = r.check("minweight").details
        assert mw["iterations"] == 100_000
        assert mw["found_weights"] == [6, 10]
        assert set(mw["classification_counts"]) == {
            "HyperplaneMultiple",
            "HyperplaneDifference",
        }
        gap = r.check("gap").details
        assert gap["interval"] == [6, 10]
        assert gap["weights_inside"] == {}
        assert time.perf_counter() - start < 120.0


def test_criterion_12_exact_beyond_the_default_budget():
    # PG(4,3) has 3^16 messages, past the default 2^22; a raised budget
    # makes the run exact, and every statement but the planar bbw passes
    with verdict(12, "exact-beyond-default-budget"):
        start = time.perf_counter()
        r = run_suite((3, 1, 4), budget=3**16)
        assert r.mode == "exhaustive"
        assert r.spectrum["messages"] == 3**16
        statuses = {c.name: c.status for c in r.checks}
        assert statuses.pop("bbw") == "skipped"
        assert r.check("bbw").details == {"reason": "planar statement only"}
        assert set(statuses.values()) == {"pass"}
        assert r.check("minweight").details["minimum_weight"] == theta(3, 3)
        assert time.perf_counter() - start < 30.0
