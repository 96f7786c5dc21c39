"""The pgcodes benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-exhaustive --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh ``worker.py`` process, started one at a time, so
every pass pays the imports, model builds and cache fills that one
``pgcodes`` CLI call pays.  The runner keeps starting passes until about
``--seconds`` have gone (at least two passes), checks every report, and
prints one summary line per metric followed by the result as one JSON
line.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``BENCHMARK.json`` instead of the end-to-end ones;
the difference between the two kinds of pass is the tracing overhead.
Full samples, machine facts and the spans of the last traced pass go to
``perfbench/out/``.

The package is imported from the checkout's ``src``; without it the
runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_ONLY_WORKERS = 5
TIME_LIMIT_S = 165  # a run must end within 180 s
WORKER_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "limits": "CPUs are not pinned and the page cache is not dropped (not permitted in the VM)",
    }
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None
            )
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            facts["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


def spawn(args, deadline: float, *, traced=False, setup_only=False, spans_out=None) -> dict:
    """Run one worker to completion; returns its result plus ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    # CLOCK_MONOTONIC is system-wide, so the worker's ready stamp is comparable
    started = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker ran past the time limit") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    ready = json.loads(lines[0])
    if not Path(ready["pgcodes"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported pgcodes from {ready['pgcodes']}, not from the checkout")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = ready["ready"] - started
    probes, ref = result["probe_s"], result["probe_ref_s"]
    if setup_only:
        # set-up at the reference speed, by the probe taken right after it
        result["setup_s"] = result["setup_wall_s"] * ref / probes[0]
    else:
        result["wall_s"] = result["pass_s"] = sum(result["op_s"])
        if probes:
            # each operation's time at the reference speed, by the probes on either side
            result["pass_s"] = sum(t * 2 * ref / (probes[i] + probes[i + 1])
                                   for i, t in enumerate(result["op_s"]))
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(args, spec: dict) -> dict:
    from jsonschema import Draft7Validator
    from pgcodes.verify import REPORT_SCHEMA

    validator = Draft7Validator(REPORT_SCHEMA)
    ops = workloads.operations(args.workload, args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{args.workload}.json"
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    setups = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_ONLY_WORKERS)]
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = spawn(args, deadline, traced=traced, spans_out=spans_out if traced else None)
        result["traced"] = traced
        passes.append(result)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] + r["setup_wall_s"] for r in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 >= args.seconds:
            break
        if elapsed + 2 * typical >= TIME_LIMIT_S:
            break

    # the correctness gate: every operation in every pass
    failed: set[tuple[int, int]] = set()  # (pass, operation)
    problems: list[str] = []
    digests: list[set] = [set() for _ in ops]
    coverage = []
    for j, r in enumerate(passes):
        found = expected = 0
        for i, (op, res) in enumerate(zip(ops, r["ops"])):
            if "error" in res:
                failed.add((j, i))
                problems.append(f"op {i} raised: {res['error'].strip()}")
                continue
            digests[i].add(hashlib.sha256(res["json"].encode()).hexdigest())
            report = json.loads(res["json"])
            bad = [e.message for e in validator.iter_errors(report)] + workloads.gate(op, report)
            if bad:
                failed.add((j, i))
                problems.extend(f"op {i} {op['params']}: {b}" for b in bad)
            counts = workloads.coverage_counts(op, report)
            if counts is not None:
                found, expected = found + counts[0], expected + counts[1]
        # workloads without low-weight classification have nothing to miss
        coverage.append(found / expected if expected else 1.0)
    for i, d in enumerate(digests):
        if len(d) > 1:
            failed.update((j, i) for j in range(len(passes)))
            problems.append(f"op {i} {ops[i]['params']}: JSON differs across passes")

    plain = [r for r in passes if not r["traced"]]
    samples = {
        "setup_s": [r["setup_s"] for r in setups],
        "pass_s": [r["pass_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "search_coverage": coverage,
    }
    if args.trace:
        traced_runs = [r for r in passes if r["traced"]]
        samples = {name: [r["layers"][name] for r in traced_runs] for name in traced_runs[0]["layers"]}
        overhead = (statistics.median(r["pass_s"] for r in traced_runs)
                    - statistics.median(r["pass_s"] for r in plain))
        samples["trace.overhead_s"] = [overhead]
        samples["trace.overhead_ratio"] = [overhead / statistics.median(r["pass_s"] for r in plain)]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    missing = set(declared) - set(samples)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    stats = {name: summary(samples[name]) for name in declared}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "elapsed_s": time.monotonic() - start,
        "attempted": len(passes) * len(ops),
        "failed": len(failed),
        "problems": problems,
        "units": declared,
        "stats": stats,
        "samples": samples,
        "pass_wall_s": summary([r["wall_s"] for r in plain]),
        "setups_raw": [{k: r[k] for k in ("setup_wall_s", "probe_s")} for r in setups],
        "passes_raw": [{k: r[k] for k in ("traced", "setup_wall_s", "op_s", "probe_s")}
                       for r in passes],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal inputs, for the smoke test")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "pgcodes" / "__init__.py").is_file():
            raise BenchError(f"no pgcodes sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path.insert(0, str(ROOT / "src"))
        facts = machine_facts()
        result = run(args, spec)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    result["machine"] = facts
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")

    print("machine: " + json.dumps(facts))
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes in "
          f"{result['elapsed_s']:.1f} s, trace {args.trace}")
    for metric, s in result["stats"].items():
        unit = result["units"][metric]
        print(f"  {metric:<44} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    w = result["pass_wall_s"]
    print(f"  (pass wall time, not normalised: {w['median']:.6g} s, q1 {w['q1']:.6g}, q3 {w['q3']:.6g})")
    print(f"  failed_op_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for line in result["problems"][:20]:
        print("  FAIL " + line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": s["median"], "unit": result["units"][m]}
                    for m, s in result["stats"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
