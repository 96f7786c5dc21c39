"""One cold pass of a workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints a ready line (a ``time.monotonic`` stamp) once ``pgcodes``
is imported and the inputs are made; the runner counts set-up from the
process start to that stamp.  Then it runs every operation once and prints
one JSON line with each operation's time and report text, the worker's peak
RSS, the speed probes taken before each operation and after the last (on
the workloads in ``workloads.PROBE``) and, when traced, the per-layer
metrics.  With ``--setup-only`` it takes one interpreter probe after the
ready line, prints it and exits.

Other tenants of the host slow each CPU for stretches of seconds to
minutes, by up to half for interpreter work and less for numpy streaming
work.  A probe times a fixed computation that does not touch pgcodes; the
runner scales each operation's time by ``REF_S / probe`` with the probes
on either side of it, which takes that drift out where the probe is slowed
as much as the operation is.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads


class Probe:
    REF_S: float  # the probe's time on the reference machine when nothing slows it

    def once(self) -> None:
        raise NotImplementedError

    def __call__(self) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class InterpreterProbe(Probe):
    """Fills and queries a set of 60k short byte strings.

    Slowed about as much as pgcodes' interpreter-bound work; a loop that
    stays in the L1 cache is slowed much less.
    """

    REF_S = 6.0e-3

    def __init__(self):
        count = 60_000
        digits = np.random.default_rng(0).integers(0, 5, size=(count, 32), dtype=np.uint8)
        index = np.arange(count, dtype="<u4").view(np.uint8).reshape(count, 4)
        self.keys = [row.tobytes() for row in np.hstack([digits, index])]

    def once(self) -> None:
        seen = set()
        for key in self.keys:
            seen.add(key)
        if sum(key in seen for key in self.keys[::3]) != len(self.keys[::3]):
            raise AssertionError("probe lost a key")


class NumpyProbe(Probe):
    """Byte additions mod 3 on 1 MB arrays with a weight histogram, the shape
    of the spectrum kernel's inner step."""

    REF_S = 15e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.integers(0, 3, size=(8192, 128), dtype=np.uint8)
        self.b = rng.integers(0, 3, size=(8192, 128), dtype=np.uint8)

    def once(self) -> None:
        a = self.a
        for _ in range(4):
            a = a + self.b
            a %= 3
            np.bincount(np.count_nonzero(a, axis=1), minlength=129)


PROBES = {"interpreter": InterpreterProbe, "numpy": NumpyProbe}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import pgcodes
    from pgcodes import verify

    ops = workloads.operations(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps({"ready": time.monotonic(), "pgcodes": pgcodes.__file__}), flush=True)
    if args.setup_only:
        probe = InterpreterProbe()
        print(json.dumps({"probe_s": [probe()], "probe_ref_s": probe.REF_S}), flush=True)
        return 0

    kind = workloads.PROBE.get(args.workload)
    probe = PROBES[kind]() if kind else None
    results, op_s, probes = [], [], []
    for op in ops:
        if probe:
            probes.append(probe())
        start = time.perf_counter()
        try:
            report = verify.run_suite(op["params"], **op["kwargs"])
            results.append({"json": verify.emit_report(report, "json")})
        except Exception:  # one failed operation must not end the pass
            traceback.print_exc()
            results.append({"error": traceback.format_exc(limit=1)})
        op_s.append(time.perf_counter() - start)
    if probe:
        probes.append(probe())
    out = {
        "op_s": op_s,
        "probe_s": probes,
        "probe_ref_s": probe.REF_S if probe else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
