"""Span tracing of pgcodes from outside the package.

``Tracer.install`` wraps every public function (and every public method of
a public class) defined in the layer modules, then rebinds each name that
refers to an original, in every layer module and the package itself, so
names re-bound by ``from .. import`` (``pgcodes.verify.classify_word``) are
traced as well as ``pgcodes.analysis.classify_word``.  Nothing under
``src/`` changes.

Each call records a span ``[name, parent, start, end]`` in memory; the
spans are summarised, and optionally written out, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

from pgcodes.verify import SUITES

LAYERS = ("gf", "geometry", "code", "kernels", "analysis", "blocking", "verify", "cli")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _spectrum_counts(counters, args, result, dur):
    rows, p = args[0], args[1]
    k, n = rows.shape
    messages = p**k
    path = "gf2" if p == 2 else "modp"
    counters["kernels.spectrum.messages"] += messages
    # computed bytes: GF(2) words are bit-packed into 64-bit limbs
    counters["kernels.spectrum.bytes_computed"] += messages * (8 * -(-n // 64) if p == 2 else n)
    counters[f"kernels.spectrum.{path}.messages"] += messages
    counters[f"kernels.spectrum.{path}.s"] += dur


def _isd_counts(counters, args, result, dur):
    counters["kernels.isd_round.candidates"] += result.shape[0]
    counters["kernels.isd_round.scaled_candidates"] += result.shape[0] * (args[1] - 1)


def _search_counts(counters, args, result, dur):
    counters["analysis.low_weight_search.words"] += result.words.shape[0]


def _rref_counts(counters, args, result, dur):
    counters["code.rref_mod_p.pivots"] += len(result[1])


def _suite_timing(counters, args, result, dur):
    for name, seconds in result.timing.items():
        counters[f"verify.{name}.s"] += seconds


# closed-form arithmetic called from everywhere (theta: about 300k calls in a
# verify-exhaustive pass); a span would cost more than the call and its
# overhead would swamp the geometry layer's self time
UNTRACED = frozenset({"geometry.theta", "geometry.gaussian_binomial"})

# counters taken at the span boundary, keyed by span name
HOOKS = {
    "kernels.spectrum": _spectrum_counts,
    "kernels.isd_round": _isd_counts,
    "analysis.low_weight_search": _search_counts,
    "code.rref_mod_p": _rref_counts,
    "verify.run_suite": _suite_timing,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result, span[3] - span[2])
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        modules = [importlib.import_module(f"pgcodes.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                target = getattr(obj, "__wrapped__", obj)  # see through lru_cache
                if f"{layer}.{attr}" in UNTRACED:
                    continue
                if inspect.isfunction(target) and target.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in modules + [importlib.import_module("pgcodes")]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def write(self, path) -> None:
        """Write the spans as ``[name index, parent, start, end]`` rows."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), parent, start, end]
                for n, parent, start, end in self.spans]
        with open(path, "w") as f:
            json.dump({"names": list(names), "fields": ["name", "parent", "start", "end"],
                       "spans": rows}, f, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass from its spans and counters.

        A span's self time is its duration minus its direct children's.  A
        layer's ``self_s`` sums the self times of its spans.  A function's
        ``self_s`` is its time outside other layers' spans: calls it makes
        inside its own layer stay in it (``kernels.spectrum`` keeps the
        numpy kernel it dispatches to, ``low_weight_search`` drops its
        ``isd_round`` children).
        """
        spans = self.spans
        count = len(spans)
        child_total = [0.0] * count
        same_layer = [0.0] * count
        fn_calls: dict[str, int] = defaultdict(int)
        fn_self: dict[str, float] = defaultdict(float)
        fn_incl: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, float] = defaultdict(float)
        build_s = 0.0
        for i in range(count - 1, -1, -1):  # children come after their parent
            name, parent, start, end = spans[i]
            dur = end - start
            own = dur - child_total[i]
            outside = own + same_layer[i]
            layer = _layer(name)
            fn_calls[name] += 1
            fn_self[name] += outside
            fn_incl[name] += dur
            layer_calls[layer] += 1
            layer_self[layer] += own
            if parent >= 0:
                child_total[parent] += dur
                if _layer(spans[parent][0]) == layer:
                    same_layer[parent] += outside
                if name == "code.build_model" and spans[parent][0] == "verify.run_suite":
                    build_s += dur

        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "kernels.spectrum.calls": fn_calls["kernels.spectrum"],
            "kernels.spectrum.self_s": fn_self["kernels.spectrum"],
            "kernels.spectrum.messages": c["kernels.spectrum.messages"],
            "kernels.spectrum.bytes_computed": c["kernels.spectrum.bytes_computed"],
            "kernels.spectrum.gf2.msgs_per_s": ratio(
                c["kernels.spectrum.gf2.messages"], c["kernels.spectrum.gf2.s"]),
            "kernels.spectrum.modp.msgs_per_s": ratio(
                c["kernels.spectrum.modp.messages"], c["kernels.spectrum.modp.s"]),
            "kernels.isd_round.calls": fn_calls["kernels.isd_round"],
            "kernels.isd_round.self_s": fn_self["kernels.isd_round"],
            "kernels.isd_round.rounds_per_s": ratio(
                fn_calls["kernels.isd_round"], fn_self["kernels.isd_round"]),
            "kernels.isd_round.candidates": c["kernels.isd_round.candidates"],
            "analysis.low_weight_search.self_s": fn_self["analysis.low_weight_search"],
            "analysis.low_weight_search.new_word_ratio": ratio(
                c["analysis.low_weight_search.words"], c["kernels.isd_round.scaled_candidates"]),
            "analysis.classify_word.calls": fn_calls["analysis.classify_word"],
            "analysis.classify_word.self_s": fn_self["analysis.classify_word"],
            "analysis.enumerate_spectrum.self_s": fn_self["analysis.enumerate_spectrum"],
            "code.build_model.s": fn_incl["code.build_model"],
            "code.rref_mod_p.calls": fn_calls["code.rref_mod_p"],
            "code.rref_mod_p.self_s": fn_self["code.rref_mod_p"],
            "code.rref_mod_p.pivots": c["code.rref_mod_p.pivots"],
            "code.nullspace_mod_p.self_s": fn_self["code.nullspace_mod_p"],
            "verify.build_s": build_s,
            "verify.shared_phase_s": fn_incl["verify.run_suite"] - build_s
            - sum(c[f"verify.{s}.s"] for s in SUITES),
            "cli.emit_report.self_s": fn_self["verify.emit_report"],
            "trace.spans": count,
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.calls"] = layer_calls[layer]
                out[f"{layer}.self_s"] = layer_self[layer]
        for s in SUITES:
            out[f"verify.{s}.s"] = c[f"verify.{s}.s"]
        return out
