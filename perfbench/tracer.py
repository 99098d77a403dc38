"""Outside-in tracer: spans and work counters around the library's public
functions, installed from the benchmark without touching `src/`.

Callers bind names at import (`from .energy import rep_histogram`), so a
wrapper replaces every binding of the same function object in every
`addcomb.*` module, plus the suite table of the harness.  Modules are reached
through `sys.modules`: the package attribute `addcomb.energy` is the function
`energy`, which shadows the submodule.

A span is (name, start, end, parent span index, op id).  Self time is a
span's duration minus the time its child spans cover; one thread runs every
call, so children nest without overlap and the covered time is the sum of
their durations.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SUITES = ("exact", "oracle", "incidence", "decomposition", "regularization", "reports")


def _route(kernels, has_twin, args):
    compiled = getattr(kernels, "_compiled", None)
    if compiled is None:
        return "pure"
    fits = getattr(kernels, "_fits", None)
    if has_twin and fits is not None and fits(*args):
        return "compiled"
    return "fallback"


def _kernel_counter(work_name, work, has_twin=True):
    def count(c, args, kwargs, result):
        kernels = sys.modules["addcomb._kernels"]
        c[f"_kernels.route.{_route(kernels, has_twin, args)}"] += 1
        c[work_name] += work(*args)
    return count


def _rep_histogram_counter(c, args, kwargs, result):
    A, B = args[0], args[1]
    c["energy.rep_histogram.pairs"] += len(A) * len(B)
    c["energy.rep_histogram.keys"] += len(result.entries)


def _regularize_counter(c, args, kwargs, result):
    c["decompose.regularize.steps"] += len(result.steps)


def _candidates_counter(c, args, kwargs, result):
    c["ratios.popular_ratios.candidates"] += len(result)


def _emit_counter(c, args, kwargs, result):
    path = args[2]  # _emit(payload, command, path)
    if path != "-":
        c["cli.emit.bytes"] += os.path.getsize(path)


# (module, attribute, span name or None for count-only, counter or None)
TARGETS = [
    ("_kernels", "collinear_six_counts", "_kernels.collinear_six_counts",
     _kernel_counter("_kernels.collinear_six_counts.tuples",
                     lambda a, b, c: (len(a) * len(b) * len(c)) ** 2)),
    ("_kernels", "t_o_linehash", "_kernels.t_o_linehash",
     _kernel_counter("_kernels.t_o_linehash.pairs",
                     lambda g1, g2, g3: len(g1) ** 2 * len(g2) ** 2)),
    ("_kernels", "count_incidences", "_kernels.count_incidences",
     _kernel_counter("_kernels.count_incidences.checks",
                     lambda xs, ys, la, lb, lc: len(xs) * len(la))),
    ("_kernels", "mul_pairs_count", "_kernels.mul_pairs",
     _kernel_counter("_kernels.mul_pairs.pairs",
                     lambda x, y: len(x) ** 2 + len(y) ** 2)),
    ("_kernels_py", "mul_pairs_cross", "_kernels.mul_pairs",
     _kernel_counter("_kernels.mul_pairs.pairs",
                     lambda x1, x2, y1, y2: len(x1) * len(x2) + len(y1) * len(y2),
                     has_twin=False)),
    ("energy", "rep_histogram", "energy.rep_histogram", _rep_histogram_counter),
    ("energy", "energy", "energy.energy", None),
    ("energy", "energy_mul_product_form", "energy.energy_mul_product_form", None),
    ("energy", "l4_union_check", "energy.l4_union_check", None),
    ("ratios", "popular_ratios", "ratios.popular_ratios", None),
    ("ratios", "full_ratio_set", None, _candidates_counter),
    ("ratios", "ratio_profile", "ratios.ratio_profile", None),
    ("ratios", "r_of_z", "ratios.r_of_z", None),
    ("decompose", "bw_decompose", "decompose.bw_decompose", None),
    ("decompose", "xy_decompose", "decompose.xy_decompose", None),
    ("decompose", "extract_mult_structured", "decompose.extract_mult_structured", None),
    ("decompose", "regularize", "decompose.regularize", _regularize_counter),
    ("decompose", "best_z", "decompose.best_z", None),
    ("decompose", "recheck_certificate", "decompose.recheck", None),
    ("decompose", "recheck_reg_trace", "decompose.recheck", None),
    ("decompose", "dyadic_band", None, None),
    ("collinear", "t_count_brute", "collinear.t_count_brute", None),
    ("collinear", "t_split_brute", "collinear.t_split_brute", None),
    ("collinear", "t_o_count", "collinear.t_o_count", None),
    ("collinear", "triple_count_report", "collinear.triple_count_report", None),
    ("collinear", "t_identity_check", "collinear.t_identity_check", None),
    ("incidence", "incidences", "incidence.incidences", None),
    ("incidence", "st_bound_check", "incidence.st_bound_check", None),
    ("incidence", "rich_lines", "incidence.rich_lines", None),
    ("intervals", "decide_leq", "intervals.decide_leq", None),
    ("intervals", "power_sum_ratio_decimal", "intervals.power_sum_ratio_decimal", None),
    ("intervals", "power_sum_decimal", "intervals.power_sum_decimal", None),
    ("intervals", "ln2_bounds", "intervals.ln2_bounds", None),
    ("intervals", "log_squared_fraction_bounds",
     "intervals.log_squared_fraction_bounds", None),
    ("sets", "generate", "sets.generate", None),
    ("sets", "set_op", "sets.set_op", None),
    ("sets", "common_scale", "sets.integerize", None),
    ("sets", "scaled_ints", "sets.integerize", None),
    ("core", "canonical_line", "core.canonical_line", None),
    ("core", "line_through", "core.line_through", None),
    ("harness", "run_suite", "harness.run_suite", None),
    ("harness", "fit_exponent", "harness.fit_exponent", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", "cli.emit", _emit_counter),
] + [("harness", f"_suite_{s}", f"harness.suite.{s}", None) for s in SUITES]


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._op = -1
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "addcomb" or name.startswith("addcomb."))]
        self.missing = []
        for mod_name, attr, span, count in TARGETS:
            fn = getattr(sys.modules.get(f"addcomb.{mod_name}"), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, f"{mod_name}.{attr}", span, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((vars(mod), key, fn))
                        setattr(mod, key, wrapper)
            table = getattr(sys.modules.get("addcomb.harness"), "_SUITES", {})
            for key, val in list(table.items()):
                if val is fn:
                    self._patches.append((table, key, fn))
                    table[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patches):
            namespace[key] = fn
        self._patches = []

    def _wrap(self, fn, qualname, span, count):
        calls = f"{qualname}.calls"
        counters = self.counters
        if qualname == "intervals.decide_leq":
            fn = self._count_levels(fn)

        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[calls] += 1
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            return counted

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (span, t0, perf_counter(), parent, self._op)
                stack.pop()
            counters[calls] += 1
            if count is not None:
                count(counters, args, kwargs, result)
            return result
        return traced

    def _count_levels(self, decide_leq):
        # one precision level builds the left side once
        counters = self.counters

        def counted(lhs_builder, rhs_builder):
            def lhs():
                counters["intervals.decide_leq.levels"] += 1
                return lhs_builder()
            verdict = decide_leq(lhs, rhs_builder)
            if verdict is None:
                counters["intervals.decide_leq.inconclusive"] += 1
            return verdict
        return counted

    # -- one pass ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span tagged with its op id."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.spans[idx] = ("bench.op", t0, perf_counter(), -1, op_id)
            self._stack.pop()

    def times(self):
        """(self seconds by span name, total seconds by span name)."""
        child = [0.0] * len(self.spans)
        total: dict = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            total[name] += t1 - t0
        own: dict = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[i]
        return own, total

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{t0 - origin:.9f},{t1 - origin:.9f}\n")


def _layer_self(own: dict, layer: str) -> float:
    return sum(v for k, v in own.items() if k.startswith(layer + "."))


def _self(span):
    return lambda own, tot, c: own.get(span, 0.0)


def _count(key):
    return lambda own, tot, c: c.get(key, 0)


# (metric, unit, better, value from (self times, total times, counters))
PER_LAYER = [
    ("_kernels.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "_kernels")),
    ("_kernels.t_o_linehash.self_s", "s", "lower", _self("_kernels.t_o_linehash")),
    ("_kernels.t_o_linehash.pairs", "count", "lower", _count("_kernels.t_o_linehash.pairs")),
    ("_kernels.collinear_six_counts.self_s", "s", "lower",
     _self("_kernels.collinear_six_counts")),
    ("_kernels.collinear_six_counts.tuples", "count", "lower",
     _count("_kernels.collinear_six_counts.tuples")),
    ("_kernels.count_incidences.self_s", "s", "lower", _self("_kernels.count_incidences")),
    ("_kernels.count_incidences.checks", "count", "lower",
     _count("_kernels.count_incidences.checks")),
    ("_kernels.mul_pairs.self_s", "s", "lower", _self("_kernels.mul_pairs")),
    ("_kernels.mul_pairs.pairs", "count", "lower", _count("_kernels.mul_pairs.pairs")),
    ("_kernels.route.compiled", "count", "higher", _count("_kernels.route.compiled")),
    ("_kernels.route.pure", "count", "lower", _count("_kernels.route.pure")),
    ("_kernels.route.fallback", "count", "lower", _count("_kernels.route.fallback")),
    ("energy.rep_histogram.self_s", "s", "lower", _self("energy.rep_histogram")),
    ("energy.rep_histogram.calls", "count", "lower", _count("energy.rep_histogram.calls")),
    ("energy.rep_histogram.pairs", "count", "lower", _count("energy.rep_histogram.pairs")),
    ("energy.rep_histogram.keys", "count", "lower", _count("energy.rep_histogram.keys")),
    ("energy.energy.self_s", "s", "lower", _self("energy.energy")),
    ("energy.l4_union_check.self_s", "s", "lower", _self("energy.l4_union_check")),
    ("ratios.popular_ratios.self_s", "s", "lower", _self("ratios.popular_ratios")),
    ("ratios.popular_ratios.candidates", "count", "lower",
     _count("ratios.popular_ratios.candidates")),
    ("ratios.ratio_profile.self_s", "s", "lower", _self("ratios.ratio_profile")),
    ("decompose.bw_decompose.self_s", "s", "lower", _self("decompose.bw_decompose")),
    ("decompose.xy_decompose.self_s", "s", "lower", _self("decompose.xy_decompose")),
    ("decompose.regularize.self_s", "s", "lower", _self("decompose.regularize")),
    ("decompose.best_z.self_s", "s", "lower", _self("decompose.best_z")),
    ("decompose.recheck.self_s", "s", "lower", _self("decompose.recheck")),
    ("decompose.regularize.steps", "count", "lower", _count("decompose.regularize.steps")),
    ("decompose.dyadic_band.calls", "count", "lower", _count("decompose.dyadic_band.calls")),
    ("collinear.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "collinear")),
    ("collinear.t_identity_check.self_s", "s", "lower", _self("collinear.t_identity_check")),
    ("incidence.incidences.self_s", "s", "lower", _self("incidence.incidences")),
    ("incidence.st_bound_check.self_s", "s", "lower", _self("incidence.st_bound_check")),
    ("incidence.rich_lines.self_s", "s", "lower", _self("incidence.rich_lines")),
    ("intervals.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "intervals")),
    ("intervals.decide_leq.calls", "count", "lower", _count("intervals.decide_leq.calls")),
    ("intervals.decide_leq.levels", "count", "lower", _count("intervals.decide_leq.levels")),
    ("intervals.decide_leq.inconclusive", "count", "lower",
     _count("intervals.decide_leq.inconclusive")),
    ("sets.generate.self_s", "s", "lower", _self("sets.generate")),
    ("sets.set_op.self_s", "s", "lower", _self("sets.set_op")),
    ("sets.integerize.self_s", "s", "lower", _self("sets.integerize")),
    ("core.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "core")),
    ("core.canonical_line.calls", "count", "lower", _count("core.canonical_line.calls")),
    ("core.line_through.calls", "count", "lower", _count("core.line_through.calls")),
] + [
    (f"harness.suite.{s}_s", "s", "lower",
     lambda own, tot, c, s=s: tot.get(f"harness.suite.{s}", 0.0)) for s in SUITES
] + [
    ("harness.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "harness")),
    ("cli.emit.self_s", "s", "lower", _self("cli.emit")),
    ("cli.emit.bytes", "count", "lower", _count("cli.emit.bytes")),
    ("cli.self_s", "s", "lower", lambda own, tot, c: _layer_self(own, "cli")),
]
