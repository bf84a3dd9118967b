"""Spans and counters around amcc's public functions, from outside `src/`.

`Tracer.install()` replaces every binding of each target function in every
loaded `amcc` module (a name like `contextual_fraction` is bound in
`amcc.lp`, `amcc.affine`, `amcc.verify`, `amcc.cli` and `amcc` itself) with a
wrapper that records a span: name, start, end, parent span and op id. Spans
stay in memory until the run ends. Counters are read from return values at
the same boundaries. `uninstall()` restores the original bindings.
"""

import sys
from math import prod
from time import perf_counter_ns

# public functions worth a span; sub-millisecond helpers (rat, marginalize,
# section_index, apply_plan, formula_of, ...) are left out
TARGETS = {
    "lp": ("contextual_fraction", "simplex_solve"),
    "model": ("model_from_json", "is_no_signaling", "is_maximal_marginals", "mix_models"),
    "affine": (
        "classify",
        "solve_support",
        "ns_equations",
        "ns_dimension",
        "family_to_json",
        "parameter_bounds",
        "family_member_params",
    ),
    "possibilistic": (
        "support_from_json",
        "strong_contextuality",
        "compatible_globals",
        "possibilistic_no_signaling",
    ),
    "kernels": ("compatible_mask", "scan_satisfiable"),
    "scenario": ("restriction_table", "incidence_matrix"),
    "parity": ("parity_scan", "parity_patterns", "build_symmetric_model"),
    "csp": ("search_plans", "reconstruct_tables"),
    "verify": ("run_checks", "covering_ncf", "random_no_signaling_model"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# (child, ancestor): calls of child made inside ancestor, per ancestor call
DUPLICATE_WORK = (
    ("model.is_no_signaling", "affine.classify", "model.is_no_signaling.calls_per_classify"),
    ("affine.ns_equations", "affine.solve_support", "affine.ns_equations.calls_per_solve"),
)

# count metric -> (unit, better)
COUNTS = {
    "lp.pivots": ("count", "lower"),
    "lp.pivots_max": ("count", "lower"),
    "lp.tableau_cells": ("count", "lower"),
    "lp.max_den_bits": ("bits", "lower"),
    "affine.ns_equations.rows": ("count", "lower"),
    "affine.rank": ("count", "lower"),
    "possibilistic.globals_scanned": ("count", "lower"),
    "kernels.elements": ("count", "lower"),
    "csp.trials": ("count", "higher"),
    "csp.hits": ("count", "higher"),
    "csp.hit_ratio": ("ratio", "higher"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _slots(scenario):
    return sum(prod(scenario.outcomes[m] for m in ctx) for ctx in scenario.cover)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.op = "setup"
        self._stack = []
        self._patched = []
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- installation -----------------------------------------------------

    def install(self):
        import amcc

        modules = [m for n, m in sys.modules.items() if n == "amcc" or n.startswith("amcc.")]
        for mod, fns in TARGETS.items():
            owner = getattr(amcc, mod)
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters read from return values -----------------------------------

    def _observe_lp_contextual_fraction(self, args, kwargs, res):
        c = self.counts
        c["lp.pivots"] += res.pivots
        c["lp.pivots_max"] = max(c["lp.pivots_max"], res.pivots)
        slots = _slots(_arg(args, kwargs, 0, "model").scenario)
        cells = slots * (len(res.distribution) + slots + 1)
        c["lp.tableau_cells"] = max(c["lp.tableau_cells"], cells)
        bits = max((x.denominator.bit_length() for x in res.distribution), default=0)
        c["lp.max_den_bits"] = max(c["lp.max_den_bits"], bits)

    def _observe_affine_ns_equations(self, args, kwargs, rows):
        c = self.counts
        c["affine.ns_equations.rows"] = max(c["affine.ns_equations.rows"], len(rows))

    def _observe_affine_ns_dimension(self, args, kwargs, dim):
        rank = _slots(_arg(args, kwargs, 0, "scenario")) - dim
        self.counts["affine.rank"] = max(self.counts["affine.rank"], rank)

    def _observe_affine_solve_support(self, args, kwargs, family):
        if family is None:
            return
        supported = sum(bin(mask).count("1") for mask in family.support.masks)
        rank = supported - family.dimension
        self.counts["affine.rank"] = max(self.counts["affine.rank"], rank)

    def _observe_possibilistic_compatible_globals(self, args, kwargs, found):
        sc = _arg(args, kwargs, 0, "support").scenario
        self.counts["possibilistic.globals_scanned"] += prod(sc.outcomes)

    def _observe_kernels_compatible_mask(self, args, kwargs, mask):
        table = _arg(args, kwargs, 1, "table")
        self.counts["kernels.elements"] += table.shape[0] * len(mask)

    def _observe_kernels_scan_satisfiable(self, args, kwargs, mask):
        patterns = _arg(args, kwargs, 0, "patterns")
        self.counts["kernels.elements"] += len(patterns) + len(mask)

    def _observe_csp_search_plans(self, args, kwargs, hits):
        c = self.counts
        c["csp.trials"] += _arg(args, kwargs, 2, "trials")
        c["csp.hits"] += len(hits)
        c["csp.hit_ratio"] = c["csp.hits"] / c["csp.trials"] if c["csp.trials"] else 0.0

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self):
        """calls, busy_ms and self_ms per span name, and the duplicate-work
        ratios. Busy time counts only the outermost span of a name; self time
        is a span's duration minus the time its child spans cover."""
        spans = self.spans
        calls = dict.fromkeys(SPAN_NAMES, 0)
        busy = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_ns[i]
            if not self._has_ancestor(i, name):
                busy[name] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_ms"] = busy[name] / 1e6
            out[f"{name}.self_ms"] = own[name] / 1e6
        for child, ancestor, metric in DUPLICATE_WORK:
            inside = sum(
                1 for i, s in enumerate(spans) if s[0] == child and self._has_ancestor(i, ancestor)
            )
            out[metric] = inside / calls[ancestor] if calls[ancestor] else 0.0
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def per_layer_specs(check_names):
    """(name, unit, better) of every per-layer metric, in print order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_ms", "ms", "lower"),
            (f"{name}.self_ms", "ms", "lower"),
        ]
    specs += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    specs += [(metric, "ratio", "lower") for _, _, metric in DUPLICATE_WORK]
    specs += [(f"verify.check.{name}.s", "s", "lower") for name in check_names]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs
