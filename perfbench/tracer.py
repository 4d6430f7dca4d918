"""Spans around chowlab's public functions, installed from outside the library.

`Tracer.install` wraps every public function of the traced layers and
rebinds the wrapper in every loaded chowlab module that holds the original,
because `rings`, `dsl` and `cli.experiments` bind `buchberger`,
`intersect`, `normal_form` and others by name at import.  `coeff`, `poly`
and `_uni` get no spans: their functions run per term, so a wrapper would
swamp them, and their cost shows as the self time of the caller.

A span is `[name, start, end, parent, info]`: `start`/`end` come from
`time.monotonic`, `parent` is the index of the enclosing span (-1 at top
level) and `info` holds counts taken after the call returned, outside the
timed interval.  `layer_metrics` turns the spans of one pass into the
per-layer metrics of the benchmark.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from math import comb

TRACED_MODULES = (
    "chowlab.groebner",
    "chowlab.rings",
    "chowlab.curves",
    "chowlab.dsl",
    "chowlab.cli",
    "chowlab.cli.experiments",
)

# (metric name, unit); the traced run reports exactly these, in this order.
PER_LAYER = (
    ("groebner.buchberger.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.basis_terms", "count"),
    ("groebner.buchberger.redundant_calls", "count"),
    ("groebner.intersect.elimination_s", "s"),
    ("groebner.intersect.containment_s", "s"),
    ("groebner.intersect.kept_ratio", "ratio"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("rings.mingens_degrees.total_s", "s"),
    ("rings.mingens_degrees.buchberger_calls", "count"),
    ("rings.linalg_oracle.self_s", "s"),
    ("rings.linalg_oracle.rows", "count"),
    ("rings.linalg_oracle.pivot_ratio", "ratio"),
    ("rings.graded_dim.self_s", "s"),
    ("rings.hilbert_table.calls", "count"),
    ("rings.graded_intersection_dim.self_s", "s"),
    ("curves.residue.self_s", "s"),
    ("curves.symbol_tuple.self_s", "s"),
    ("curves.minpoly_of_power.self_s", "s"),
    ("dsl.parse.self_s", "s"),
    ("dsl.evaluate.self_s", "s"),
    ("cli.run_experiment.self_s", "s"),
    ("cli.golden_bytes.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records one span per call of a traced function, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._seen_bases = set()

    def install(self):
        """Wrap the traced layers' public functions wherever chowlab bound them."""
        wrappers = {}
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(mod_name)
            layer = mod_name.split(".")[1]
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod_name
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "chowlab" and not mod_name.startswith("chowlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def active(self):
        """Path of the spans open right now, outermost first; None if idle."""
        if not self._stack:
            return None
        return " > ".join(self.spans[i][0] for i in self._stack)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)
        clock = time.monotonic

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(self, args, result)
            return result

        return functools.wraps(fn)(traced)


def _count_buchberger(tracer, args, basis):
    from chowlab.poly import Polynomial

    # the same generator set buchberger itself keeps
    gens = frozenset(
        g for g in args[0] if isinstance(g, Polynomial) and not g.is_zero()
    )
    seen = tracer._seen_bases
    redundant = gens in seen
    seen.add(gens)
    seen.add(frozenset(basis))
    return {
        "size": len(basis),
        "terms": sum(p.num_terms() for p in basis),
        "redundant": redundant,
    }


def _count_intersect(tracer, args, ideal):
    return {"kept": len(ideal.generators)}


def _count_linalg_oracle(tracer, args, dim_quotient):
    from chowlab.poly import is_homogeneous

    ideal, d = args
    n = ideal.context.nvars
    rows = 0
    for g in ideal.generators:
        dg = is_homogeneous(g)
        if 0 <= dg <= d:
            rows += comb(d - dg + n - 1, n - 1)
    return {"rows": rows, "rank": comb(d + n - 1, n - 1) - dim_quotient}


_COUNTERS = {
    "groebner.buchberger": _count_buchberger,
    "groebner.intersect": _count_intersect,
    "rings.linalg_oracle": _count_linalg_oracle,
}


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(span_lists):
    """Per-layer metrics (all of PER_LAYER but trace.overhead_s) of one pass.

    `span_lists` holds one span list per op; parent indices are per op.
    """
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    n = defaultdict(int)
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, info = span
            self_s[name] += own
            total_s[name] += end - start
            calls[name] += 1
            caller = spans[parent][0] if parent >= 0 else None
            if name == "groebner.buchberger":
                n["basis_terms"] += info["terms"]
                n["redundant"] += info["redundant"]
                if caller == "groebner.intersect":
                    n["elim_size"] += info["size"]
                    total_s["elimination"] += end - start
                elif caller == "rings.mingens_degrees":
                    n["mingens_restarts"] += 1
            elif name == "groebner.ideal_member" and caller == "groebner.intersect":
                total_s["containment"] += end - start
            elif name == "groebner.intersect":
                n["kept"] += info["kept"]
            elif name == "rings.linalg_oracle":
                n["rows"] += info["rows"]
                n["rank"] += info["rank"]
    return {
        "groebner.buchberger.self_s": self_s["groebner.buchberger"],
        "groebner.buchberger.calls": calls["groebner.buchberger"],
        "groebner.buchberger.basis_terms": n["basis_terms"],
        "groebner.buchberger.redundant_calls": n["redundant"],
        "groebner.intersect.elimination_s": total_s["elimination"],
        "groebner.intersect.containment_s": total_s["containment"],
        "groebner.intersect.kept_ratio": _ratio(n["kept"], n["elim_size"]),
        "groebner.normal_form.self_s": self_s["groebner.normal_form"],
        "groebner.normal_form.calls": calls["groebner.normal_form"],
        "rings.mingens_degrees.total_s": total_s["rings.mingens_degrees"],
        "rings.mingens_degrees.buchberger_calls": n["mingens_restarts"],
        "rings.linalg_oracle.self_s": self_s["rings.linalg_oracle"],
        "rings.linalg_oracle.rows": n["rows"],
        "rings.linalg_oracle.pivot_ratio": _ratio(n["rank"], n["rows"]),
        "rings.graded_dim.self_s": self_s["rings.graded_dim"],
        "rings.hilbert_table.calls": calls["rings.hilbert_table"],
        "rings.graded_intersection_dim.self_s": self_s["rings.graded_intersection_dim"],
        "curves.residue.self_s": self_s["curves.residue"],
        "curves.symbol_tuple.self_s": self_s["curves.symbol_tuple"],
        "curves.minpoly_of_power.self_s": self_s["curves.minpoly_of_power"],
        "dsl.parse.self_s": self_s["dsl.parse"],
        "dsl.evaluate.self_s": self_s["dsl.evaluate"],
        "cli.run_experiment.self_s": self_s["cli.run_experiment"],
        "cli.golden_bytes.self_s": self_s["cli.golden_bytes"],
    }


def _ratio(num, den):
    return num / den if den else 0.0
