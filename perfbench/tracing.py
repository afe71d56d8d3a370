"""Per-layer trace of the program, recorded from outside it.

`Tracer.install` wraps the public functions of each `starquiver` module, and
the public methods of its classes, in spans.  Each wrapper replaces the
function wherever callers look it up: in every module namespace that imported
it by name, in the class dictionary, and in the CLI's command table.  `Poly`
arithmetic is far too frequent for one span per call, so it is kept as call
counts and summed time per operation kind.  A span's self time is its
duration minus the time of the spans and `Poly` operations it contains; a
layer's self time is the sum over its spans.  Spans stay in memory and are
written out by `Tracer.dump` when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("poly", "groebner", "quiver", "reconstruction", "charts", "invariants", "cli")

# Poly methods kept as counters, by metric group
POLY_GROUPS = {
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul", "scale": "mul",
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
    "__rsub__": "addsub", "__neg__": "addsub",
    "substitute": "substitute",
    "rename": "rename",
}


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent id, name, start, end)
        self._stack = []           # open frames: [span id, name, layer, start, child time]
        self.layer_self = defaultdict(float)
        self.inclusive = defaultdict(float)   # outermost calls of each span name
        self.calls = defaultdict(int)
        self._open = defaultdict(int)         # open calls per span name
        self.poly_calls = defaultdict(int)
        self.poly_time = defaultdict(float)
        self._in_poly = False
        self.counters = defaultdict(int)
        self.cover_time = 0.0
        self._patched = []         # (owner, key, original) to undo

    # -- recording ----------------------------------------------------------

    def _enter(self, name, layer):
        sid = len(self.spans)
        self.spans.append(None)
        self.calls[name] += 1
        self._open[name] += 1
        self._stack.append([sid, name, layer, perf_counter(), 0.0])

    def _leave(self):
        end = perf_counter()
        sid, name, layer, start, child = self._stack.pop()
        dur = end - start
        self.layer_self[layer] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self.spans[sid] = (sid, None if parent is None else parent[0], name, start, end)
        return dur

    def _span_wrapper(self, name, layer, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._leave()
            if on_result is not None:
                on_result(result, dur)
            return result

        return wrapper

    def _poly_wrapper(self, group, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_poly:
                return fn(*args, **kwargs)
            tracer._in_poly = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_poly = False
                tracer.poly_calls[group] += 1
                tracer.poly_time[group] += dt
                tracer.layer_self["poly"] += dt
                if tracer._stack:
                    tracer._stack[-1][4] += dt

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        """Wrap every layer of the `starquiver` package."""
        mods = {layer: importlib.import_module(f"starquiver.{layer}") for layer in LAYERS}
        Poly = mods["poly"].Poly
        for meth, group in POLY_GROUPS.items():
            self._set(Poly, meth, self._poly_wrapper(group, Poly.__dict__[meth]))

        self._wrap_ideal(mods["groebner"].Ideal)

        replacements = {}
        for layer, mod in mods.items():
            if layer == "poly":
                continue
            for key, obj in list(vars(mod).items()):
                if key.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{key}"
                    hook = self._cover_result if name == "charts.verify_cover" else None
                    replacements[obj] = self._span_wrapper(name, layer, obj, hook)
                elif inspect.isclass(obj):
                    for mkey, meth in list(vars(obj).items()):
                        if mkey.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._set(obj, mkey, self._span_wrapper(
                            f"{layer}.{key}.{mkey}", layer, meth))
        # every namespace that looks a wrapped function up by name
        for mod in mods.values():
            for key, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(mod, key, replacements[obj])
        table = mods["cli"]._COMMANDS
        for key, fn in list(table.items()):
            if fn in replacements:
                self._set(table, key, replacements[fn])

    def _wrap_ideal(self, Ideal):
        tracer = self
        init = Ideal.__dict__["__init__"]
        ensure = Ideal.__dict__["_ensure_basis"]

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            tracer.counters["groebner.ideals.built"] += 1
            return init(self, *args, **kwargs)

        @functools.wraps(ensure)
        def basis_span(self):
            # a span only when the basis is actually computed, not on a cache hit
            if self._basis_engine is not None:
                return ensure(self)
            tracer._enter("groebner.basis", "groebner")
            try:
                ensure(self)
            finally:
                tracer._leave()
            tracer.counters["groebner.basis_terms"] += sum(
                len(g.terms) for g in self._basis_poly)

        self._set(Ideal, "__init__", counted_init)
        self._set(Ideal, "_ensure_basis", basis_span)

    def _cover_result(self, report, dur):
        self.counters["charts.cover.supports"] += report.total_supports
        self.counters["charts.cover.checked"] += report.checked_supports
        self.cover_time += dur

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every per-layer metric, by name: (value, unit)."""
        inc, calls, c = self.inclusive, self.calls, self.counters
        supports, checked = c["charts.cover.supports"], c["charts.cover.checked"]
        out = {
            "groebner.basis.s": (inc["groebner.basis"], "s"),
            "groebner.basis.calls": (calls["groebner.basis"], "count"),
            "groebner.basis_terms": (c["groebner.basis_terms"], "count"),
            "groebner.eliminate.s": (inc["groebner.eliminate"], "s"),
            "groebner.eliminate.calls": (calls["groebner.eliminate"], "count"),
            "groebner.ideals.built": (c["groebner.ideals.built"], "count"),
            "groebner.krull_dimension.s": (inc["groebner.krull_dimension"], "s"),
            "groebner.ideals_equal.s": (inc["groebner.ideals_equal"], "s"),
            "groebner.normal_form.calls": (calls["groebner.Ideal.normal_form"], "count"),
            "groebner.normal_form.s": (inc["groebner.Ideal.normal_form"], "s"),
            "invariants.verify_minors_vanish.s":
                (inc["invariants.verify_minors_vanish"], "s"),
            "invariants.kernel_ideal.s": (inc["invariants.kernel_ideal"], "s"),
            "invariants.fibre_zero_presentation.s":
                (inc["invariants.fibre_zero_presentation"], "s"),
            "charts.chart_by_substitution.s": (inc["charts.chart_by_substitution"], "s"),
            "charts.fibre_chart.s": (inc["charts.fibre_chart"], "s"),
            "charts.smoothness_certificate.s": (inc["charts.smoothness_certificate"], "s"),
            "charts.verify_cover.s": (inc["charts.verify_cover"], "s"),
            "charts.cover.supports_per_s":
                (supports / self.cover_time if self.cover_time else 0.0, "1/s"),
            "charts.cover.checked_per_scanned":
                (checked / supports if supports else 0.0, "ratio"),
            "reconstruction.in_delta.calls": (calls["reconstruction.in_delta"], "count"),
        }
        for group in ("mul", "addsub", "substitute", "rename"):
            out[f"poly.{group}.calls"] = (self.poly_calls[group], "count")
            out[f"poly.{group}.s"] = (self.poly_time[group], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self[layer], "s")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out

    def dump(self, path: str, metrics: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start", "end"],
                "spans": self.spans,
                "poly": {g: {"calls": self.poly_calls[g], "s": self.poly_time[g]}
                         for g in sorted(self.poly_calls)},
                "counters": dict(self.counters),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }, fh)
