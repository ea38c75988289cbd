"""The traced run: wrap the public functions of every ffec module (and the
few methods that carry a layer's work), record one span per call in memory
(name, start, end, parent, note), and turn the spans into per-layer metrics.

Modules bind names such as places_up_to when they are imported, so each
wrapper replaces the original wherever an ffec module holds it, e.g. both
ffec.algebra.places_up_to and ffec.lfunction.places_up_to.  Spans keep a
single stack: the benchmark runs one job at a time on one thread.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("algebra", "weierstrass", "local", "lfunction", "towers",
           "heights_points", "berger", "catalog", "cli")
SHORT = {"heights_points": "heights"}

# methods that are a layer's boundary although they are not module functions
METHODS = (("algebra", "Poly", "gcd"), ("algebra", "ZechTable", "__init__"))


def _note_places(places):
    return dict(collections.Counter(v.degree for v in places))


def _note_l(lpoly, E):
    return {"N": lpoly.N, "curve": f"{E.field.q}:{E!r}"}


# what a span remembers of its call, for the metrics that need more than time
NOTES = {
    "algebra.places_up_to": lambda args, out: _note_places(out),
    "lfunction.l_polynomial": lambda args, out: _note_l(out, args[0]),
    "heights.canonical_height": lambda args, out: out.iterations,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, note]
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, out)
                return out
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self):
        """Wrap every public module-level function (generators excluded:
        their work runs in the caller) and the METHODS, and rebind each
        wrapper in every ffec module that holds the original."""
        mods = [importlib.import_module(f"ffec.{m}") for m in MODULES]
        holders = [m for name, m in sys.modules.items()
                   if name == "ffec" or name.startswith("ffec.")]
        for mod in mods:
            short = SHORT.get(mod.__name__.split(".")[-1], mod.__name__.split(".")[-1])
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped = self.wrap(f"{short}.{name}", obj)
                for h in holders:
                    for attr, val in list(vars(h).items()):
                        if val is obj:
                            setattr(h, attr, wrapped)
        for modname, cls, meth in METHODS:
            klass = getattr(importlib.import_module(f"ffec.{modname}"), cls)
            label = f"{modname}.{cls}" + ("" if meth == "__init__" else f".{meth}")
            setattr(klass, meth, self.wrap(label, getattr(klass, meth)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "note": note}) + "\n")


def layer_metrics(spans, extra) -> dict:
    """Per-layer metrics from the spans; extra holds the ones measured
    outside the spans (import times, emitted bytes, cache counters)."""
    child_time = collections.defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    def outermost(i):
        """Whether no ancestor span has the same name (recursion counted once)."""
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    count = collections.Counter()
    incl = collections.defaultdict(float)
    self_t = collections.defaultdict(float)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        count[name] += 1
        self_t[name] += (t1 - t0) - child_time[i]
        if outermost(i):
            incl[name] += t1 - t0

    # Euler products: the places_up_to call inside an l_polynomial call
    products = [(i, spans[p]) for i, (name, _, _, p, _) in enumerate(spans)
                if name == "algebra.places_up_to" and p >= 0
                and spans[p][0] == "lfunction.l_polynomial"]
    consumed = useful = 0
    for i, parent in products:
        hist = spans[i][4] or {}
        n = parent[4]["N"] if parent[4] else 0
        consumed += sum(hist.values())
        useful += sum(c for deg, c in hist.items() if deg <= n)

    # repeated products: same curve already expanded earlier in one scan
    repeats = 0
    seen = collections.defaultdict(set)
    for i, parent in products:
        scan = _ancestor(spans, i, "towers.rank_growth_scan")
        if scan is None or not parent[4]:
            continue
        key = parent[4]["curve"]
        if key in seen[scan]:
            repeats += 1
        seen[scan].add(key)

    doublings = sum(note for name, _, _, _, note in spans
                    if name == "heights.canonical_height" and note)
    hits, misses = extra["tate_cache"]
    m = {
        "import.ffec_s": (extra["import_ffec_s"], "s"),
        "import.sympy_s": (extra["import_sympy_s"], "s"),
        "cli.parse_s": (incl["weierstrass.parse_curve_file"], "s"),
        "cli.emit_kb": (extra["emit_bytes"] / 1024, "KB"),
        "algebra.places_s": (incl["algebra.places_up_to"], "s"),
        "algebra.places_enumerated": (
            sum(sum((s[4] or {}).values()) for s in spans if s[0] == "algebra.places_up_to"), "count"),
        "algebra.residue_tables": (count["algebra.ZechTable"], "count"),
        "algebra.residue_tables_s": (incl["algebra.ZechTable"], "s"),
        "algebra.point_counts": (count["algebra.count_ws_points"], "count"),
        "algebra.point_count_self_s": (self_t["algebra.count_ws_points"], "s"),
        "algebra.factor_s": (incl["algebra.factor_poly"], "s"),
        "algebra.gcd_calls": (count["algebra.Poly.gcd"], "count"),
        "algebra.gcd_s": (incl["algebra.Poly.gcd"], "s"),
        "weierstrass.min_model_s": (incl["weierstrass.minimal_polynomial_model"], "s"),
        "weierstrass.base_change_s": (incl["weierstrass.base_change_pow"], "s"),
        "weierstrass.adds": (count["weierstrass.ws_add"], "count"),
        "weierstrass.add_s": (incl["weierstrass.ws_add"], "s"),
        "local.tate_calls": (count["local.tate_type"], "count"),
        "local.tate_s": (incl["local.tate_type"], "s"),
        "local.tate_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "local.conductor_s": (incl["local.conductor"], "s"),
        "lfunction.euler_products": (len(products), "count"),
        "lfunction.euler_self_s": (self_t["lfunction.l_polynomial"], "s"),
        "lfunction.place_yield": (useful / consumed if consumed else 0.0, "ratio"),
        "towers.tower_l_s": (incl["towers.tower_l"], "s"),
        "towers.repeat_products": (repeats, "count"),
        "towers.factor_s": (incl["towers.factor_degrees"], "s"),
        "heights.family_s": (incl["heights.legendre_family"], "s"),
        "heights.height_s": (incl["heights.canonical_height"], "s"),
        "heights.doublings": (doublings, "count"),
        "heights.gram_s": (incl["heights.gram_matrix"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return None
