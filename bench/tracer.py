"""Spans around polyakit's public functions, installed from outside the
package.

``Tracer.install`` replaces every binding of each target function in
every loaded ``polyakit`` module (``from .x import f`` copies included)
with a wrapper that records a span ``(id, parent, item, name, start,
end)`` in memory.  ``uninstall`` puts the originals back.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from polyakit import cubicfield


PERMGROUP_LAYERS = (
    "parse_group_file", "group_closure", "point_stabilizer", "coset_action",
    "check_condition_2B", "compute_T", "derived_subgroup", "generated_subgroup",
    "is_frobenius", "is_2transitive",
)


def _hnf_split(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return "intlinalg.hnf_rows.relations" if len(rows) > 9 else "intlinalg.hnf_rows.small"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.item = -1
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._factor_keys: set = set()

    # -- observers: counters measured where the work happens ------------

    def _obs_factor_prime(self, args, kwargs, result, exc):
        order, p = args[0], args[1] if len(args) > 1 else kwargs["p"]
        poly = order.poly
        self._factor_keys.add((poly.a2, poly.a1, poly.a0, p))

    def _obs_is_principal(self, args, kwargs, result, exc):
        if isinstance(exc, cubicfield.SearchBudgetExceededError):
            self.counters["is_principal.overrun"] += 1
        elif exc is None:
            self.counters["is_principal.none" if result is None else "is_principal.hit"] += 1

    def _obs_class_group(self, args, kwargs, result, exc):
        if exc is None:
            c = self.counters
            c["class_group.fb_size_max"] = max(c["class_group.fb_size_max"], len(result.fb))
            c["class_group.budget_max"] = max(c["class_group.budget_max"], result.budget)
            c["class_group.certified_trivial"] += bool(result.certified_trivial)

    def _obs_hnf_rows(self, args, kwargs, result, exc):
        rows = args[0] if args else kwargs["rows"]
        c = self.counters
        c["hnf_rows.rows_max"] = max(c["hnf_rows.rows_max"], len(rows))

    def _obs_group_closure(self, args, kwargs, result, exc):
        if exc is None:
            self.counters["group_closure.elements"] += result.order

    def targets(self):
        """(module, attribute, span name or splitter, observer)."""
        return [
            ("cubicfield", "maximal_order", None, None),
            ("cubicfield", "factor_prime", None, self._obs_factor_prime),
            ("modpoly", "factor_monic_cubic", None, None),
            ("cubicfield", "element_valuation", None, None),
            ("cubicfield", "is_principal", None, self._obs_is_principal),
            ("classgroup", "class_group", None, self._obs_class_group),
            ("classgroup", "polya_group", None, None),
            ("classgroup", "prime_class_vector", None, None),
            ("intlinalg", "hnf_rows", _hnf_split, self._obs_hnf_rows),
            ("intlinalg", "smith_normal_form", None, None),
            ("artin", "abelianization", None, None),
            ("cli", "main", None, None),
        ] + [
            ("permgroup", name, None, self._obs_group_closure if name == "group_closure" else None)
            for name in PERMGROUP_LAYERS
        ]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, split, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = split(args, kwargs) if split else name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe:
                    observe(args, kwargs, None, exc)
                raise
            finally:
                spans[sid] = (sid, parent, self.item, label, start, clock())
                stack.pop()
            if observe:
                observe(args, kwargs, result, None)
            return result

        return traced

    def install(self):
        mods = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "polyakit" or name.startswith("polyakit.")
        }
        for modname, attr, split, observe in self.targets():
            original = getattr(mods[f"polyakit.{modname}"], attr)
            wrapper = self._wrap(original, f"{modname}.{attr}", split, observe)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        # norm_omega runs up to 400,000 times per principality query:
        # count it without a span
        counters, original = self.counters, cubicfield.MaximalOrder.norm_omega

        @functools.wraps(original)
        def counted(order, y):
            counters["norm_omega.calls"] += 1
            return original(order, y)

        self._patch(cubicfield.MaximalOrder, "norm_omega", counted)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_item(self, index: int):
        """Open the root span of one item; returns its id for end_item."""
        self.item = index
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def end_item(self, token):
        sid, start = token
        self._stack.pop()
        self.spans[sid] = (sid, None, self.item, "item", start, time.perf_counter())

    # -- results ---------------------------------------------------------

    def write_jsonl(self, path):
        """A header line naming the fields, then one array per span; times
        are seconds from the first span's start."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "item", "name", "start", "end"]}) + "\n")
            for sid, parent, item, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, item, name,
                                     round(start - t0, 7), round(end - t0, 7)]) + "\n")

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, _, name, start, end in self.spans:
            t = totals[name]
            t[0] += 1
            t[1] += end - start - child[sid]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def per_layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Metric name -> (value, unit), the names listed in BENCHMARK.json."""
        totals = self.layer_totals()
        c = self.counters
        out: dict[str, tuple[float, str]] = {}

        def layer(name, parts=None):
            calls = sum(totals.get(p, (0, 0.0))[0] for p in parts or [name])
            self_s = sum(totals.get(p, (0, 0.0))[1] for p in parts or [name])
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            return calls

        def frac(num, den):
            return num / den if den else 0.0

        layer("cubicfield.maximal_order")
        fp = layer("cubicfield.factor_prime")
        out["cubicfield.factor_prime.distinct_frac"] = (frac(len(self._factor_keys), fp), "ratio")
        layer("modpoly.factor_monic_cubic")
        layer("cubicfield.element_valuation")
        out["cubicfield.MaximalOrder.norm_omega.calls"] = (c["norm_omega.calls"], "count")
        ip = layer("cubicfield.is_principal")
        for kind in ("hit", "none", "overrun"):
            out[f"cubicfield.is_principal.{kind}_frac"] = (frac(c[f"is_principal.{kind}"], ip), "ratio")
        cg = layer("classgroup.class_group")
        out["classgroup.class_group.fb_size_max"] = (c["class_group.fb_size_max"], "count")
        out["classgroup.class_group.budget_max"] = (c["class_group.budget_max"], "count")
        out["classgroup.class_group.certified_trivial_frac"] = (
            frac(c["class_group.certified_trivial"], cg), "ratio")
        layer("classgroup.polya_group")
        layer("classgroup.prime_class_vector")
        rel, small = "intlinalg.hnf_rows.relations", "intlinalg.hnf_rows.small"
        layer("intlinalg.hnf_rows", [rel, small])
        layer(rel)
        layer(small)
        out["intlinalg.hnf_rows.rows_max"] = (c["hnf_rows.rows_max"], "count")
        layer("intlinalg.smith_normal_form")
        for name in PERMGROUP_LAYERS:
            layer(f"permgroup.{name}")
        out["permgroup.group_closure.elements"] = (c["group_closure.elements"], "count")
        layer("artin.abelianization")
        layer("cli.main")
        return out
