"""
Outside-in layer trace of the wachsposets package.

`Tracer.install()` rebinds the public functions of each layer at every
name the package calls them by, so the library itself stays untouched.
Each wrapper counts calls and records inclusive and self time (inclusive
minus the time spent in other wrapped functions it called).  `cli.main`
and `checks.run_cell` also record spans, kept in memory until
`collect()`.  Only the calling process is traced, not pool workers.

`perms` and `qpoly` are leaf helpers called millions of times, and
`is_wachs` is only counted: their time stays in the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

PACKAGE = "wachsposets"

# layer -> functions timed at every binding in the package
LAYERS = {
    "cli": ("main",),
    "checks": ("report", "run_cells", "run_cell"),
    "wachs": ("enumerate_wachs", "encode_a", "encode_b", "decode_a",
              "decode_b", "f_map", "rank_lw_a", "rank_lw_b", "wachs_leq_a",
              "wachs_leq_b", "wachs_covers_a", "wachs_covers_b",
              "mobius_closed_a", "mobius_closed_b", "closed_polys",
              "stats_distribution_check", "stabilizer_gi"),
    "bruhat": ("bruhat_leq_a", "bruhat_leq_b", "covers_a", "covers_b"),
    "posets": ("build_poset", "grade", "mobius_table",
               "characteristic_polynomial", "lattice_checks", "dual_check"),
    "weak": ("tl_set", "weak_leq", "weak_product_iso"),
}
# bruhat_leq_b calls bruhat_leq_a inside its own module; leaving that
# module's bindings alone counts only the calls entering the layer
ENTRY_ONLY = {"bruhat"}
TRUTH_COUNTED = {"bruhat.bruhat_leq_a", "bruhat.bruhat_leq_b"}
SPANNED = {"cli.main", "checks.run_cell"}


class Tracer:
    def __init__(self):
        # "layer.function" -> [calls, inclusive s, self s, truthy results]
        self.stats: dict = {}
        self.stack: list = [[0.0]]       # child time of each open call
        self.span_stack: list = []
        self.spans: list = []
        self.span_ids = itertools.count()
        self.counters = {"is_wachs": 0, "enumerate_tested": 0,
                         "enumerate_yielded": 0}

    # -------------------------------------------------------------- install

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}
        everywhere = [importlib.import_module(PACKAGE)] + list(mods.values())
        for layer, names in LAYERS.items():
            home = mods[layer]
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:    # renamed: its time stays in the caller
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, orig)
                if key == "wachs.enumerate_wachs":
                    wrapper = self._enumerate(wrapper)
                for mod in everywhere:
                    if mod is home and layer in ENTRY_ONLY:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
        is_wachs = getattr(mods["wachs"], "is_wachs", None)
        if is_wachs is not None:
            mods["wachs"].is_wachs = self._count(is_wachs)

    def _wrap(self, key: str, fn):
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter
        truth = key in TRUTH_COUNTED
        spanned = key in SPANNED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if spanned:
                self._open_span(key, args)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if spanned:
                    self._close_span(t0, dt)
            if truth and out:
                st[3] += 1
            return out

        return wrapper

    def _count(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters["is_wachs"] += 1
            return fn(*args)

        return wrapper

    def _enumerate(self, timed):
        counters = self.counters

        @functools.wraps(timed)
        def wrapper(*args, **kwargs):
            before = counters["is_wachs"]
            out = timed(*args, **kwargs)
            counters["enumerate_tested"] += counters["is_wachs"] - before
            counters["enumerate_yielded"] += len(out)
            return out

        return wrapper

    # ---------------------------------------------------------------- spans

    def _open_span(self, key: str, args) -> None:
        label = " ".join(map(str, args[0])) if args and args[0] else ""
        parent = self.span_stack[-1][0] if self.span_stack else None
        self.span_stack.append((next(self.span_ids), parent, key, label))

    def _close_span(self, t0: float, dt: float) -> None:
        span_id, parent, key, label = self.span_stack.pop()
        self.spans.append({"id": span_id, "parent": parent, "name": key,
                           "label": label, "start": t0, "end": t0 + dt})

    def collect(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "spans": self.spans}


def _sum(stats: dict, keys, field: int):
    return sum(stats.get(k, [0, 0.0, 0.0, 0])[field] for k in keys)


def _layer_self(stats: dict, layer: str) -> float:
    return sum(st[2] for key, st in stats.items()
               if key.split(".")[0] == layer)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values, by name, from a collected trace."""
    s, c = trace["stats"], trace["counters"]
    encode = ("wachs.encode_a", "wachs.encode_b")
    leq = ("wachs.wachs_leq_a", "wachs.wachs_leq_b")
    oracle = ("bruhat.bruhat_leq_a", "bruhat.bruhat_leq_b")
    cells = [sp["end"] - sp["start"] for sp in trace["spans"]
             if sp["name"] == "checks.run_cell"]
    return {
        "wachs.encode_calls": _sum(s, encode, 0),
        "wachs.encode_s": _sum(s, encode, 1),
        "wachs.leq_calls": _sum(s, leq, 0),
        "wachs.leq_self_s": _sum(s, leq, 2),
        "wachs.enumerate_s": _sum(s, ["wachs.enumerate_wachs"], 1),
        "wachs.enumerate_yield": _ratio(c["enumerate_yielded"],
                                        c["enumerate_tested"]),
        "bruhat.leq_calls": _sum(s, oracle, 0),
        "bruhat.self_s": _layer_self(s, "bruhat"),
        "bruhat.leq_true_ratio": _ratio(_sum(s, oracle, 3),
                                        _sum(s, oracle, 0)),
        "posets.build_calls": _sum(s, ["posets.build_poset"], 0),
        "posets.build_self_s": _sum(s, ["posets.build_poset"], 2),
        "posets.lattice_s": _sum(s, ["posets.lattice_checks"], 1),
        "posets.mobius_calls": _sum(s, ["posets.mobius_table"], 0),
        "posets.mobius_s": _sum(s, ["posets.mobius_table"], 1),
        "weak.tl_set_calls": _sum(s, ["weak.tl_set"], 0),
        "weak.self_s": _layer_self(s, "weak"),
        "checks.cells": len(cells),
        "checks.cell_s_sum": sum(cells),
        "checks.cell_s_max": max(cells, default=0.0),
        "checks.self_s": _layer_self(s, "checks"),
        "cli.self_s": _sum(s, ["cli.main"], 2),
    }
