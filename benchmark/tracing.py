"""Spans recorded from outside menurev, and the per-layer metrics made from them.

`Tracer.install` replaces each public entry point listed in `TRACED` with a
wrapper, in every menurev module that holds a reference to it, so calls are
caught where their callers look them up (the package namespace, the module
that defines the function, and every module that imported it by name). Each
wrapped call appends one span: name, start, end, parent span, operation id
and a few attributes read off its arguments or result. `revenue_at`, which
runs once per valuation, gets no span of its own: inside a `check_monotone`
span its calls and seconds are added to that span's attributes, and
elsewhere it is only counted.

Spans stay in memory until `write` stores them; `layer_metrics` reads that
file back and derives every per-layer metric, self times included (a span's
duration minus the durations of its direct children).
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


# menurev and the workloads pass these arguments by position
def _grid_menus(args, kwargs, result) -> Dict[str, Any]:
    return {"examined": result.examined,
            "grid_menus": math.prod(len(ps) for ps in args[2].prices)}


def _atoms_arg(index: int):
    def attrs(args, kwargs, result):
        return {"atoms": len(args[index].atoms)}
    return attrs


def _audit(args, kwargs, result):
    points = len(set(tuple(v) for v in args[1]))
    return {"points": points, "pairs": points * (points - 1)}


def _rows(args, kwargs, result):
    out = {"rows": len(args[1])}
    if hasattr(result, "certified"):
        out["certified"] = bool(result.certified)
    return out


def _discretized(args, kwargs, result):
    return {"atoms": len(result.atoms)}


# (module, function, attributes read after the call)
TRACED = (
    ("menurev.search", "candidate_grid", None),
    ("menurev.search", "search_optimal", _grid_menus),
    ("menurev.search", "gap_report", None),
    ("menurev.buyer", "expected_revenue", _atoms_arg(1)),
    ("menurev.buyer", "check_monotone", _audit),
    ("menurev.constructions", "submodularize2", None),
    ("menurev.constructions", "symmetrize2", None),
    ("menurev.constructions", "three_halves_decomposition", None),
    ("menurev.regions", "region_partition_2", None),
    ("menurev.regions", "verify_against_buyer", None),
    ("menurev.model", "product", None),
    ("menurev.continuous", "solve_w", None),
    ("menurev.continuous", "er_discretize", _discretized),
    ("menurev.continuous", "numeric_gap_er", None),
    ("menurev.continuous", "er_cap_sweep", None),
    ("menurev.randomized", "lp_optimal", None),
    ("menurev.randomized", "verify_ic_ir", None),
    ("menurev.randomized", "best_false_name_deviation", None),
    ("menurev.lp", "certified_vertex", _rows),
    ("menurev.lp", "simplex_max", _rows),
    ("menurev.lp", "linprog", None),
    ("menurev.instances", "load_distribution", None),
    ("menurev.instances", "load_randomized_menu", None),
)
AUDIT = "buyer.check_monotone"


def span_name(module: str, function: str) -> str:
    return f"{module.split('.')[-1]}.{function}"


class Tracer:
    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self.op: Any = None  # "setup", or [round, operation index]
        self.passthrough = 0  # revenue_at calls outside audits
        self._stack: List[int] = []
        self._audit: Optional[Dict[str, Any]] = None
        self._patched: List[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                   "op": tracer.op}
            spans.append(rec)
            stack.append(rec["id"])
            outer_audit = tracer._audit
            if name == AUDIT:
                rec["eval_calls"], rec["eval_s"] = 0, 0.0
                tracer._audit = rec
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                stack.pop()
                tracer._audit = outer_audit
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def wrap_per_valuation(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            rec = tracer._audit
            if rec is None:
                tracer.passthrough += 1
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            rec["eval_s"] += perf_counter() - t0
            rec["eval_calls"] += 1
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module, function, attrs in TRACED:
            original = getattr(importlib.import_module(module), function)
            self._replace(original, self.wrap(span_name(module, function), original, attrs))
        original = importlib.import_module("menurev.buyer").revenue_at
        self._replace(original, self.wrap_per_valuation(original))

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "menurev" or modname.startswith("menurev.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path, rounds: int, overhead_per_round: float) -> None:
        with open(path, "w") as fh:
            json.dump({"rounds": rounds, "overhead_per_round_s": overhead_per_round,
                       "spans": self.spans}, fh)

    # -- cost of tracing ------------------------------------------------------

    def overhead(self, rounds: int) -> float:
        """Seconds per round the wrappers add: the wrapped calls counted in
        the round times each wrapper's cost, timed here on a no-op."""
        def noop(*args):
            return None

        probe = Tracer()
        reps = 10000
        costs = {}
        for kind, fn in (("span", probe.wrap("probe", noop)),
                         ("pass", probe.wrap_per_valuation(noop)),
                         ("audit", probe.wrap(AUDIT, probe.wrap_per_valuation(noop)))):
            t0 = perf_counter()
            for _ in range(reps):
                noop(1, 2)
            bare = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(reps):
                fn(1, 2)
            costs[kind] = max(0.0, perf_counter() - t0 - bare) / reps
        in_rounds = [s for s in self.spans if s["op"] != "setup"]
        audited_evals = sum(s.get("eval_calls", 0) for s in in_rounds)
        total = (len(in_rounds) * costs["span"] + self.passthrough * costs["pass"]
                 + audited_evals * (costs["audit"] - costs["span"]))
        return total / rounds


# ---------------------------------------------------------------------------
# Per-layer metrics from a trace file
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "search.calls": "count", "search.menus": "count", "search.grid_menus": "count",
    "search.self_s": "s", "search.menus_per_s": "1/s", "search.rescored": "count",
    "search.rescore_s": "s", "search.grid_s": "s",
    "buyer.revenue_calls": "count", "buyer.revenue_types": "count", "buyer.revenue_s": "s",
    "buyer.types_per_s": "1/s", "buyer.audit_s": "s", "buyer.audit_points": "count",
    "buyer.audit_pairs": "count", "buyer.audit_eval_s": "s", "buyer.audit_compare_s": "s",
    "constructions.calls": "count", "constructions.self_s": "s",
    "regions.calls": "count", "regions.s": "s",
    "model.product_s": "s",
    "continuous.discretize_s": "s", "continuous.atoms": "count", "continuous.self_s": "s",
    "randomized.lp_calls": "count", "randomized.lp_self_s": "s", "randomized.icir_s": "s",
    "randomized.deviation_s": "s",
    "lp.float_solve_s": "s", "lp.vertex_s": "s", "lp.rows": "count", "lp.certified": "count",
    "lp.simplex_calls": "count", "lp.simplex_s": "s",
    "instances.load_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(path) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from a trace file. Spans made during set-up count
    once; spans made during the rounds count per round (every round runs
    the same operations, so a count divides exactly)."""
    with open(path) as fh:
        doc = json.load(fh)
    spans, rounds = doc["spans"], doc["rounds"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s["id"]])

    def weight(s):
        return 1.0 if s["op"] == "setup" else 1.0 / rounds

    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def count(*names, key=None):
        total = sum(weight(s) * (1 if key is None else s.get(key, 0))
                    for n in names for s in by_name[n])
        return round(total) if abs(total - round(total)) < 1e-9 else total

    def seconds(*names, fn=dur):
        return sum((weight(s) * fn(s) for n in names for s in by_name[n]), 0.0)

    rescored = rescore_s = 0.0
    for s in by_name["search.search_optimal"]:
        evals = sorted((c for c in children[s["id"]] if c["name"] == "buyer.expected_revenue"),
                       key=lambda c: c["start"])[:-1]  # all but the final verification
        rescored += weight(s) * len(evals)
        rescore_s += weight(s) * sum(dur(c) for c in evals)

    regions = [s for n in ("regions.region_partition_2", "regions.verify_against_buyer")
               for s in by_name[n]]
    region_ids = {s["id"] for s in regions}
    constructions = ("constructions.submodularize2", "constructions.symmetrize2",
                     "constructions.three_halves_decomposition")
    search_self = seconds("search.search_optimal", "search.gap_report", fn=self_time)
    revenue_s = seconds("buyer.expected_revenue")
    audit_s = seconds(AUDIT)
    audit_eval_s = seconds(AUDIT, fn=lambda s: s.get("eval_s", 0.0))

    values = {
        "search.calls": count("search.search_optimal"),
        "search.menus": count("search.search_optimal", key="examined"),
        "search.grid_menus": count("search.search_optimal", key="grid_menus"),
        "search.self_s": search_self,
        "search.menus_per_s": count("search.search_optimal", key="examined") / search_self
        if search_self else 0.0,
        "search.rescored": round(rescored),
        "search.rescore_s": rescore_s,
        "search.grid_s": seconds("search.candidate_grid"),
        "buyer.revenue_calls": count("buyer.expected_revenue"),
        "buyer.revenue_types": count("buyer.expected_revenue", key="atoms"),
        "buyer.revenue_s": revenue_s,
        "buyer.types_per_s": count("buyer.expected_revenue", key="atoms") / revenue_s
        if revenue_s else 0.0,
        "buyer.audit_s": audit_s,
        "buyer.audit_points": count(AUDIT, key="points"),
        "buyer.audit_pairs": count(AUDIT, key="pairs"),
        "buyer.audit_eval_s": audit_eval_s,
        "buyer.audit_compare_s": audit_s - audit_eval_s,
        "constructions.calls": count(*constructions),
        "constructions.self_s": seconds(*constructions, fn=self_time),
        "regions.calls": count("regions.region_partition_2", "regions.verify_against_buyer"),
        "regions.s": sum((weight(s) * dur(s) for s in regions if s["parent"] not in region_ids), 0.0),
        "model.product_s": seconds("model.product"),
        "continuous.discretize_s": seconds("continuous.er_discretize"),
        "continuous.atoms": count("continuous.er_discretize", key="atoms"),
        "continuous.self_s": seconds("continuous.numeric_gap_er", "continuous.er_cap_sweep",
                                     "continuous.solve_w", fn=self_time),
        "randomized.lp_calls": count("randomized.lp_optimal"),
        "randomized.lp_self_s": seconds("randomized.lp_optimal", fn=self_time),
        "randomized.icir_s": seconds("randomized.verify_ic_ir"),
        "randomized.deviation_s": seconds("randomized.best_false_name_deviation"),
        "lp.float_solve_s": seconds("lp.linprog"),
        "lp.vertex_s": seconds("lp.certified_vertex", fn=self_time),
        "lp.rows": count("lp.certified_vertex", "lp.simplex_max", key="rows"),
        "lp.certified": count("lp.certified_vertex", key="certified"),
        "lp.simplex_calls": count("lp.simplex_max"),
        "lp.simplex_s": seconds("lp.simplex_max"),
        "instances.load_s": seconds("instances.load_distribution",
                                    "instances.load_randomized_menu"),
        "trace.overhead_s": doc["overhead_per_round_s"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
