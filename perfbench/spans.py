"""Span tracing installed from outside the program.

`Tracer.install` replaces the listed module bindings of `affsched` with
timing wrappers and `uninstall` puts the originals back; nothing under
`src/` is edited.  A span is (name, start, end, parent index, instance id,
attrs), kept in memory until `take`.  The per-point evaluators are called
once per enumerated point, so they are folded into their parent span as a
call count and busy time instead of one span each.
"""

from __future__ import annotations

import importlib
from statistics import median
from time import perf_counter


def _system_attrs(system) -> dict:
    touched = set()
    for col in system.columns:
        touched.update(i for i, c in enumerate(col.coeffs) if c)
    branches = 1
    for cands in system.witnesses.values():
        touched.update(i for w in cands for i, c in enumerate(w.s_tilde) if c)
        branches *= 2 * len(cands)
    return {"columns": len(system.columns), "vars": len(touched), "branches": branches}


def _comm_attrs(report) -> dict:
    return {
        "exchanges": len(report["exchanges"]),
        "broadcasts": sum(1 for b in report["broadcasts"] if b["eligible"]),
    }


def _validate_attrs(report) -> dict:
    return {"comm_count": report.comm_count, "lex_equal": len(report.lex_equal_warnings)}


# (module, attribute, span name, attrs of the result)
SPANS = (
    ("affsched", "load_nest", "nest.load", None),
    ("affsched", "run_procedure", "procedure.run", None),
    ("affsched", "comm_report", "comm.report", _comm_attrs),
    ("affsched", "validate", "validation.validate", _validate_attrs),
    ("affsched.procedure", "build_recursion_system", "constraints.build", _system_attrs),
    ("affsched.procedure", "solve", "solver.solve", lambda s: {"objective": float(s.objective)}),
    ("affsched.validation", "enumerate_domain", "nest.enum", lambda pts: {"points": len(pts)}),
    ("affsched.validation", "comm_report", "validation.comm_report", None),
    ("affsched.procedure", "rank", "algebra.rank", None),
    ("affsched.constraints", "rank", "algebra.rank", None),
    ("affsched.constraints", "integer_kernel_basis", "algebra.rank", None),
    ("affsched.comm", "integer_kernel_basis", "algebra.rank", None),
    ("affsched.validation", "rank", "algebra.rank", None),
)
FOLDED = (
    ("affsched.validation", "schedule_of", "validation.eval"),
    ("affsched.validation", "placement_of", "validation.eval"),
)

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "nest.load_s": "s",
    "nest.enum_s": "s",
    "nest.enum_points": "count",
    "constraints.build_s": "s",
    "constraints.columns": "count",
    "constraints.vars": "count",
    "constraints.witness_branches": "count",
    "solver.solve_s": "s",
    "solver.solve_max_s": "s",
    "solver.calls": "count",
    "solver.timeouts": "count",
    "solver.objective_sum": "objective",
    "procedure.run_s": "s",
    "procedure.self_s": "s",
    "comm.report_s": "s",
    "comm.exchanges": "count",
    "comm.broadcasts": "count",
    "validation.validate_s": "s",
    "validation.self_s": "s",
    "validation.eval_s": "s",
    "validation.eval_calls": "count",
    "validation.us_per_point": "us",
    "validation.lex_equal": "count",
    "algebra.rank_s": "s",
    "algebra.rank_calls": "count",
    "cli.solve_s": "s",
    "cli.validate_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.folded: dict[tuple, list] = {}  # (parent index, name) -> [calls, seconds]
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name, attrs in SPANS:
            self._patch(mod_name, attr, lambda fn, n=name, a=attrs: self._span(n, fn, a))
        for mod_name, attr, name in FOLDED:
            self._patch(mod_name, attr, lambda fn, n=name: self._fold(n, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> tuple[list, dict]:
        """Spans and folded counters recorded since the last call."""
        spans, folded = self.spans, self.folded
        self.spans, self.folded = [], {}
        return spans, folded

    def _patch(self, mod_name, attr, make):
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _span(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                   self.instance, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5]["error"] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[5].update(attrs(result))
            return result

        return wrapper

    def _fold(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (self._stack[-1] if self._stack else None, name)
                acc = self.folded.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += perf_counter() - t0

        return wrapper


def layer_metrics(spans: list, folded: dict) -> dict:
    """Per-layer totals of one pass from its spans."""

    def named(name):
        return [s for s in spans if s[0] == name]

    def busy(name):
        return sum(s[2] - s[1] for s in named(name))

    def total(name, key):
        return sum(s[5].get(key, 0) for s in named(name))

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    for (parent, _), (_, seconds) in folded.items():
        if parent is not None:
            child_time[parent] += seconds

    solves = [s[2] - s[1] for s in named("solver.solve")]
    eval_calls = sum(calls for (_, n), (calls, _) in folded.items() if n == "validation.eval")
    eval_s = sum(sec for (_, n), (_, sec) in folded.items() if n == "validation.eval")
    validate_s = busy("validation.validate")
    points = total("nest.enum", "points")
    return {
        "nest.load_s": busy("nest.load"),
        "nest.enum_s": busy("nest.enum"),
        "nest.enum_points": points,
        "constraints.build_s": busy("constraints.build"),
        "constraints.columns": total("constraints.build", "columns"),
        "constraints.vars": total("constraints.build", "vars"),
        "constraints.witness_branches": total("constraints.build", "branches"),
        "solver.solve_s": sum(solves),
        "solver.solve_max_s": max(solves, default=0.0),
        "solver.calls": len(solves),
        "solver.timeouts": sum(1 for s in named("solver.solve")
                               if s[5].get("error") == "SolverTimeout"),
        "solver.objective_sum": total("solver.solve", "objective"),
        "procedure.run_s": busy("procedure.run"),
        "procedure.self_s": busy("procedure.run") - busy("constraints.build")
        - busy("solver.solve"),
        "comm.report_s": busy("comm.report"),
        "comm.exchanges": total("comm.report", "exchanges"),
        "comm.broadcasts": total("comm.report", "broadcasts"),
        "comm_volume": total("validation.validate", "comm_count"),
        "validation.validate_s": validate_s,
        "validation.self_s": sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                                 if s[0] == "validation.validate"),
        "validation.eval_s": eval_s,
        "validation.eval_calls": eval_calls,
        "validation.us_per_point": validate_s / points * 1e6 if points else 0.0,
        "validation.lex_equal": total("validation.validate", "lex_equal"),
        "algebra.rank_s": busy("algebra.rank"),
        "algebra.rank_calls": len(named("algebra.rank")),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
