"""Spans around bqp01's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every bqp01 module
namespace that holds it (the program looks functions up by module global,
so ``bqp01.dispatch.rank_factorize`` and ``bqp01.rank_one.rank_factorize``
are separate bindings of one function), plus four methods on the model
classes.  ``uninstall`` puts every original back.  A span is
(name, start, end, parent, request id); spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import bqp01

# Span name -> (module, attribute) of the function the span times.
FUNCTIONS = {
    "model.normalize_orientation": ("model", "normalize_orientation"),
    "model.evaluate_objective": ("model", "evaluate_objective"),
    "analysis.detect_nonnegative": ("analysis", "detect_nonnegative"),
    "analysis.detect_additive": ("analysis", "detect_additive"),
    "analysis.rank_factorize": ("analysis", "rank_factorize"),
    "analysis.min_negative_eliminator": ("analysis", "min_negative_eliminator"),
    "dispatch.dispatch_solve": ("dispatch", "dispatch_solve"),
    "dispatch.analyze": ("dispatch", "analyze"),
    "rank_one.solve_rank_one": ("rank_one", "solve_rank_one"),
    "additive.solve_additive": ("additive", "solve_additive"),
    "mincut.solve_nonnegative": ("mincut", "solve_nonnegative"),
    "mincut.max_flow": ("mincut", "max_flow"),
    "mincut.solve_with_eliminator": ("mincut", "solve_with_eliminator"),
    "mincut.reduce_with_fixing": ("mincut", "reduce_with_fixing"),
    "fixed_rank.solve_fixed_rank": ("fixed_rank", "solve_fixed_rank"),
    "fixed_rank.enumerate_dual_feasible_bases": ("fixed_rank", "enumerate_dual_feasible_bases"),
    "fixed_rank.candidates_from_basis": ("fixed_rank", "candidates_from_basis"),
    "fixed_rank.complete_y": ("fixed_rank", "complete_y"),
    "enumeration.solve_enumeration": ("enumeration", "solve_enumeration"),
    "textio.parse_instance": ("textio", "parse_instance"),
    "textio.format_solution": ("textio", "format_solution"),
    "transforms.cut_to_bqp01": ("transforms", "cut_to_bqp01"),
}

# Span name -> (class module, class, method).  Dataclass __init__ calls
# __post_init__ through the class, so replacing it there times freezing.
METHODS = {
    "model.instance_build": [("model", "Instance", "__post_init__"), ("model", "CutInstance", "__post_init__")],
    "rank_one.form_build": [("rank_one", "RankOneForm", "__post_init__")],
    "rank_one.from_instance": [("rank_one", "RankOneForm", "from_instance")],
}

# Work counted at a span's boundary: span name -> (counter, amount(args, result)).
COUNTERS = {
    "mincut.max_flow": ("arcs", lambda args, result: len(args[0].arcs)),
    "fixed_rank.candidates_from_basis": ("candidates", lambda args, result: len(result)),
    "fixed_rank.enumerate_dual_feasible_bases": ("bases", lambda args, result: len(result)),
    "enumeration.solve_enumeration": ("steps", lambda args, result: 1 << args[0].m),
    "textio.parse_instance": ("tokens", lambda args, result: len(args[0].split()) - 1),
}


def _package_modules():
    return [mod for name, mod in sys.modules.items() if name == "bqp01" or name.startswith("bqp01.")]


class Tracer:
    """Spans and boundary counts of the requests run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(getattr(bqp01, mod), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, targets in METHODS.items():
            for mod, cls_name, attr in targets:
                cls = getattr(getattr(bqp01, mod), cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapper = self._wrap(name, original)
                self._patched.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every original; returns the bindings that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        self._patched.clear()
        return left

    def totals(self, first: int = 0, last: int | None = None):
        """Per span name: calls, inclusive seconds, and self seconds."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        calls, incl, self_s = Counter(), Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[k]
        return calls, incl, self_s


def per_layer(calls, incl, self_s, counts, requests: int) -> dict[str, float]:
    """Per-layer metrics averaged per traced request (see perfbench/README.md)."""

    def per(value):
        return value / requests

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "model.instance_build_s": per(incl["model.instance_build"]),
        "model.normalize_orientation_s": per(incl["model.normalize_orientation"]),
        "model.evaluate_objective_calls": per(calls["model.evaluate_objective"]),
        "model.evaluate_objective_s": per(incl["model.evaluate_objective"]),
        "analysis.detect_nonnegative_s": per(incl["analysis.detect_nonnegative"]),
        "analysis.detect_additive_s": per(incl["analysis.detect_additive"]),
        "analysis.rank_factorize_s": per(incl["analysis.rank_factorize"]),
        "analysis.rank_factorize_calls": per(calls["analysis.rank_factorize"]),
        "analysis.min_negative_eliminator_s": per(incl["analysis.min_negative_eliminator"]),
        "dispatch.self_s": per(self_s["dispatch.dispatch_solve"]),
        "dispatch.analyze_calls": per(calls["dispatch.analyze"]),
        "rank_one.from_instance_s": per(incl["rank_one.from_instance"]),
        "rank_one.form_build_s": per(incl["rank_one.form_build"]),
        "rank_one.solve_s": per(incl["rank_one.solve_rank_one"]),
        "additive.solve_s": per(incl["additive.solve_additive"]),
        "mincut.max_flow_s": per(incl["mincut.max_flow"]),
        "mincut.max_flow_calls": per(calls["mincut.max_flow"]),
        "mincut.arcs_per_flow": ratio(counts["arcs"], calls["mincut.max_flow"]),
        "mincut.network_build_s": per(self_s["mincut.solve_nonnegative"]),
        "mincut.fixings": per(calls["mincut.reduce_with_fixing"]),
        "mincut.reduce_with_fixing_s": per(incl["mincut.reduce_with_fixing"]),
        "fixed_rank.solve_s": per(incl["fixed_rank.solve_fixed_rank"]),
        "fixed_rank.enumerate_bases_s": per(incl["fixed_rank.enumerate_dual_feasible_bases"]),
        "fixed_rank.bases": per(counts["bases"]),
        "fixed_rank.candidates": per(counts["candidates"]),
        "fixed_rank.complete_y_s": per(incl["fixed_rank.complete_y"]),
        "enumeration.solve_s": per(incl["enumeration.solve_enumeration"]),
        "enumeration.steps_per_s": ratio(counts["steps"], incl["enumeration.solve_enumeration"]),
        "textio.parse_instance_s": per(incl["textio.parse_instance"]),
        "textio.parse_tokens_per_s": ratio(counts["tokens"], incl["textio.parse_instance"]),
        "textio.format_solution_s": per(incl["textio.format_solution"]),
        "transforms.cut_to_bqp01_s": per(incl["transforms.cut_to_bqp01"]),
    }
