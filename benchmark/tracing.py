"""Per-layer spans and work counts, taken from outside the analyzer.

The tracer wraps public functions of the analyzer's modules and records a
span (name, start, end, parent) for every call, plus work counts read off
the arguments and results.  Nothing under src/ is changed: the wrappers are
installed into every loaded module namespace that holds the function,
because "from .x import f" copies the binding, and removed afterwards.
Modules are reached through sys.modules, since the package re-exports some
functions under the names of their own submodules.

`terms` and `context` are not wrapped: their helpers run tens of thousands
of times per operation and wrapping them would distort the run.  Their time
shows up in the self time of their callers.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

PACKAGE = "secwitness"

# span name -> (module, function) it wraps; witness.render covers both
# renderers of a report.
TRACED = {
    "cli.main": [("cli", "main")],
    "roles.parse_protocol": [("roles", "parse_protocol")],
    "roles.roles_for": [("roles", "roles_for")],
    "roles.generalized_message_space": [("roles", "generalized_message_space")],
    "rewrite.check_well_protected": [("rewrite", "check_well_protected")],
    "rewrite.normalize": [("rewrite", "normalize")],
    "witness.analyze": [("witness", "analyze")],
    "witness.lower_bound": [("witness", "lower_bound")],
    "witness.reception_estimate": [("witness", "reception_estimate")],
    "witness.render": [("witness", "render_table"), ("witness", "to_json_lines")],
    "unify.unify_all": [("unify", "unify_all")],
    "unify.candidate_values": [("unify", "candidate_values")],
    "derive.contribution_of": [("derive", "contribution_of")],
    "selection.interpret": [("selection", "interpret")],
    "oracle.check_full_invariance": [("oracle", "check_full_invariance")],
    "oracle.check_non_disclosure": [("oracle", "check_non_disclosure")],
    "oracle.deduce_closure": [("oracle", "deduce_closure")],
    "oracle.random_well_protected_set": [("oracle", "random_well_protected_set")],
}


class Tracer:
    """Spans and counts of the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self._stack: list[list] = []     # open spans: [index, child time]
        self._installed: list[tuple[object, str, Callable]] = []
        self.op = -1
        self.ops: list[dict] = []        # per operation: counts and self times
        self._pairs: list[tuple] = []    # (pattern, target, unifiers) of unify_all

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, targets in TRACED.items():
            for module_name, func_name in targets:
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op]
            spans.append(rec)
            stack.append(frame)
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                duration = end - start
                op = self.ops[-1]
                op["self"][name] += duration - frame[1]
                op["calls"][name] += 1
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(self, op["counts"], args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.ops.append({"self": Counter(), "calls": Counter(), "counts": Counter()})
        self._pairs = []

    def end_op(self) -> None:
        """Counts that need the whole operation are taken here, outside
        every span, so that hashing the terms costs no layer any time."""
        counts = self.ops[-1]["counts"]
        per_pair: dict[tuple, int] = {}
        for pattern, target, n in self._pairs:
            per_pair[(pattern, target)] = n
        counts["unify.unify_all.distinct_pairs"] = len(per_pair)
        counts["unify.unify_all.max_unifiers_per_pair"] = max(per_pair.values(), default=0)
        self._pairs = []

    def dump(self, path: str) -> None:
        """Writes every span, one JSON array per line: name, start, end,
        parent index (-1 for a root), operation index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _count_unify_all(tracer: Tracer, counts: Counter, args, result) -> None:
    counts["unify.unify_all.unifiers"] += len(result)
    tracer._pairs.append((args[0], args[1], len(result)))


def _count_contribution(tracer: Tracer, counts: Counter, args, result) -> None:
    if result is not None:
        counts["derive.contribution_of.useful"] += 1


def _count_closure(tracer: Tracer, counts: Counter, args, result) -> None:
    counts["oracle.deduce_closure.terms"] += len(result.terms)
    counts["oracle.deduce_closure.truncated"] += int(result.truncated)


def _count_patterns(tracer: Tracer, counts: Counter, args, result) -> None:
    counts["roles.generalized_message_space.patterns"] += len(result)


def _count_rows(tracer: Tracer, counts: Counter, args, result) -> None:
    counts["witness.analyze.rows"] += len(result.rows)


_COUNTERS: dict[str, Callable] = {
    "unify.unify_all": _count_unify_all,
    "derive.contribution_of": _count_contribution,
    "oracle.deduce_closure": _count_closure,
    "roles.generalized_message_space": _count_patterns,
    "witness.analyze": _count_rows,
}


def op_metrics(op: dict) -> dict[str, float]:
    """The work counts of one operation, by metric name."""
    calls, counts = op["calls"], op["counts"]
    out: dict[str, float] = {}
    for name in ("unify.unify_all", "derive.contribution_of", "selection.interpret",
                 "rewrite.normalize", "oracle.deduce_closure", "witness.analyze",
                 "witness.lower_bound"):
        out[f"{name}.calls"] = calls[name]
    for key in ("unify.unify_all.distinct_pairs", "unify.unify_all.unifiers",
                "unify.unify_all.max_unifiers_per_pair", "oracle.deduce_closure.terms",
                "oracle.deduce_closure.truncated", "roles.generalized_message_space.patterns",
                "witness.analyze.rows"):
        out[key] = counts[key]
    useful = counts["derive.contribution_of.useful"]
    attempts = calls["derive.contribution_of"]
    out["derive.contribution_of.useful_ratio"] = useful / attempts if attempts else 0.0
    return out


def self_times(op: dict) -> dict[str, float]:
    """Self time in seconds of every traced layer during one operation."""
    return {f"{name}.self_s": op["self"][name] for name in TRACED}


def check_nesting(tracer: Tracer) -> Optional[str]:
    """Every span lies inside its parent; returns a description of the
    first one that does not."""
    spans = tracer.spans
    for i, (name, start, end, parent, _op) in enumerate(spans):
        if end < start:
            return f"span {i} ({name}) ends before it starts"
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]):
                return f"span {i} ({name}) lies outside its parent {parent} ({p[0]})"
    return None
