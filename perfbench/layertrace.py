"""Per-layer spans and counts, taken from outside the package.

:class:`Tracer` replaces the public functions of each falkkit module with
timing wrappers, at every binding a caller looks up: the defining module,
every module that imported the function by name, and the package namespace.
It records one span (name, start, end, parent, request) per call and a few
counts, and puts the original functions back on :meth:`Tracer.uninstall`.
The package itself is not edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

#: span name -> (module, function); a function missing from the package is skipped
TARGETS = {
    "graphs.parse": ("falkkit.graphs", "parse"),
    "graphs.validate": ("falkkit.graphs", "validate"),
    "graphs.all_circles_small": ("falkkit.graphs", "all_circles_small"),
    "patterns.triangles": ("falkkit.patterns", "triangles"),
    "patterns.count_patterns": ("falkkit.patterns", "count_patterns"),
    "patterns.find_occurrences": ("falkkit.patterns", "find_occurrences"),
    "patterns.induced_subgraph": ("falkkit.patterns", "induced_subgraph"),
    "arrangement.arrangement": ("falkkit.arrangement", "arrangement"),
    "arrangement.dependent_3sets": ("falkkit.arrangement", "dependent_3sets"),
    "exterior.dim_A2": ("falkkit.exterior", "dim_A2"),
    "exterior.dim_I3_2": ("falkkit.exterior", "dim_I3_2"),
    "exterior.span_F3": ("falkkit.exterior", "span_F3"),
    "exterior.rank": ("falkkit.exterior", "rank"),
    "falk.verify": ("falkkit.falk", "verify"),
    "cli.main": ("falkkit.cli", "main"),
}

#: atlas pattern name -> count field, for the per-field occurrence spans
COUNT_FIELD_OF = {
    "K3": "k3", "K4": "k4", "D3": "d3", "D21": "d21", "K22": "k22", "K33": "k33",
    "Gcirc": "gcirc", "D31": "d31", "G1": "g1", "G2": "g2", "Theta3": "theta",
}

MODULES = ("graphs", "patterns", "arrangement", "exterior")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, parent: int | None, request: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target found in the package's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "falkkit" or name.startswith("falkkit."))
        ]
        for span_name, (module_name, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, binding, original in reversed(self._saved):
            setattr(module, binding, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_name = name
            if name == "patterns.find_occurrences":
                span_name = f"{name}.{COUNT_FIELD_OF.get(args[1].name, args[1].name)}"
            index = len(self.spans)
            span = Span(span_name, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                if name == "exterior.rank":
                    # a list, so rows and nonzeros can be counted afterwards
                    args = (list(args[0]),) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive and self times, calls and counts, for one traced pass."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_by_name: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            base = span.name
            if base.startswith("patterns.find_occurrences."):
                total[base] += span.duration
                base = "patterns.find_occurrences"
            total[base] += span.duration
            calls[base] += 1
            self_by_name[base] += own
        c = self.counts
        out = {
            "graphs.parse_s": total["graphs.parse"],
            "graphs.validate_s": total["graphs.validate"],
            "graphs.validate_calls": calls["graphs.validate"],
            "graphs.all_circles_small_s": total["graphs.all_circles_small"],
            "graphs.all_circles_small_calls": calls["graphs.all_circles_small"],
            "patterns.triangles_s": total["patterns.triangles"],
            "patterns.triangles_calls": calls["patterns.triangles"],
            "patterns.triangle_count": c["triangle_count"],
            "patterns.count_patterns_s": total["patterns.count_patterns"],
            "patterns.find_occurrences_s": total["patterns.find_occurrences"],
        }
        for field in COUNT_FIELD_OF.values():
            out[f"patterns.find_occurrences.{field}_s"] = total[f"patterns.find_occurrences.{field}"]
        candidates = calls["patterns.induced_subgraph"]
        out.update({
            "patterns.induced_subgraph_calls": candidates,
            "patterns.occurrences": c["occurrences"],
            "patterns.hit_ratio": c["occurrences"] / candidates if candidates else 0.0,
            "arrangement.arrangement_s": total["arrangement.arrangement"],
            "arrangement.arrangement_calls": calls["arrangement.arrangement"],
            "arrangement.dependent_3sets_s": total["arrangement.dependent_3sets"],
            "arrangement.dependent_3sets_calls": calls["arrangement.dependent_3sets"],
            "exterior.dim_A2_s": total["exterior.dim_A2"],
            "exterior.dim_I3_2_s": total["exterior.dim_I3_2"],
            "exterior.span_F3_s": total["exterior.span_F3"],
            "exterior.rank_s": total["exterior.rank"],
            "exterior.rank_calls": calls["exterior.rank"],
            "exterior.rows": c["rows"],
            "exterior.nonzeros": c["nonzeros"],
            "exterior.rank_sum": c["rank_sum"],
            "exterior.pivot_ratio": c["rank_sum"] / c["rows"] if c["rows"] else 0.0,
            "falk.verify_s": total["falk.verify"],
            "falk.verify_self_s": self_by_name["falk.verify"],
            "cli.main_s": total["cli.main"],
            "cli.main_self_s": self_by_name["cli.main"],
        })
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                own for name, own in self_by_name.items() if name.startswith(module + ".")
            )
        return out


def _count_triangles(counts, args, result) -> None:
    counts["triangle_count"] += len(result)


def _count_occurrences(counts, args, result) -> None:
    counts["occurrences"] += len(result)


def _count_rank(counts, args, result) -> None:
    rows = args[0]
    counts["rows"] += len(rows)
    counts["nonzeros"] += sum(len(row) for row in rows)
    counts["rank_sum"] += result


_COUNTERS = {
    "patterns.triangles": _count_triangles,
    "patterns.find_occurrences": _count_occurrences,
    "exterior.rank": _count_rank,
}
