"""In-memory spans around the benchmark's calls into jointrdf.

A span records name, start, end, parent span and the id of the point it
belongs to.  Spans are kept in a list and written out once, when the run
ends.  With tracing off, :meth:`Tracer.call` is a plain call, so the
untraced run measures the program alone.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# Map SolveReport.branch values to the per-layer metric suffix.
BRANCH_KEYS = {
    "ZeroRate": "zero_rate",
    "ClosedFormInteriorD": "closed_form",
    "InteriorPoint": "interior_point",
    "Infeasible": "infeasible",
}

# Functions reported as <name>.{calls,ms_p50,ms_total}, whether or not the
# workload calls them (a layer the workload skips reports zeros).
TIMED_LAYERS = (
    "model.validate_source",
    "model.gray_lower_bound",
    "solver.in_region_d",
    "solver.kkt_residuals",
    "solver.solve.zero_rate",
    "solver.solve.closed_form",
    "solver.solve.interior_point",
    "realization.realize",
    "realization.verify_condition1",
    "canonical.to_canonical_form",
    "sim.sample_source",
    "sim.push_channel",
    "sim.check_distortion",
    "sim.check_cm_optimality",
)
SCALING_DIMS = (6, 8, 10, 12)


class Tracer:
    """Span recorder; ``enabled`` may be switched between passes."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.last: dict | None = None

    def _open(self, name: str, point) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "point": point if point is not None else self._current_point(),
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.last = span

    def _current_point(self):
        return self.spans[self._stack[-1]]["point"] if self._stack else None

    @contextmanager
    def span(self, name: str, point=None):
        """Group the calls of one point (or its checks) under a parent span."""
        if not self.enabled:
            yield
            return
        span = self._open(name, point)
        try:
            yield
        finally:
            self._close(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span closed last (no-op when off)."""
        if self.enabled and self.last is not None:
            self.last["attrs"].update(attrs)


def _layer_key(span: dict) -> str:
    if span["name"] == "solver.solve":
        return "solver.solve." + BRANCH_KEYS[span["attrs"]["branch"]]
    return span["name"]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer calls, median and total time from the recorded spans."""
    durations: dict[str, list[float]] = {}
    solve_by_n: dict[int, list[float]] = {}
    for span in spans:
        ms = (span["end"] - span["start"]) * 1e3
        durations.setdefault(_layer_key(span), []).append(ms)
        if span["name"] == "solver.solve":
            solve_by_n.setdefault(span["attrs"]["n"], []).append(ms)
    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        ms = durations.get(layer, [])
        out[f"{layer}.calls"] = (len(ms), "count")
        out[f"{layer}.ms_p50"] = (statistics.median(ms) if ms else 0.0, "ms")
        out[f"{layer}.ms_total"] = (sum(ms), "ms")
    for n in SCALING_DIMS:
        ms = solve_by_n.get(n, [])
        out[f"solver.solve.n{n}.ms_p50"] = (statistics.median(ms) if ms else 0.0, "ms")
    return out
