"""In-memory spans around the benchmark's calls into each layer.

The spans live in the benchmark, not in the program: each one wraps a
call into one public entry point (``Session.run``, ``run_experiment``,
``sample_block``, ``ResultCache.store``, ``POST /jobs`` ...).  A span is
``(name, start, end, parent, job)``; the layer is the name's first
dotted component.  Spans are kept in memory and written once, at the
end, as Chrome trace-event JSON (loadable in Perfetto).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "NULL_TRACER", "self_times", "layer_self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    job: "str | None"
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, job: "str | None" = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, job, threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON ("X" events, µs)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": os.getpid(),
                "tid": s.thread,
                "args": {"id": s.id, "parent": s.parent, "job": s.job},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _NullTracer:
    """Tracing off: ``span`` costs one call and records nothing."""

    def span(self, name: str, job: "str | None" = None):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans, in seconds."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.id]
    return totals
