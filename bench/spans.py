"""In-memory spans around the benchmark's calls into transdim.

A span is named ``<layer>.<call>`` and records its start, end, parent span
and pass id.  Spans stay in memory until the run ends; the launcher then
writes them out.  ``NO_TRACE`` has the same interface and records nothing,
so untraced passes run the same code without the bookkeeping.
"""

from __future__ import annotations

import contextlib
import time


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index]["end"] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Collects spans; ``span(name)`` is a context manager."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.pass_id: int | None = None

    def span(self, name: str) -> _Span:
        index = len(self.spans)
        self.spans.append({
            "id": index,
            "name": name,
            "pass": self.pass_id,
            "parent": self.stack[-1] if self.stack else None,
            "start": None,
            "end": None,
        })
        self.stack.append(index)
        return _Span(self, index)


class _NoTrace:
    def __init__(self):
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (the benchmark is single
    threaded), so their durations add without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_time(spans: list[dict], pass_id: int) -> dict[str, float]:
    """Self time per layer (the part of a span name before the first dot)."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s["pass"] == pass_id:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
    return out


def call_time(spans: list[dict], pass_id: int, name: str) -> float:
    """Total duration of the spans called ``name`` in one pass."""
    return sum(s["end"] - s["start"] for s in spans
               if s["pass"] == pass_id and s["name"] == name)
