"""In-memory span recorder for the traced benchmark run.

The benchmark wraps each call into a layer's public function in a span
(name, start, end, the span that caused it, request id).  Spans are kept
in memory and written out once, when the run ends.  A layer's *self time*
is its span's duration minus the part of that interval its child spans
cover, so nested layers never count the same microsecond twice.

Spans live in the benchmark's own files only; the program under test is
not instrumented (that is a later change).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["Tracer", "NullTracer", "self_times", "covered"]


class _Span:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(self._index)
        tracer.spans[self._index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][2] = end
        tracer._stack.pop()
        return False

    @property
    def seconds(self) -> float:
        """Duration of the finished span."""
        _, start, end, _, _ = self._tracer.spans[self._index]
        return end - start


class Tracer:
    """Records spans as ``[name, start, end, parent, request]`` rows.

    ``parent`` is the index of the enclosing span on this tracer's stack
    (``-1`` for a root); ``request`` ties the spans of one request
    together.  Single-threaded by design: the traced run drives the layers
    from one thread and awaits its front-door requests one at a time.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, request: int = -1) -> _Span:
        """Open a span; use as ``with tracer.span("tree.drain", request): ...``."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, request])
        return _Span(self, len(self.spans) - 1)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span (times relative to the first) plus ``meta``."""
        origin = min((row[1] for row in self.spans), default=0.0)
        selfs = self_times(self.spans)
        payload = {
            "meta": meta,
            "columns": ["name", "start_s", "end_s", "parent", "request", "self_s"],
            "spans": [
                [name, start - origin, end - origin, parent, request, selfs[i]]
                for i, (name, start, end, parent, request) in enumerate(self.spans)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class NullTracer:
    """Records nothing; the same code run with it costs what it costs untraced."""

    class _NoSpan:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> bool:
            return False

    _span = _NoSpan()

    def span(self, name: str, request: int = -1):
        return self._span


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may overlap each other and may stick out of ``[start, end]``
    (concurrent children of one parent do both); each covered instant
    counts once.
    """
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(start, end, children.get(i, ()))
        for i, (_, start, end, _, _) in enumerate(spans)
    ]
