"""Outside-in tracing for the benchmark: spans around calls into each layer.

Nothing here imports the program.  The traced run hands the program thin
proxies (``workloads.py``) that sit at the layer boundaries -- the decode
closure, the preprocessing DAG, the model, the serving session, the store
calls -- and open a span around the real call.  Spans stay in memory and
are written as Chrome trace JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "op", "tid", "children")

    def __init__(self, name, start, parent, op, tid):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover.

        Children may run on other threads and overlap each other, so the
        covered part is the union of their intervals, not their sum.
        """
        return self.duration - union_length(
            (max(c.start, self.start), min(c.end, self.end))
            for c in self.children)


def union_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    A span's parent is the span open on the same thread.  A thread that has
    none (an engine producer, the serving thread) parents to the innermost
    open span that ``adopts``: the one whose call caused that thread's work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._adopter: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, op=None, adopts: bool = False):
        enclosing = getattr(self._local, "current", None)
        parent = enclosing or self._adopter
        span = Span(name, time.perf_counter(), parent, op,
                    threading.get_ident())
        self._local.current = span
        if adopts:
            outer, self._adopter = self._adopter, span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._local.current = enclosing
            if adopts:
                self._adopter = outer
            with self._lock:
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)

    def round(self, index: int):
        """The harness's span for the timed part of one round."""
        return self.span("harness.round", op=index, adopts=True)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome trace events (``chrome://tracing``)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
            "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
            "args": {"id": ids[id(s)], "op": s.op,
                     "parent": ids.get(id(s.parent))},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
