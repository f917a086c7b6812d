"""In-memory spans around the benchmark's calls into each layer.

The benchmark times every call it makes into the program itself (the
program is not instrumented).  A :class:`Tracer` keeps those timings as
spans -- name, start, end, thread -- and derives each span's parent at
export time: spans on one thread nest, so the parent is the innermost span
that encloses it.  ``Tracer(enabled=False)`` records nothing, which is how
the untraced run measures end-to-end metrics.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    phase: str
    start_ns: int
    end_ns: int
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Span recorder; ``phase`` tags which replay a span belongs to."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.phase = ""
        self.spans: list[Span] = []

    def span(self, name: str, start_ns: int, end_ns: int) -> None:
        if self.enabled:
            self.spans.append(
                Span(name, self.phase, start_ns, end_ns, threading.get_ident())
            )

    def select(self, phase: str, name: str) -> list[Span]:
        return [s for s in self.spans if s.phase == phase and s.name == name]

    def parents(self) -> list[int]:
        """Index of each span's parent span (-1 for a root)."""
        parent = [-1] * len(self.spans)
        by_thread: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            by_thread[span.thread].append(index)
        for indices in by_thread.values():
            indices.sort(key=lambda i: (self.spans[i].start_ns, -self.spans[i].end_ns))
            stack: list[int] = []
            for index in indices:
                span = self.spans[index]
                while stack and self.spans[stack[-1]].end_ns < span.end_ns:
                    stack.pop()
                parent[index] = stack[-1] if stack else -1
                stack.append(index)
        return parent

    def _self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.duration_ns for span in self.spans]
        for index, parent in enumerate(self.parents()):
            if parent >= 0:
                own[parent] -= self.spans[index].duration_ns
        return own

    def self_ns(self, phase: str, name: str) -> int:
        """Summed self time of the ``phase``/``name`` spans."""
        return sum(
            own
            for span, own in zip(self.spans, self._self_times())
            if span.phase == phase and span.name == name
        )

    def layer_table(self) -> list[dict[str, object]]:
        """Count, busy time and self time per ``phase``/layer."""
        own = self._self_times()
        rows: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0, 0])
        for span, self_time in zip(self.spans, own):
            row = rows[(span.phase, span.layer)]
            row[0] += 1
            row[1] += span.duration_ns
            row[2] += self_time
        return [
            {
                "phase": phase,
                "layer": layer,
                "count": int(count),
                "busy_ms": busy / 1e6,
                "self_ms": self_time / 1e6,
            }
            for (phase, layer), (count, busy, self_time) in sorted(rows.items())
        ]

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (open it in Perfetto or chrome://tracing)."""
        parents = self.parents()
        origin = min((span.start_ns for span in self.spans), default=0)
        threads = {tid: i for i, tid in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"phase": span.phase, "id": index, "parent": parent},
            }
            for index, (span, parent) in enumerate(zip(self.spans, parents))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
