"""In-memory spans for the traced pass, written out as Chrome trace JSON.

A span is ``(name, start, end, parent, workload, pid)`` plus the counts
recorded at its boundaries; times are ``time.monotonic()`` seconds, which
on Linux is one clock shared by every process, so spans recorded in child
interpreters line up with the ones the benchmark records around them.
The layer of a span is its name up to the first dot (``nn.fc.forward_batch``
belongs to ``nn``).  Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None  # index into the owning tracer's span list
    workload: str = ""
    pid: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    track: int = 0  # Chrome thread id; 0 = the recording process's main track

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nesting follows the ``span()`` call stack."""

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @property
    def current_index(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @property
    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def add(self, name: str, start: float, end: float, *, parent: int | None = None, **counts: float) -> int:
        """Record a finished span (timestamps taken elsewhere); its index."""
        self.spans.append(
            Span(name, start, end, parent, self.workload, os.getpid(), dict(counts))
        )
        return len(self.spans) - 1

    def open(self, name: str, **counts: float) -> int:
        """Start a span nested under the innermost open one; its index."""
        parent = self._stack[-1] if self._stack else None
        index = self.add(name, time.monotonic(), 0.0, parent=parent, **counts)
        self._stack.append(index)
        return index

    def close(self) -> None:
        self.spans[self._stack.pop()].end = time.monotonic()

    @contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        index = self.open(name, **counts)
        try:
            yield self.spans[index]
        finally:
            self.close()

    def extend(self, spans: list[dict[str, object]], *, parent: int | None = None) -> None:
        """Adopt spans a child process recorded, re-rooted under ``parent``."""
        offset = len(self.spans)
        for record in spans:
            span = Span(**record)
            span.parent = parent if span.parent is None else span.parent + offset
            span.workload = self.workload
            self.spans.append(span)

    def to_records(self) -> list[dict[str, object]]:
        return [asdict(span) for span in self.spans]

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's own children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = union_length(
                [(max(c.start, span.start), min(c.end, span.end)) for c in children.get(index, [])]
            )
            totals[span.layer] = totals.get(span.layer, 0.0) + max(0.0, span.duration - covered)
        return totals

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (complete ``X`` events), loadable in Perfetto."""
        base = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.pid,
                "tid": span.track or span.pid,
                "args": {"workload": span.workload, "parent": span.parent, **span.counts},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
