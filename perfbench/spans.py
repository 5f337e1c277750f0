"""In-memory spans for the traced benchmark run.

A span is one timed call into a layer: name, start, end and the id of the
span that was open when it started (its parent). Spans stay in memory while
the benchmark runs and are written out as JSON once it ends. A span's self
time is its duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def to_json(self) -> List[Dict[str, object]]:
        return [span._asdict() for span in sorted(self.spans)]


def covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (impossible with :class:`Tracer`, possible in
    hand-built trees) never drives self time below zero.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[tuple]] = {span.id: [] for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return {span_id: by_id[span_id].duration - covered(ivs)
            for span_id, ivs in children.items()}
