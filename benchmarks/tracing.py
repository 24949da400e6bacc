"""In-memory spans recorded by the benchmark around calls into lexjudge.

Spans are kept in a list while the workload runs and written out as JSON
lines when it ends. A span's parent is the innermost span open on the same
thread; on an engine worker thread, which the benchmark does not start, it
is the innermost span open on the thread that created the tracer.

The interval helpers give self time (a span minus the union of its
children) and busy time per worker, from which the per-layer metrics are
derived.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self.trace = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_trace(self) -> int:
        """Start a new trace id; spans of one workload iteration share it."""
        self.trace += 1
        return self.trace

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(
            id=next(self._ids),
            parent=parent.id if parent else None,
            trace=self.trace,
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), ensure_ascii=False) + "\n")


def no_span(name: str, **attrs):
    """Stand-in for ``Tracer.span`` when tracing is off."""
    return nullcontext()


# -- interval arithmetic --------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def clip(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def self_time(span: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Span length minus the part of it that its children cover."""
    lo, hi = span
    return (hi - lo) - union_length(clip(children, lo, hi))


def busy_time(
    span: tuple[float, float], children: Iterable[tuple[float, float, int]]
) -> float:
    """Slot-seconds inside children: per-thread union within the span, summed."""
    lo, hi = span
    per_thread: dict[int, list[tuple[float, float]]] = {}
    for start, end, thread in children:
        per_thread.setdefault(thread, []).append((start, end))
    return sum(union_length(clip(iv, lo, hi)) for iv in per_thread.values())


def within(spans: Sequence[Span], outer: Span) -> list[Span]:
    return [s for s in spans if s.start >= outer.start and s.end <= outer.end]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
