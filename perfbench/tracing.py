"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around the calls it
makes into ``repro``: name, start, end, parent and the op they belong to.
They stay in memory until the run ends and are then written out as JSONL.
A span's self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

_now = time.perf_counter


class Span:
    __slots__ = ("op", "id", "parent", "name", "start", "end", "accumulated")

    def __init__(self, op: int, sid: int, parent: Optional[int], name: str,
                 start: float, end: float = 0.0, accumulated: bool = False):
        self.op = op
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.accumulated = accumulated


class Tracer:
    """Records nested spans; ``op()`` opens the root span of the next op."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, start)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name, _now())
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = _now()

    @contextmanager
    def op(self) -> Iterator[Span]:
        self._op += 1
        with self.span("op") as root:
            yield root

    def timed_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Wrap ``iterable`` so the span runs from the first ``next`` to exhaustion.

        The span's parent is whatever span is open when iteration starts,
        so a consumer that drains the iterator in one go (as
        ``LogStore.from_records`` does) gets a contiguous child span.
        """
        def gen():
            span = self._open(name, _now())
            yield from iterable
            span.end = _now()
        return gen()

    def accumulate(self, name: str, iterable: Iterable, parent: Span) -> Iterator:
        """Time each ``next`` on ``iterable`` and record the sum as one child span.

        For an iterator whose items are consumed one at a time inside
        another call (a writer pulling records), the per-item time cannot
        be one contiguous interval. The sum is recorded as a span of that
        duration at the start of ``parent``, flagged ``accumulated``.
        """
        iterator = iter(iterable)
        busy = 0.0
        while True:
            t0 = _now()
            try:
                item = next(iterator)
            except StopIteration:
                busy += _now() - t0
                break
            busy += _now() - t0
            yield item
        span = Span(self._op, len(self.spans), parent.id, name,
                    parent.start, parent.start + busy, accumulated=True)
        self.spans.append(span)

    # -- analysis -----------------------------------------------------------

    def by_op(self) -> Dict[int, List[Span]]:
        ops: Dict[int, List[Span]] = {}
        for span in self.spans:
            ops.setdefault(span.op, []).append(span)
        return ops

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "accumulated": s.accumulated,
                }) + "\n")


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def op_breakdown(spans: List[Span]) -> Tuple[float, float, Dict[str, float]]:
    """(op wall time, unattributed time, self time per span name) of one op."""
    children: Dict[int, List[Span]] = {}
    root = None
    for s in spans:
        if s.parent is None:
            root = s
        else:
            children.setdefault(s.parent, []).append(s)
    self_time: Dict[str, float] = {}
    for s in spans:
        if s is root:
            continue
        inner = [(c.start, c.end) for c in children.get(s.id, [])]
        value = (s.end - s.start) - covered(inner, s.start, s.end)
        self_time[s.name] = self_time.get(s.name, 0.0) + value
    wall = root.end - root.start
    top = [(c.start, c.end) for c in children.get(root.id, [])]
    return wall, wall - covered(top, root.start, root.end), self_time
