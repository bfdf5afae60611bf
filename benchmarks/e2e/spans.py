"""Spans recorded by the harness around calls into the program.

A span is ``[name, start_ns, end_ns, parent, op_id]``; ``parent`` is
the index of the enclosing span in the same list (-1 for none) and
spans of one operation share ``op_id``. Spans stay in memory until
the process that recorded them writes them out at exit.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans on one thread; ``record`` adds a finished
    flat span from any thread (``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, List[float]] = {}
        self._stack: List[int] = []

    def span(self, name: str, op_id: int = -1) -> "_Span":
        return _Span(self, name, op_id)

    def record(self, name: str, start_ns: int, end_ns: int,
               op_id: int = -1) -> None:
        self.spans.append([name, start_ns, end_ns, -1, op_id])

    def count(self, name: str, value: float) -> None:
        """A count or size observed at a layer boundary."""
        self.counts.setdefault(name, []).append(value)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str, op_id: int) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [name, 0, 0, stack[-1] if stack else -1, op_id]
        )

    def __enter__(self) -> "_Span":
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index][END] = time.perf_counter_ns()
        self.tracer._stack.pop()


def durations_ns(spans: List[list]) -> Dict[str, List[int]]:
    """Every span's duration, grouped by name."""
    out: Dict[str, List[int]] = {}
    for span in spans:
        out.setdefault(span[NAME], []).append(span[END] - span[START])
    return out


def self_times_ns(spans: List[list]) -> List[int]:
    """Per span: its duration minus the time its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
