"""The benchmark's own span recorder (spans inside the program are not used).

Spans are kept in memory with name, start, end and parent, share one
trace identifier, and are written out once the run ends.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, ContextManager, Iterator, Sequence

__all__ = ["SpanRecorder", "NULL_RECORDER", "write_spans"]


class SpanRecorder:
    """Nestable spans around the benchmark's calls into the program."""

    def __init__(self, trace_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.trace_id = trace_id
        self.spans: list[dict[str, object]] = []
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[dict[str, object]]:
        record: dict[str, object] = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": self._clock(),
            "end": None,
            "attributes": attributes,
        }
        self.spans.append(record)
        self._stack.append(record["id"])  # type: ignore[arg-type]
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attributes: object) -> None:
        """Record an already-finished span (e.g. a client-side request)."""
        self.spans.append(
            {
                "id": len(self.spans),
                "trace": self.trace_id,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": end,
                "attributes": attributes,
            }
        )

    @staticmethod
    def duration(record: dict[str, object]) -> float:
        return record["end"] - record["start"]  # type: ignore[operator]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record["parent"]
            if parent is not None:
                child_time[parent] += self.duration(record)  # type: ignore[index]
        totals: dict[str, float] = {}
        for record, children in zip(self.spans, child_time):
            name = record["name"]
            totals[name] = totals.get(name, 0.0) + self.duration(record) - children  # type: ignore[arg-type]
        return totals

    def durations(self, name: str) -> list[float]:
        """Wall duration of every span called ``name``, in start order."""
        return [self.duration(record) for record in self.spans if record["name"] == name]

    def total(self, name: str) -> float:
        """Summed wall duration of every span called ``name``."""
        return sum(self.durations(name))


class _NullRecorder:
    """Spans that record nothing: the untraced twin of a traced replay."""

    _SPAN = nullcontext({})

    def span(self, name: str, **attributes: object) -> ContextManager[dict[str, object]]:
        return self._SPAN


NULL_RECORDER = _NullRecorder()


def write_spans(path: Path, recorders: Sequence[SpanRecorder]) -> None:
    """Write every recorder's spans to one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {"recorder": index, "trace": recorder.trace_id, "spans": recorder.spans}
        for index, recorder in enumerate(recorders)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
