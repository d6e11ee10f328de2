"""Benchmark-side spans and the small statistics the report needs.

Spans are recorded by the benchmark around its own calls into each
layer's public functions; nothing inside the program is instrumented.
They are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """Thread-safe in-memory span store.

    A span is ``(id, name, layer, op, parent, start, end)``; ``layer`` is
    the prefix of ``name`` before the first dot, ``op`` the operation id
    every span of one benchmark operation shares.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "id": self._new_id(),
            "name": name,
            "layer": name.split(".", 1)[0],
            "op": op if op is not None else (
                parent["op"] if parent else None),
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = (children.get(s["parent"], 0.0)
                                         + s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - children.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """Inclusive-method 90th percentile (0.0 for no samples)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]
