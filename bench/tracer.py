"""In-memory span recorder used by the traced benchmark mode.

A span is (name, start, end, parent, op). Spans are recorded from the
benchmark's own code around calls into the library, kept in a list and
written out once, when the run ends. The untraced mode uses NullTracer,
whose span() costs one method call and records nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False
    op = None

    def span(self, name):
        return nullcontext()


class Tracer:
    """Records spans; ``op`` tags each span with the operation it belongs to."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self.op}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict:
        """{op: {span name: self seconds}}; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s["op"]][s["name"]] += s["end"] - s["start"] - child[i]
        return out

    def median_self(self, ops, names, scale: float = 1.0) -> dict:
        """Median over ``ops`` of each span name's self time within one op, times ``scale``."""
        per_op = self.self_times()
        return {name: statistics.median(per_op[op].get(name, 0.0) for op in ops) * scale
                for name in names}

    def covered(self, op) -> float:
        """Seconds of ``op`` covered by its top-level spans."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["op"] == op and s["parent"] is None)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_cost(samples: int = 2000) -> float:
    """Measured seconds one empty span adds, used to estimate tracing overhead."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
