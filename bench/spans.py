"""Spans and counters recorded at the boundary between the benchmark and
the package.

Every call the benchmark makes into ``onoffchain`` goes through
:meth:`Tracer.call` under a layer name such as ``sim.simulate``.  With
tracing off that is a plain call; with tracing on it appends a span
``[layer, start, end, parent span, task id]`` to an in-memory list that is
written out once, after the last task.  Counters (replications, events,
candidates, ...) are kept in both modes: they depend only on the seed and
the workload definition, so every pass of one run must report the same
ones.
"""

from __future__ import annotations

import json
import time
from collections import Counter

TASK = "bench.task"
EVAL = "analytic.chain_transform.eval"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.task]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: span count and self time, i.e. each span's duration
        minus the part of it covered by its child spans."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - covered[i]
        return out

    def nested_counts(self, child: str) -> Counter:
        """How many ``child`` spans ran directly under each parent layer."""
        out: Counter = Counter()
        for name, _, _, parent, _ in self.spans:
            if name == child:
                out[self.spans[parent][0] if parent is not None else None] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task}) + "\n")
