"""In-memory spans around the benchmark's calls into the library's layers.

Every call the workloads make into ``forestshuffle`` goes through
``Tracer.call``.  With tracing off that is a plain call, so untraced and
traced runs execute the same code path.  With tracing on, each call records
one span: its layer name, start and end (``clock``, nanoseconds), the id of the
operation span that caused it, the operation's id, and the length of its
result where the result has one (terms of a linear combination, families,
characters of emitted JSON).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (name, start_ns, end_ns, parent_span, op_id, size)
        self.spans: list[tuple[str, int, int, int | None, int | None, int | None]] = []
        self._op_span: int | None = None
        self._op_id: int | None = None
        self._op_start = 0
        # The worker swaps in a clock that leaves out host-speed sampling.
        self.clock = time.perf_counter_ns

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = self.clock()
        result = fn(*args)
        end = self.clock()
        size = len(result) if hasattr(result, "__len__") else None
        self.spans.append((name, start, end, self._op_span, self._op_id, size))
        return result

    def begin_op(self, op_id: int) -> None:
        if self.enabled:
            self._op_span = len(self.spans)
            self._op_id = op_id
            self.spans.append(("op", 0, 0, None, op_id, None))
            self._op_start = self.clock()

    def end_op(self) -> None:
        if self.enabled:
            end = self.clock()
            self.spans[self._op_span] = ("op", self._op_start, end, None, self._op_id, None)
            self._op_span = self._op_id = None

    def totals(self, speed_factor: float = 1.0) -> dict[str, dict[str, float]]:
        """Per layer name: number of calls, seconds inside them (times
        ``speed_factor``), summed result sizes."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, _op, size in self.spans:
            if name == "op":
                continue
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "size": 0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9 * speed_factor
            row["size"] += size or 0
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "op", "size")
        with path.open("w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, **dict(zip(keys, span))}) + "\n")
