"""In-memory spans and per-operation counters for the traced run.

A span records its name, operation id, parent span, and start and end in
perf_counter nanoseconds. Spans stay in memory until `dump` writes them out
when the run ends. `NULL` has the same interface and records nothing, so one
operation body serves both the traced and the untraced run.
"""

from __future__ import annotations

import json
import statistics
import time


class _Span:
    __slots__ = ("tracer", "name", "index", "parent")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr.op, self.parent, time.perf_counter_ns(), None])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][4] = time.perf_counter_ns()
        tr._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent index, start_ns, end_ns]
        self.counts: dict[int, dict[str, int]] = {}
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: int) -> None:
        self.counts.setdefault(self.op, {})[name] = value

    def layer_medians(self, span_names, count_names) -> dict[str, float]:
        """Median over traced operations of each layer's time per operation.

        A layer's time in an operation is the summed duration of its spans in
        that operation (0 when the operation does not call it). ``op_self``
        is the ``op`` span minus the time its child spans cover.
        """
        ops = sorted({s[1] for s in self.spans if s[0] == "op"})
        per_op = {op: {} for op in ops}
        child_ns = {}
        for name, op, parent, start, end in self.spans:
            if op not in per_op:
                continue
            per_op[op][name] = per_op[op].get(name, 0) + (end - start)
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for i, (name, op, _, start, end) in enumerate(self.spans):
            if name == "op" and op in per_op:
                per_op[op]["op_self"] = end - start - child_ns.get(i, 0)
        out = {name: statistics.median(per_op[op].get(name, 0) / 1e6 for op in ops)
               for name in (*span_names, "op_self")}
        for name in count_names:
            out[name] = statistics.median(self.counts.get(op, {}).get(name, 0) for op in ops)
        return out

    def dump(self, path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns")
        with open(path, "w") as f:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": {str(k): v for k, v in self.counts.items()}}, f)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def count(self, name, value):
        pass


NULL = _NullTracer()
