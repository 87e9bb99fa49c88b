"""In-memory spans recorded from outside the program.

The benchmark measures each layer from its own files: it replaces
methods on the objects a workload builds (engine instances, the
decoder model, the scheduler, the batcher, the worker pool) with
wrappers that open and close spans.  Nothing inside ``src/`` changes
and ``repro.obs`` stays off, because switching it on changes the code
path being measured.

A span has a name (its layer is the text before the first dot), a
start, an end, the span that was open on the same thread when it
started, and the ids of the ops it works for.  An op is one unit the
workload's client waits for: a token gap, a time to first token, a
request.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Layers whose self times, plus the ``glue`` residual, make up an op.
LAYERS = ("serve", "api", "gen", "engine")


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int = -1
    ops: tuple = ()
    meta: Any = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Recorder:
    """Thread-safe span store with a per-thread stack of open spans.

    Timestamps are ``time.monotonic()``, the clock the program's own
    ``enqueue_time`` uses, so queue waits can be recorded as spans.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def _thread(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.ops = ()
        return local

    def set_ops(self, ops: Iterable) -> None:
        """Ops that spans opened on this thread (with no open parent)
        work for, until the next call."""
        self._thread().ops = tuple(op for op in ops if op is not None)

    def top(self) -> Span | None:
        """The innermost span open on this thread."""
        stack = self._thread().stack
        return self.spans[stack[-1]] if stack else None

    def open(self, name: str, *, start: float | None = None, meta=None) -> int:
        local = self._thread()
        parent = local.stack[-1] if local.stack else -1
        ops = self.spans[parent].ops if parent >= 0 else local.ops
        span = Span(
            name,
            time.monotonic() if start is None else start,
            parent=parent,
            ops=ops,
            meta=meta,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        local.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.monotonic()
        stack = self._thread().stack
        if stack and stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)

    def record(self, name: str, start: float, end: float, ops: tuple) -> None:
        """A closed root span with explicit times (a queue wait)."""
        span = Span(name, start, end, -1, tuple(ops))
        with self._lock:
            self.spans.append(span)

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        *,
        meta: Callable[..., Any] | None = None,
        skip_inside: str | None = None,
    ) -> Callable:
        """Replace ``obj.attr`` by a wrapper recording one span per call.

        *meta* maps the call's arguments to the span's metadata.  With
        *skip_inside*, a call made while a span of that name prefix is
        the innermost open one is passed straight through: an engine's
        ``matmul_into`` calling its own ``matmul`` is one engine call,
        not two.  Returns the original callable.
        """
        inner = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            if skip_inside is not None:
                top = self.top()
                if top is not None and top.name.startswith(skip_inside):
                    return inner(*args, **kwargs)
            index = self.open(
                name, meta=meta(*args, **kwargs) if meta else None
            )
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(index)

        setattr(obj, attr, wrapper)
        return inner

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children run on their parent's thread and nest inside it, so
        the time they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def op_breakdown(self, walls: dict) -> dict:
        """Per op: self seconds of each layer in :data:`LAYERS`, plus
        ``glue``, the part of the op's wall time no span covers.

        *walls* maps op id to wall seconds.  A span working for several
        ops (a coalesced batch) counts in full for each of them, since
        each waited for all of it.
        """
        out = {op: dict.fromkeys(LAYERS, 0.0) for op in walls}
        for span, own in zip(self.spans, self.self_times()):
            if span.layer not in LAYERS:
                raise ValueError(f"span {span.name!r} names no known layer")
            for op in span.ops:
                row = out.get(op)
                if row is not None:
                    row[span.layer] += own
        for op, row in out.items():
            row["glue"] = walls[op] - sum(row[layer] for layer in LAYERS)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (times in microseconds from
        the first span)."""
        base = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start_us": round((span.start - base) * 1e6, 1),
                            "dur_us": round(span.duration * 1e6, 1),
                            "parent": span.parent,
                            "ops": list(span.ops),
                        }
                    )
                    + "\n"
                )
