"""In-memory span recording for the traced benchmark run.

A span is one timed call into a layer of the program: its name
(``<layer>.<call>``), start and end (``perf_counter_ns``), the span that
was open on the same thread when it began (its parent), the thread it
ran on (its lane), and the run id.  Spans are kept in memory and written
as JSONL once the run ends, so recording costs one list append.

A span's parent is always on its own thread: work on another thread (a
prefetch thread, a client thread) starts a tree of its own, because it
overlaps the caller instead of blocking it.  A layer's *self time* is
its span's duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    lane: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans opened with :meth:`span`; one per traced run."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; yields the attribute dict to fill in."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end,
                     threading.current_thread().name, attrs)
            )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                handle.write(json.dumps({
                    "run": self.run_id, "id": s.span_id, "parent": s.parent,
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "lane": s.lane, "attrs": s.attrs,
                }) + "\n")


class NullTracer:
    """The untraced run's tracer: records nothing."""

    enabled = False

    def span(self, name: str, **attrs):
        return contextlib.nullcontext(attrs)


def load_jsonl(path: Path) -> list[Span]:
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        spans.append(Span(row["id"], row["parent"], row["name"], row["start_ns"],
                          row["end_ns"], row["lane"], row["attrs"]))
    return spans


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its children's durations."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    return {s.span_id: (s.end_ns - s.start_ns - child_ns[s.span_id]) / 1e9
            for s in spans}


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """Every span below ``root_id``: the steps that call blocked on."""
    parents = {s.span_id: s.parent for s in spans}
    out = []
    for s in spans:
        parent = s.parent
        while parent is not None and parent != root_id:
            parent = parents.get(parent)
        if parent == root_id:
            out.append(s)
    return out


def layer_self_seconds(spans: list[Span], root_id: int) -> dict[str, float]:
    """Per-layer self time of everything ``root_id`` blocked on."""
    own = self_seconds(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in descendants(spans, root_id):
        totals[s.layer] += own[s.span_id]
    return dict(totals)


def trace_metrics(tracer, root_name: str, walls: list[float]) -> dict[str, float]:
    """The ``trace.*`` metrics of a run whose operations are ``root_name`` spans.

    ``trace.residual_share`` is the share of an operation's wall time
    that no layer span's self time accounts for (the benchmark's own
    glue); an unclosed or double-counted span pushes it out of [0, 1).
    """
    roots = [s for s in tracer.spans if s.name == root_name]
    residual = [1.0 - sum(layer_self_seconds(tracer.spans, root.span_id).values())
                / root.seconds for root in roots]
    return {
        "trace.wall_s": statistics.median(walls),
        "trace.spans": len(tracer.spans) / len(roots),
        "trace.overhead_s": span_cost_seconds() * len(tracer.spans) / len(roots),
        "trace.residual_share": statistics.median(residual),
    }


def span_cost_seconds(samples: int = 2000) -> float:
    """Measured cost of recording one empty span on this machine."""
    tracer = Tracer("calibration")
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibration.empty"):
            pass
    return (time.perf_counter() - start) / samples
