"""In-memory span recorder that times filmsr's layers from outside.

The recorder wraps the names callers look up (a module attribute such
as ``filmsr.runner.integrate``, or a method on a config class) and puts
them back afterwards; no file of the package changes.  Each call of a
wrapped name becomes one :class:`Span` with its name, start, end,
parent span and thread.  Spans stay in a list until the run ends.

A span opened on a worker thread whose own stack is empty takes the
innermost open span of the thread that created the recorder as its
parent: that thread is blocked inside the call (``run_sweep``) that
handed the work out.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children running concurrently on several threads are merged as one
    union of intervals, so self time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in spans}


class Recorder:
    """Wraps names, records spans and call counts, restores the names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._counters: dict[str, itertools.count] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    # -- recording -----------------------------------------------------

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Spans and call counts since the last take; starts afresh.

        Call it only while no wrapped code runs (between passes).
        """
        spans, self.spans = self.spans, []
        # next() on an itertools.count returns how often it was advanced
        counts = {name: next(c) for name, c in self._counters.items()}
        self._counters = {name: itertools.count() for name in self._counters}
        return spans, counts

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, observe):
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                main = recorder._main_stack
                parent = main[-1] if main else None
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                recorder.spans.append(Span(
                    span_id, name, start, end, parent,
                    threading.get_ident(), {"error": type(exc).__name__}))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            attrs = ({} if observe is None
                     else observe(result, *args, **kwargs))
            recorder.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), attrs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        recorder = self
        recorder._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            # next() on itertools.count is one C call, atomic under the
            # interpreter lock, so sweep threads lose no increments
            next(recorder._counters[name])
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, label: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            owner_name = getattr(owner, "__name__", owner)
            self.absent[label] = f"{owner_name}.{attr} no longer exists"
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``observe(result, *args, **kwargs)`` returns the span's attrs; it
        runs after the span has ended.
        """
        self._patch(owner, attr, name,
                    lambda fn: self._span_wrapper(name, fn, observe))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr under ``name`` without a span."""
        self._patch(owner, attr, name,
                    lambda fn: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

