"""In-memory spans and counters recorded around calls into sdlab.

Spans live in the benchmark, not in the package: each one wraps a single
public call (or an op that groups several) and is named
``<layer>.<function>``, where the layer is the sdlab module name.  Spans
are kept in a list and written out when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Span recorder.  When disabled, `call` is a plain function call and
    `span` records nothing, so the untraced run pays almost no cost."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counters: dict = {}
        self.op_id = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value=1) -> None:
        """Counters are kept in both modes; they cost one dict update."""
        self.counters[name] = self.counters.get(name, 0) + value


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover.
    Children of one span never overlap (one thread), so their durations
    add up."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_self_times(spans) -> dict:
    """Sum of self time per layer (the part of a span name before the dot)."""
    out: dict = {}
    for (name, *_), st in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st
    return out
