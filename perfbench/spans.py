"""Spans recorded around the benchmark's calls into the library.

A traced run records one span per public call the benchmark makes, with
the op it belongs to and its parent span (the op's own span).  Spans stay
in memory and are written out once, when the run ends.  The untraced run
uses :class:`NullTracer`, whose methods do no bookkeeping.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls straight through; records nothing."""

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, name, value):
        pass

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    """Records ``(span_id, op_id, parent_id, name, start, end)`` tuples.

    ``name`` is ``<layer>.<function>``; the op span is named ``op``.
    Counts added with :meth:`add` are summed per name.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._op_id = None
        self._next_id = 0

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((span_id, parent, name, perf_counter()))

    def _close(self):
        end = perf_counter()
        span_id, parent, name, start = self._stack.pop()
        self.spans.append((span_id, self._op_id, parent, name, start, end))

    def call(self, name, fn, *args):
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    def add(self, name, value):
        self.counts[name] += value

    def begin_op(self, op_id):
        self._op_id = op_id
        self._open("op")

    def end_op(self):
        self._close()

    def self_times(self):
        """Per span name: ``(calls, total seconds, self seconds)``.

        A span's self time is its duration minus the time its child spans
        cover; children of one span never overlap in this single-threaded
        loop.
        """
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[span_id]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["span_id", "op_id", "parent_id", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
