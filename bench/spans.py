"""Spans around the benchmark's calls into public ``hermitize`` functions.

A span has a name, start and end (``perf_counter_ns``), a parent span and
an operation id; spans of one operation share the id.  They are kept in
memory and written out once, when the run ends.  Self time is a span's
duration minus the time its direct children cover (children never overlap:
there is one caller).
"""

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: calls go straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **attrs):
        yield


class Tracer(NullTracer):
    """Tracing on: every ``call`` and ``span`` becomes one recorded span."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_op = 0

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent]["op"]
        rec = {"id": len(self.spans), "parent": parent, "op": op,
               "name": name, "attrs": attrs, "start_ns": time.perf_counter_ns(),
               "end_ns": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        with self.span(name, **(_attrs or {})):
            return fn(*args, **kwargs)

    def self_times(self):
        """Self time in ns of every span, indexed like ``spans``; None for
        a span still open."""
        own = [None if s["end_ns"] is None else s["end_ns"] - s["start_ns"]
               for s in self.spans]
        for s, d in zip(self.spans, list(own)):
            if s["parent"] is not None and own[s["parent"]] is not None:
                own[s["parent"]] -= d
        return own

    def rollup(self, name, since=0, **attrs):
        """Self times (ms) of the spans from index ``since`` on with this
        name and these attributes."""
        own = self.self_times()
        return [own[s["id"]] / 1e6 for s in self.spans[since:]
                if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def write(self, path):
        """Write the spans as JSON lines, each with its self time."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, o in zip(self.spans, own):
                fh.write(json.dumps(dict(s, self_ns=o), sort_keys=True) + "\n")
