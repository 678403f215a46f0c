"""Operation timing and span tracing for the benchmark.

An operation is one user-level task (one knot through the codes and
skein layers, one coefficient table, one CLI invocation).  Its latency
is the sum of the layer calls made for it.  With tracing on, every
layer call also leaves a span {id, name, start, end, parent, run}; the
spans stay in memory until the pass ends and are then handed to the
caller, which writes them out.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager


class Op:
    """One operation: its latency, its failures, and the calls it made."""

    def __init__(self, recorder, name):
        self._rec = recorder
        self.name = name
        self.latency = 0.0
        self.calls = 0
        self.errors = []

    def call(self, layer, fn, *args, **kwargs):
        """Call into a library layer; the time counts towards the op."""
        self.calls += 1
        with self._rec.span(layer):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latency += time.perf_counter() - t0

    def check(self, condition, what):
        if not condition:
            self.errors.append(what)

    def to_json(self):
        return {"name": self.name, "latency": self.latency, "calls": self.calls,
                "errors": self.errors}


class Recorder:
    def __init__(self, run_id, trace):
        self.run_id = run_id
        self.trace = trace
        self.ops = []
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.trace:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def op(self, name):
        """Run one operation.  An exception fails the op, not the pass."""
        op = Op(self, name)
        self.ops.append(op)
        try:
            with self.span("op." + name):
                yield op
        except Exception as exc:  # the pass must go on and report the failure
            op.errors.append(
                f"{type(exc).__name__}: {exc} @ "
                + " <- ".join(f"{f.name}:{f.lineno}" for f in traceback.extract_tb(exc.__traceback__)[-3:])
            )


def self_times(spans):
    """Self time per span name: duration minus the time its children cover.

    Children of one span run one after another, so their durations add.
    Span ids are unique within a run id only.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get((s["run"], s["id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples above it, by nearest rank, or the maximum when there are
    fewer than eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n
