"""In-memory spans around calls into pgarcs, recorded from outside.

A span is (name, instance, phase, rep, parent, start, end): the phase
is set-up, timed or probe, and rep numbers the set-up repetition or the
timed pass.  The layer is the part of the name before the first dot.
Spans are kept in a list while the run lasts and written out once at
the end.  The untraced run uses NullTracer, whose methods only make the
call, so end-to-end numbers come from a run without span bookkeeping.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class NullTracer:
    phase = "setup"
    rep = 0

    def call(self, name, inst, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, inst=""):
        yield

    def add_span(self, name, inst, start, end):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.rep = 0
        self._stack = []

    def call(self, name, inst, fn, *args, **kwargs):
        with self.span(name, inst):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, inst=""):
        rec = {
            "name": name,
            "inst": inst,
            "phase": self.phase,
            "rep": self.rep,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name, inst, start, end):
        """A child of the open span whose times were observed, not wrapped
        (the class records a sweep reports through its progress hook)."""
        self.spans.append(
            {
                "name": name,
                "inst": inst,
                "phase": self.phase,
                "rep": self.rep,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": end,
            }
        )

    # -- aggregation ------------------------------------------------------

    def durations(self, name, inst=None):
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (inst is None or s["inst"] == inst)
        ]

    def total(self, name):
        """Summed duration of a span name within one repetition or pass,
        median over the repetitions or passes it occurs in."""
        per_rep = {}
        for s in self.spans:
            if s["name"] == name:
                key = (s["phase"], s["rep"])
                per_rep[key] = per_rep.get(key, 0.0) + s["end"] - s["start"]
        return statistics.median(per_rep.values()) if per_rep else 0.0

    def self_times(self, phase):
        """Per layer, summed over the spans of one phase: span durations
        minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, c in zip(self.spans, child):
            if s["phase"] == phase:
                layer = s["name"].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def top_level(self, phase):
        """Summed duration of the spans of one phase that have no parent."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["phase"] == phase and s["parent"] is None
        )

    def per_span_cost(self, samples=2000):
        """Bookkeeping cost of one span, measured on empty spans that are
        discarded afterwards."""
        keep = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(samples):
            with self.span("trace.calibrate"):
                pass
        cost = (time.perf_counter() - t0) / samples
        del self.spans[keep:]
        return cost
