"""In-memory span tracing for the benchmark's traced passes.

A ``Tracer`` replaces named functions with wrappers that record one span
per call: name, start, end, parent span and the operation it belongs to.
Spans live in parallel lists until the run writes them out.  Wrappers
are installed where each name is looked up at call time (a module or
class attribute) and removed again when the ``installed`` block exits,
so untraced passes run the original functions.

``count_calls`` installs a lighter wrapper that records no span: it adds
the call and a size to the innermost open span, which is how the FFT
calls made inside ``fluid1d.step`` are counted without a span each.
"""

from __future__ import annotations

import csv
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op_id = -1
        # span index -> {counter name: value}; index -1 collects what ran outside any span
        self.span_counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # counters that on_return hooks add up per name
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span_wrapper(self, name, fn, on_return):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn, size):
        stack, span_counts = self.stack, self.span_counts

        def counted(*args, **kwargs):
            bucket = span_counts[stack[-1] if stack else -1]
            bucket[name + ".calls"] += 1
            bucket[name + ".size"] += size(args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, make):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``on_return(tracer, span_index, args, kwargs, result)`` runs after
        a call that returned, to add counters taken from its inputs or
        result to ``tracer.counts``.
        """
        self._patch(owner, attr, lambda fn: self._span_wrapper(name, fn, on_return))

    def count_calls(self, owner, attr: str, name: str, size) -> None:
        """Count calls of ``owner.attr`` and ``size(args, kwargs)`` per open span."""
        self._patch(owner, attr, lambda fn: self._count_wrapper(name, fn, size))

    def restore(self) -> None:
        """Put back every original attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Run the block with the wrappers that ``install(tracer)`` sets up."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- analysis --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans are recorded in start order on one thread, so children are
        nested inside their parent and do not overlap each other.
        """
        dur = self.durations()
        out = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[i]
        return out

    def within(self, name: str) -> list[bool]:
        """For each span: is it, or is one of its ancestors, named ``name``?"""
        flags: list[bool] = []
        for i, parent in enumerate(self.parents):
            flags.append(self.names[i] == name or (parent >= 0 and flags[parent]))
        return flags

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total duration and total self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += s
        return out

    def counted_within(self, name: str, counter: str) -> float:
        """Sum of a ``count_calls`` counter over spans inside spans named ``name``."""
        flags = self.within(name)
        return sum(bucket.get(counter, 0.0) for idx, bucket in self.span_counts.items()
                   if idx >= 0 and flags[idx])

    def write_csv(self, path) -> None:
        """Write the spans, with times relative to the first span start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_s", "end_s"])
            for i, name in enumerate(self.names):
                out.writerow([self.ops[i], i, self.parents[i], name,
                              f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}"])
