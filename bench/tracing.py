"""In-memory span tracer for the traced benchmark run.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in :attr:`Tracer.spans`, or -1 at the top.  Spans are kept in
memory while the workload runs and written out only when it has finished.
The program runs on one thread, so a plain stack gives each span its parent.
"""

from __future__ import annotations

from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._clock = clock

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``observe(result)`` runs after the span has closed, so its cost is
        charged to the caller, not to ``name``.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def counted(self, name: str, fn):
        """Wrap ``fn`` so every call increments ``counts[name]``; no span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)``.

        A span's self time is its duration minus the durations of its direct
        children; children of one call never overlap because the program is
        single-threaded.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as sink:
            sink.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                sink.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
