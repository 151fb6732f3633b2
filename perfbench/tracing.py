"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, op): ``name`` is "<layer>.<call>",
times come from ``time.perf_counter``, ``parent`` is the index of the
enclosing span or -1, and ``op`` is the id shared by every span of one
operation.  The untraced passes never touch this module: they call the
library through :func:`direct`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("core", "sorting", "stretch", "analysis")


def direct(name, fn, *args):
    """The untraced call hook: just the call."""
    return fn(*args)


class Tracer:
    """Collects spans; ``call`` has the same signature as :func:`direct`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        if new_op:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the part covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start) - covered
        return out

    def write(self, path, header: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": rows}, fh)
