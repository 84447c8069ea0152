"""Outside-in tracing: spans around the program's call sites.

The tracer rebinds functions where the program looks them up (module
globals, class attributes, `numpy.linalg.eigh`) to wrappers that record a
span per call: name, start, end and the enclosing span.  Nothing in the
package changes; `restore` puts every original back.  A wrap target that
no longer exists is recorded as absent instead of raising, so the
metrics that depend on it can be reported as missing.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.  The tracer assumes one thread, which holds for every
workload the benchmark runs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; `count` tallies within it."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind owner.attr to a spanning wrapper, or note it absent."""
        target = getattr(owner, attr, None)
        if target is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr} -> {name}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, target, *args, count=count, **kwargs)

        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        if not self.spans:
            return {}
        names = [s[0] for s in self.spans]
        times = np.array([(s[1], s[2], s[3]) for s in self.spans])
        dur = times[:, 1] - times[:, 0]
        parent = times[:, 2].astype(int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, float] = defaultdict(float)
        for name, value in zip(names, dur - child):
            out[name] += float(value)
        return dict(out)

    def root_time(self) -> float:
        return float(sum(s[2] - s[1] for s in self.spans if s[3] < 0))

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for k, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": k, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
