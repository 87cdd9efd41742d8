"""In-memory span recorder for the benchmark's traced passes.

A span is one timed call into a c2lab layer: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
began (its parent) and the pass it belongs to. Spans stay in memory and are
written out once, when the run ends.

Calls too frequent to keep one span each (per-frame, per-message and
per-record helpers) are only counted, and where it matters timed, in
``Recorder.counts``. Those counts are reset at the start of every pass.

Patches are installed for a traced pass only and restored afterwards, so an
untraced pass runs the program exactly as shipped.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_id,
        }


class Recorder:
    """Collects spans and counters; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.pass_id = ""
        self._stack: list[int] = []

    def start_pass(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.counts = defaultdict(float)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def spanned(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn wrapped in a span; after(result, args, kwargs) may add counts."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_iter(self, seconds: str, items: str, fn: Callable) -> Callable:
        """A generator function whose time inside next() is summed, not spanned."""

        def wrapper(*args, **kwargs):
            counts = self.counts
            it = fn(*args, **kwargs)
            while True:
                t = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    counts[seconds] += perf_counter() - t
                    return
                counts[seconds] += perf_counter() - t
                counts[items] += 1
                yield item

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are the spans whose parent index points at the span. Their
    intervals are clipped to the parent and merged before subtracting, so
    overlapping children are not counted twice.
    """
    children: defaultdict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # vars() keeps a classmethod as the descriptor, so restoring is exact
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
