"""In-memory span recorder that times the package's layers from outside it.

``Tracer.patch`` replaces module attributes (``scfdma_alloc.harness.solve``,
``scfdma_alloc.dual.repair_selection``, ...) with timing wrappers for the
duration of a ``with`` block and restores them afterwards, so the package
itself is never edited.  Spans carry name, start, end, parent span and drop
id, and stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    drop: int | None
    error: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "drop": self.drop, "error": self.error, "info": self.info,
        }


@dataclass(frozen=True)
class Probe:
    """One layer boundary: ``module.attr`` is timed as span ``name``.

    ``observe(result, args, kwargs)`` returns counts stored on the span;
    ``drop_of(args, kwargs)`` marks the span that starts a new drop.
    """

    module: Any
    attr: str
    name: str
    observe: Callable[[Any, tuple, dict], dict] | None = None
    drop_of: Callable[[tuple, dict], int] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._drop: int | None = None

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            outer_drop = self._drop
            if probe.drop_of is not None:
                self._drop = probe.drop_of(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(probe.name, 0.0, 0.0, parent, self._drop)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._drop = outer_drop
            if probe.observe is not None:
                span.info = probe.observe(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, probes: Sequence[Probe]) -> Iterator["Tracer"]:
        originals = []
        try:
            for p in probes:
                fn = getattr(p.module, p.attr)  # AttributeError names a moved layer
                originals.append((p.module, p.attr, fn))
                setattr(p.module, p.attr, self.wrap(p, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def covered_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered_length(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def nesting_problems(spans: Sequence[Span]) -> list[str]:
    """Children that leave their parent's interval or belong to another drop."""
    out = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            out.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if not (p.start <= s.start and s.end <= p.end):
            out.append(f"span {i} ({s.name}) is not inside its parent {s.parent} ({p.name})")
        if p.drop is not None and s.drop != p.drop:
            out.append(f"span {i} ({s.name}) has drop {s.drop}, its parent {p.drop}")
    return out
