"""Spans around the library's layer entry points, recorded from outside the library.

A `Tracer` replaces each traced function by a wrapper in every module that
binds it (the defining module and every module that imported the name), so
calls made inside the library are seen too.  Spans are kept in memory as
(name, start, end, parent, attrs) and written out when the run ends.  A
layer's self time is its span duration minus the part covered by its child
spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        inside = [(max(s, span.start), min(e, span.end))
                  for s, e in children.get(idx, []) if e > span.start and s < span.end]
        out.append((span.end - span.start) - _covered(inside))
    return out


class Tracer:
    """Records one span per call of each installed target."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self, targets, namespaces):
        """Patch every binding of each target; returns a function that undoes it.

        `targets` holds (module, attribute, span name, attrs) tuples, where attrs
        is None or a callable (args, kwargs, result) -> dict.  `namespaces` are
        the modules searched for bindings in addition to the defining ones.
        """
        patches = []
        modules = list(namespaces) + [m for m in list(sys.modules.values())
                                      if getattr(m, "__name__", "").startswith("cylspec")]
        for module, attr, name, attrs in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, attrs)
            for ns in {id(m): m for m in modules}.values():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

        def restore():
            for ns, key, original in reversed(patches):
                setattr(ns, key, original)
        return restore
