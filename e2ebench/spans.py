"""In-memory span recording around the program's public entry points.

The benchmark never edits the program.  It wraps a public function or
method from the outside (:func:`patch_function`, :func:`patch_method`),
and each call through the wrapper becomes a :class:`Span` with a name,
a start, an end and the span that was open when it began.  Spans stay in
memory and are written as JSON lines once the operation is over.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects spans of one process; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        # Pop through to ``span`` so an exception that skipped inner
        # ``end`` calls cannot leave stale parents on the stack.
        while self._open:
            if self._open.pop() is span:
                break

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "start_s": span.start,
                    "end_s": span.end,
                    "counts": span.counts,
                }, sort_keys=True) + "\n")


def _covered(interval: Tuple[float, float],
             children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    covered = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        covered += b - max(a, cursor)
        cursor = b
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span_id -> duration - union of child intervals`` (never < 0)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        duration = span.end - span.start
        covered = _covered((span.start, span.end), children.get(span.span_id, ()))
        result[span.span_id] = max(0.0, duration - covered)
    return result


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s``, and summed counts."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


Annotate = Callable[[Span, tuple, dict, Any], None]


def traced(recorder: Recorder, name: str, fn: Callable,
           annotate: Optional[Annotate] = None,
           rename: Optional[Callable[[tuple, Any], str]] = None) -> Callable:
    """``fn`` wrapped in a span; ``annotate`` adds counts from the call
    and its result, ``rename`` picks the span name once the call is done."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if rename is not None:
            span.name = rename(args, result)
        if annotate is not None:
            annotate(span, args, kwargs, result)
        return result

    return wrapper


def patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> int:
    """Replace every binding of ``module_name.attr`` in loaded ``repro``
    modules (``from x import f`` copies included); returns how many."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    patched = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
                patched += 1
    return patched


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))
