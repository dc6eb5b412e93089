"""In-memory call tracing from outside the program.

A ``Tracer`` wraps functions and records one span per call of a *span*
function: name, start, end, parent span and op id.  Calls of *hot*
functions (and every call made underneath a hot call) are not recorded one
by one: their counts and self time are aggregated, per function and per
enclosing span, so that a run with hundreds of thousands of kernel calls
fits in memory.

Self time of a span is its duration minus the part covered by its direct
children: child spans (found through their parent link) and hot calls made
directly under it (kept as the span's ``cover``).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root span
    op: int  # root spans number the ops; children share their root's op
    cover: int = 0  # ns covered by hot calls made directly under this span
    hot_calls: Counter = field(default_factory=Counter)  # hot calls owned by this span
    error: str = ""  # exception type that ended the call, if any


def span_self_times(spans: list[Span]) -> list[int]:
    """Self time of each span: duration minus what its direct children cover."""
    out = [s.end - s.start - s.cover for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Records spans and hot-call aggregates for the functions it wraps.

    ``observers`` maps a function name to a callable receiving
    ``(tracer, result)`` after each successful call, for counters that
    need a look at returned values.
    """

    def __init__(self, hot: set[str], observers: dict | None = None, clock=time.perf_counter_ns):
        self.hot = frozenset(hot)
        self.observers = observers or {}
        self.clock = clock
        self.spans: list[Span] = []
        self.hot_calls: Counter = Counter()
        self.hot_self: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        # open frames: [child_ns, span index or -1 for a hot frame]
        self._frames: list[list[int]] = []
        self._open_spans: list[int] = []

    def wrap(self, name: str, fn):
        """A stand-in for ``fn`` that traces its calls under ``name``."""
        is_hot = name in self.hot
        observe = self.observers.get(name)
        frames, open_spans, spans, clock = self._frames, self._open_spans, self.spans, self.clock

        def traced(*args, **kwargs):
            hot = is_hot or (frames and frames[-1][1] < 0)
            if hot:
                frame = [0, -1]
            else:
                if not open_spans:
                    self.op += 1  # a root span starts the next op
                idx = len(spans)
                spans.append(Span(name, 0, 0, open_spans[-1] if open_spans else -1, self.op))
                open_spans.append(idx)
                frame = [0, idx]
            frames.append(frame)
            error = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                self.errors[name, error] += 1
                raise
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                if hot:
                    self.hot_calls[name] += 1
                    self.hot_self[name] += dur - frame[0]
                    if open_spans:
                        owner = spans[open_spans[-1]]
                        owner.hot_calls[name] += 1
                        if frames[-1][1] >= 0:
                            owner.cover += dur
                else:
                    open_spans.pop()
                    span = spans[frame[1]]
                    span.start, span.end, span.error = start, end, error
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self_ns) per function name, spans and hot calls together."""
        calls = Counter(self.hot_calls)
        self_ns = Counter(self.hot_self)
        for span, own in zip(self.spans, span_self_times(self.spans)):
            calls[span.name] += 1
            self_ns[span.name] += own
        return calls, self_ns


def instrument(tracer: Tracer, modules: list, targets: dict) -> list:
    """Replace every binding of each target function in ``modules``.

    ``targets`` maps a function object to its traced name.  A function
    imported by name into several modules is replaced in each of them.
    Returns the undo list for ``restore``.
    """
    wrapped = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            try:
                replacement = wrapped.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if replacement is not None:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return undo


def restore(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)
