"""Span-based tracing: one trace per query, spans per pipeline stage.

A :class:`Trace` is created by the service layer at admission time
(:class:`~repro.service.scheduler.QueryScheduler`) and *activated*
around the engine call on whichever worker thread picks the flight up.
Deep pipeline code — VFILTER, the twig join, epoch publication — never
sees a tracer object: it asks :func:`current_trace` (a
:class:`contextvars.ContextVar`) for the active trace and opens spans
on it.  When no trace is active, or the trace was sampled out,
:func:`current_trace` hands back a shared null object whose ``span``
returns one shared, class-based no-op context manager (no generator,
no span object per call), and whose yielded null span drops attribute
writes — the cost of instrumentation at rest is one context-variable
read, one method call and two slot calls for ``with``.

**Sampling** (``REPRO_TRACE_SAMPLE=N``): the tracer records full span
trees for one trace in every ``N`` (1 = every trace, the default;
0 disables span recording entirely).  Trace *ids* are assigned to
every query regardless, so log lines and slow-log entries correlate
even for unsampled traces; only the span bodies are skipped.

Spans form a tree via an explicit per-trace stack: the query pipeline
is sequential (one thread at a time works on a given query, even
though *which* thread changes at the scheduler hand-off), so the
enclosing span is simply the top of the stack.  A small lock guards
the stack anyway — correctness never rests on that usage pattern.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from .clock import SYSTEM_CLOCK, Clock

__all__ = [
    "NULL_TRACE",
    "Span",
    "Trace",
    "Tracer",
    "current_trace",
]


@dataclass(slots=True)
class Span:
    """One timed, attributed operation inside a trace."""

    name: str
    span_id: int
    parent_id: int | None
    started_wall: float
    #: Monotonic start — internal, used to compute ``duration``.
    started_monotonic: float
    duration_seconds: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_wall": self.started_wall,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }


class Trace:
    """A recorded trace: id, sampled flag, and the finished span list.

    ``spans`` is append-only and ordered by span *completion*;
    :meth:`span_tree` re-nests it by parent id for display.
    """

    __slots__ = ("trace_id", "sampled", "_clock", "_lock", "_stack",
                 "_next_span", "spans")

    def __init__(
        self, trace_id: str, sampled: bool, clock: Clock
    ) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self._clock = clock
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._stack: list[int] = []
        #: guarded-by: _lock
        self._next_span = 1
        #: guarded-by: _lock (writes)
        self.spans: list[Span] = []

    def span(
        self, name: str, **attributes: Any
    ) -> AbstractContextManager[Span]:
        """Record one span; nests under the innermost open span.

        An unsampled trace records nothing and returns the shared
        :data:`_NULL_SCOPE`: no generator, no span object, no lock.
        """
        if not self.sampled:
            return _NULL_SCOPE
        return self._recorded_span(name, attributes)

    @contextmanager
    def _recorded_span(
        self, name: str, attributes: dict[str, Any]
    ) -> Iterator[Span]:
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
        record = Span(
            name=name,
            span_id=span_id,
            parent_id=parent,
            started_wall=self._clock.wall(),
            started_monotonic=self._clock.monotonic(),
            attributes=attributes,
        )
        try:
            yield record
        finally:
            record.duration_seconds = (
                self._clock.monotonic() - record.started_monotonic
            )
            with self._lock:
                # The stack discipline is LIFO per thread of control;
                # remove by value so a mis-nested exit degrades to a
                # wrong parent rather than a corrupted stack.
                if span_id in self._stack:
                    self._stack.remove(span_id)
                self.spans.append(record)

    @contextmanager
    def activate(self) -> Iterator["Trace"]:
        """Make this trace the thread-of-control's current trace."""
        token = _CURRENT_TRACE.set(self)
        try:
            yield self
        finally:
            _CURRENT_TRACE.reset(token)

    def span_tree(self) -> list[dict[str, Any]]:
        """Spans re-nested by parent id (roots first, children under
        a ``children`` key), for the slow log and ``repro slowlog``."""
        with self._lock:
            flat = [span.as_dict() for span in self.spans]
        by_id: dict[int, dict[str, Any]] = {}
        for entry in flat:
            entry["children"] = []
            by_id[entry["span_id"]] = entry
        roots: list[dict[str, Any]] = []
        for entry in flat:
            parent = entry["parent_id"]
            if parent is not None and parent in by_id:
                by_id[parent]["children"].append(entry)
            else:
                roots.append(entry)

        def sort_recursive(entries: list[dict[str, Any]]) -> None:
            entries.sort(key=lambda entry: entry["span_id"])
            for entry in entries:
                sort_recursive(entry["children"])

        sort_recursive(roots)
        return roots


class _NullTrace(Trace):
    """The no-trace trace: every operation is a cheap no-op."""

    def __init__(self) -> None:
        super().__init__("", sampled=False, clock=SYSTEM_CLOCK)


class _NullAttributes(dict[str, Any]):
    """An attribute dict that drops every write, so the one shared
    null span never holds (or keeps alive) a request's values."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def __ior__(self, other: Any) -> "_NullAttributes":
        return self

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass

    def setdefault(self, key: str, default: Any = None) -> Any:
        return default


#: Placeholder span yielded by unsampled ``span()`` calls so callers
#: may unconditionally set attributes on the yielded object; the writes
#: land nowhere.
_NULL_SPAN = Span(
    name="", span_id=0, parent_id=None,
    started_wall=0.0, started_monotonic=0.0,
    attributes=_NullAttributes(),
)


class _NullScope(AbstractContextManager[Span]):
    """The no-op context manager every unsampled ``span()`` returns:
    one shared instance whose ``with`` yields :data:`_NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()

NULL_TRACE = _NullTrace()

_CURRENT_TRACE: ContextVar[Trace] = ContextVar(
    "repro_current_trace", default=NULL_TRACE
)


def current_trace() -> Trace:
    """The active trace of this thread of control (never ``None``)."""
    return _CURRENT_TRACE.get()


class Tracer:
    """Creates traces and applies the sampling policy."""

    def __init__(self, clock: Clock, sample_every: int = 1) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.clock = clock
        self.sample_every = sample_every
        # itertools.count.__next__ is atomic in CPython; no lock needed.
        self._ids = itertools.count(1)

    def trace(self, name: str = "query") -> Trace:
        """A new trace; ``sampled`` per the 1-in-N policy."""
        sequence = next(self._ids)
        sampled = (
            self.sample_every > 0
            and (sequence - 1) % self.sample_every == 0
        )
        return Trace(f"{name}-{sequence:08x}", sampled, self.clock)
