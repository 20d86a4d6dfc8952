"""Admission control, deadlines and request coalescing.

:class:`QueryScheduler` owns a pool of worker threads draining a
*bounded* queue.  A read whose plan is already cached skips the pool:
``submit`` answers it on the calling thread against the epoch it
probed (:meth:`SnapshotEngine.warm_hit`), since the hand-off to a
worker and back would cost far more than the answer.  The probe never
waits at the engine gate: while a maintainer holds or waits for it,
hits take the queue like every miss, so their deadlines still apply.
Three service-level policies govern the queued path:

* **Backpressure** — when the queue is full, ``submit`` fails fast
  with :class:`AdmissionRejectedError` carrying a ``retry_after`` hint
  (an EWMA of recent service time scaled by queue depth), instead of
  letting latency grow without bound.
* **Deadlines** — every request carries a monotonic deadline.  A
  waiter that times out raises :class:`DeadlineExceededError`; a
  request whose whole flight expired while still queued is dropped by
  the worker without being evaluated (its waiters see the same error).
  Both flavors carry a ``retry_after`` hint, mirrored into the 504's
  ``Retry-After`` header by the protocol layer.
* **Coalescing** — concurrent requests for the same
  ``(canonical query, strategy)`` key fold into one *flight*: a single
  derivation/evaluation fans its outcome out to every waiter.  Each
  waiter receives its own shallow copy (callers mutate ``codes``), and
  replayed :class:`ViewNotAnswerableError` failures are re-raised as
  fresh instances so tracebacks are not shared across threads.

**Telemetry.**  The scheduler is the trace root: admission creates a
:class:`~repro.obs.trace.Trace` for each flight's leader (or for an
inline hit), the thread that answers activates it around the engine
call (so every span the derivation pipeline opens lands in that
trace), and completion feeds the slow-query log.  Inline hits count
``submitted`` and ``completed``/``failed`` like flights, plus
``inline``; queued flights feed the ``repro_queue_wait_seconds``
histogram.  Counters and latency histograms live in the system's
shared :class:`~repro.obs.registry.MetricsRegistry` — the same cells
``GET /metrics`` exposes — with a construction-time baseline so
:meth:`stats` stays per-scheduler even though the registry is shared.

Deadline and queue arithmetic intentionally stay on the *real*
``time.monotonic`` (they parameterize real ``Event.wait`` timeouts);
service-time measurement and slow-log timestamps go through the
injected telemetry clock so tests can fake them.

The scheduler never interprets results — correctness is entirely the
engine's business; this layer only decides *when* and *once*.
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial
from typing import Callable

from ..core.system import AnswerOutcome
from ..errors import ReproError, ViewNotAnswerableError
from ..obs import SlowQueryRecord, Telemetry, Trace
from ..xpath.parser import parse_xpath
from ..xpath.pattern import TreePattern
from .engine import SnapshotEngine

__all__ = [
    "AdmissionRejectedError",
    "DeadlineExceededError",
    "QueryScheduler",
]

#: EWMA smoothing for observed service time (higher = more history).
_EWMA_KEEP = 0.8
#: Optimistic prior for the first retry-after estimate, seconds.
_EWMA_PRIOR = 0.005

#: Request lifecycle events counted in ``repro_requests_total``;
#: ``inline`` counts the plan-cache hits answered on the calling thread.
_EVENTS = ("submitted", "coalesced", "inline", "completed", "failed")
#: Rejection reasons counted in ``repro_requests_rejected_total``:
#: ``queue_full`` → 503, ``deadline`` (waiter timed out) → 504,
#: ``expired_in_queue`` (worker dropped the flight unevaluated).
_REASONS = ("queue_full", "deadline", "expired_in_queue")


class AdmissionRejectedError(ReproError):
    """The bounded admission queue is full; retry after a backoff.

    ``retry_after`` is the scheduler's estimate (seconds) of when a
    slot is likely to be free: EWMA service time scaled by the number
    of requests ahead of the rejected one.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ReproError):
    """The request was not served within its deadline.

    ``retry_after`` hints (seconds) when a retry is likely to be both
    admitted and served in time — the same EWMA-based estimate the
    admission rejection carries.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def _copy_outcome(outcome: AnswerOutcome) -> AnswerOutcome:
    """Per-waiter copy of a fanned-out outcome.  Mutable containers
    (``codes``, ``stage_seconds``) are copied; the immutable
    ``candidates`` tuple and the read-only intermediate artifacts are
    shared."""
    return AnswerOutcome(
        codes=list(outcome.codes),
        strategy=outcome.strategy,
        selection=outcome.selection,
        rewrite_result=outcome.rewrite_result,
        filter_result=outcome.filter_result,
        lookup_seconds=outcome.lookup_seconds,
        total_seconds=outcome.total_seconds,
        candidates=outcome.candidates,
        plan_cache_hit=outcome.plan_cache_hit,
        stage_seconds=dict(outcome.stage_seconds),
        epoch_seq=outcome.epoch_seq,
    )


def _copy_error(error: BaseException) -> BaseException:
    if isinstance(error, ViewNotAnswerableError):
        return ViewNotAnswerableError(
            str(error), uncovered=error.uncovered
        )
    if isinstance(error, DeadlineExceededError):
        return DeadlineExceededError(
            str(error), retry_after=error.retry_after
        )
    return error


class _Flight:
    """One coalesced unit of work plus its fan-out latch."""

    __slots__ = ("key", "pattern", "strategy", "deadline", "done",
                 "outcome", "error", "waiters", "trace", "created")

    def __init__(
        self,
        key: tuple[str, str],
        pattern: TreePattern,
        strategy: str,
        deadline: float,
        trace: Trace,
    ) -> None:
        self.key = key
        self.pattern = pattern
        self.strategy = strategy
        self.deadline = deadline
        self.done = threading.Event()
        self.outcome: AnswerOutcome | None = None
        self.error: BaseException | None = None
        self.waiters = 1
        #: The per-request trace; spans opened anywhere downstream of
        #: the worker's engine call nest into it.
        self.trace = trace
        #: Real-monotonic admission instant (queue-wait measurement).
        self.created = time.monotonic()


class QueryScheduler:
    """Bounded worker pool with coalescing over a snapshot engine."""

    def __init__(
        self,
        engine: SnapshotEngine,
        workers: int = 4,
        queue_limit: int = 64,
        default_timeout: float = 10.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._engine = engine
        self._default_timeout = default_timeout
        if telemetry is None:
            system = getattr(engine, "system", None)
            telemetry = getattr(system, "telemetry", None)
        if telemetry is None:
            telemetry = Telemetry.create()
        #: The bundle shared with the engine's system (one registry,
        #: one slow log) — or a private one when the engine carries no
        #: system (test fakes).
        self.telemetry = telemetry
        self._clock = telemetry.clock
        self._tracer = telemetry.tracer
        self._slowlog = telemetry.slowlog
        self._queue: queue.Queue[_Flight | None] = queue.Queue(
            maxsize=max(1, queue_limit)
        )
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._flights: dict[tuple[str, str], _Flight] = {}
        #: guarded-by: _lock
        self._ewma = _EWMA_PRIOR
        #: guarded-by: _lock (writes)
        self._closed = False
        registry = telemetry.registry
        self._events_total = registry.counter(
            "repro_requests_total",
            "Scheduler request lifecycle events.",
            ("event",),
        )
        self._rejected_total = registry.counter(
            "repro_requests_rejected_total",
            "Requests refused or dropped by the scheduler "
            "(queue_full -> 503, deadline -> 504, expired_in_queue -> "
            "dropped unevaluated).",
            ("reason",),
        )
        self._request_hist = registry.histogram(
            "repro_request_seconds",
            "Engine service time of executed flights and inline hits, "
            "by outcome.",
            ("status",),
        )
        self._queue_wait_hist = registry.histogram(
            "repro_queue_wait_seconds",
            "Time queued flights spent in the admission queue.",
        )
        registry.gauge(
            "repro_queue_depth",
            "Flights waiting in the admission queue.",
            fn=lambda: float(self._queue.qsize()),
        )
        registry.gauge(
            "repro_ewma_service_seconds",
            "EWMA of recent queued flights' engine service time.",
            fn=self._ewma_value,
        )
        # stats() is per-scheduler; the registry cells are shared with
        # the system (and any earlier scheduler over it), so remember
        # the construction-time values and report deltas.
        self._events_base = {
            event: self._events_total.value(event) for event in _EVENTS
        }
        self._rejected_base = {
            reason: self._rejected_total.value(reason)
            for reason in _REASONS
        }
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-query-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: str | TreePattern,
        strategy: str = "HV",
        timeout: float | None = None,
    ) -> AnswerOutcome:
        """Answer ``query``, blocking the caller.

        Parses (and so syntax-validates) the query in the calling
        thread.  A plan-cache hit is then answered right here, unless a
        maintainer holds or waits for the engine gate.  Any other read
        either joins an in-flight request with the same canonical key
        or enqueues a new flight.
        """
        pattern = (
            query if isinstance(query, TreePattern) else parse_xpath(query)
        )
        key = (pattern.canonical_string(), strategy)
        if not self._closed:
            with self._engine.warm_hit(key[0], strategy) as answer:
                if answer is not None:
                    return self._serve_inline(
                        key, partial(answer, pattern, strategy)
                    )
        budget = self._default_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget

        leader = False
        coalesced = False
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                # The flight serves the furthest-out waiter; joiners
                # must not inherit an earlier leader's tighter budget.
                flight.deadline = max(flight.deadline, deadline)
                coalesced = True
            else:
                flight = _Flight(
                    key, pattern, strategy, deadline,
                    self._tracer.trace(),
                )
                leader = True
                self._flights[key] = flight
        self._events_total.inc(1.0, "submitted")
        if coalesced:
            self._events_total.inc(1.0, "coalesced")

        if leader:
            try:
                self._queue.put_nowait(flight)
            except queue.Full:
                with self._lock:
                    if self._flights.get(key) is flight:
                        del self._flights[key]
                    retry_after = self._retry_after_locked()
                self._rejected_total.inc(1.0, "queue_full")
                raise AdmissionRejectedError(
                    f"admission queue full ({self._queue.maxsize} "
                    f"deep); retry after {retry_after:.3f}s",
                    retry_after=retry_after,
                ) from None

        remaining = deadline - time.monotonic()
        if not flight.done.wait(timeout=max(0.0, remaining)):
            with self._lock:
                retry_after = self._retry_after_locked()
            self._rejected_total.inc(1.0, "deadline")
            raise DeadlineExceededError(
                f"query not served within {budget:.3f}s",
                retry_after=retry_after,
            )
        if flight.error is not None:
            raise _copy_error(flight.error)
        assert flight.outcome is not None
        return _copy_outcome(flight.outcome)

    def stats(self) -> dict[str, object]:
        """Counter snapshot plus live queue depth.

        Values are deltas against the construction-time registry state,
        so they count *this* scheduler's traffic even though the
        underlying metric cells are shared with the system.
        """
        snapshot: dict[str, object] = {
            event: int(
                self._events_total.value(event) - self._events_base[event]
            )
            for event in _EVENTS
        }
        snapshot["rejected"] = int(
            self._rejected_total.value("queue_full")
            - self._rejected_base["queue_full"]
        )
        snapshot["expired"] = int(
            self._rejected_total.value("expired_in_queue")
            - self._rejected_base["expired_in_queue"]
        )
        snapshot["deadline_waits"] = int(
            self._rejected_total.value("deadline")
            - self._rejected_base["deadline"]
        )
        with self._lock:
            snapshot["ewma_service_seconds"] = self._ewma
            snapshot["in_flight"] = len(self._flights)
        snapshot["queue_depth"] = self._queue.qsize()
        snapshot["queue_limit"] = self._queue.maxsize
        snapshot["workers"] = len(self._threads)
        return snapshot

    def close(self) -> None:
        """Drain queued flights, stop the workers, reject new work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _ewma_value(self) -> float:
        with self._lock:
            return self._ewma

    def _retry_after_locked(self) -> float:
        depth = self._queue.qsize() + 1
        return max(0.01, self._ewma * depth / len(self._threads))

    def _worker(self) -> None:
        while True:
            flight = self._queue.get()
            if flight is None:
                return
            dequeued = time.monotonic()
            queue_wait = dequeued - flight.created
            self._queue_wait_hist.observe(queue_wait)
            if dequeued >= flight.deadline:
                with self._lock:
                    retry_after = self._retry_after_locked()
                self._rejected_total.inc(1.0, "expired_in_queue")
                self._finish(
                    flight,
                    error=DeadlineExceededError(
                        "request expired while queued",
                        retry_after=retry_after,
                    ),
                )
                continue
            try:
                outcome, elapsed = self._execute(
                    flight.trace,
                    flight.key,
                    partial(
                        self._engine.answer, flight.pattern, flight.strategy
                    ),
                    queue_wait_seconds=queue_wait,
                )
            except BaseException as error:
                self._finish(flight, error=error)
            else:
                with self._lock:
                    self._ewma = (
                        _EWMA_KEEP * self._ewma
                        + (1.0 - _EWMA_KEEP) * elapsed
                    )
                self._finish(flight, outcome=outcome)

    def _serve_inline(
        self, key: tuple[str, str], call: Callable[[], AnswerOutcome]
    ) -> AnswerOutcome:
        """Answer a plan-cache hit on the calling thread, counted and
        recorded like a flight of one."""
        self._events_total.inc(1.0, "submitted")
        self._events_total.inc(1.0, "inline")
        try:
            outcome, _elapsed = self._execute(
                self._tracer.trace(), key, call
            )
        except BaseException:
            self._events_total.inc(1.0, "failed")
            raise
        self._events_total.inc(1.0, "completed")
        return outcome

    def _execute(
        self,
        trace: Trace,
        key: tuple[str, str],
        call: Callable[[], AnswerOutcome],
        **attributes: float,
    ) -> tuple[AnswerOutcome, float]:
        """Run one engine call under ``trace``'s root ``serve`` span,
        observe its service time and record it in the slow log.
        Returns (outcome, seconds); re-raises the call's error."""
        started = self._clock.monotonic()
        try:
            with trace.activate():
                with trace.span(
                    "serve", query=key[0], strategy=key[1], **attributes
                ):
                    outcome = call()
        except BaseException as error:
            elapsed = self._clock.monotonic() - started
            self._request_hist.observe(elapsed, "error")
            self._record_slow(trace, key, None, error, elapsed)
            raise
        elapsed = self._clock.monotonic() - started
        self._request_hist.observe(elapsed, "ok")
        self._record_slow(trace, key, outcome, None, elapsed)
        return outcome, elapsed

    def _record_slow(
        self,
        trace: Trace,
        key: tuple[str, str],
        outcome: AnswerOutcome | None,
        error: BaseException | None,
        elapsed: float,
    ) -> None:
        """Offer the request to the slow log.  Most requests are
        faster than every resident of a full log; the log declines
        those before their record and span tree are built."""
        if self._slowlog.decline(elapsed):
            return
        self._slowlog.record(SlowQueryRecord(
            trace_id=trace.trace_id,
            query=key[0],
            strategy=key[1],
            status="ok" if error is None else type(error).__name__,
            total_seconds=elapsed,
            wall_time=self._clock.wall(),
            epoch=outcome.epoch_seq if outcome is not None else -1,
            plan_cache_hit=(
                outcome.plan_cache_hit if outcome is not None else False
            ),
            view_ids=(
                tuple(outcome.view_ids) if outcome is not None else ()
            ),
            stage_seconds=(
                dict(outcome.stage_seconds) if outcome is not None else {}
            ),
            spans=trace.span_tree(),
        ))

    def _finish(
        self,
        flight: _Flight,
        outcome: AnswerOutcome | None = None,
        error: BaseException | None = None,
    ) -> None:
        flight.outcome = outcome
        flight.error = error
        with self._lock:
            # Unpublish before waking waiters so a new arrival starts a
            # fresh flight rather than joining a finished one.
            if self._flights.get(flight.key) is flight:
                del self._flights[flight.key]
        self._events_total.inc(
            1.0, "completed" if error is None else "failed"
        )
        flight.done.set()
