"""Admission control, deadlines and coalescing (repro.service.scheduler).

The engine is replaced by a controllable fake so the tests can park
the worker pool on a latch and observe exactly how the scheduler
behaves with a full queue, an expired deadline, or a burst of
identical requests — without any timing-sensitive sleeps deciding
pass/fail.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.system import AnswerOutcome, MaterializedViewSystem
from repro.errors import ViewNotAnswerableError, XPathSyntaxError
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import _Flight
from repro.service import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueryScheduler,
    SnapshotEngine,
    build_query_mix,
    run_closed_loop,
    zipf_weights,
)

from repro.workload.xmark import generate_xmark
from repro.xmltree.builder import encode_tree

from conftest import xmark_twin


class _FakeEngine:
    """Answers ``//slow`` only after ``release`` is set; counts calls
    per canonical query so coalescing is directly observable."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.slow_entered = threading.Event()
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def answer(self, pattern, strategy="HV"):
        key = pattern.canonical_string()
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + 1
        if "slow" in key:
            self.slow_entered.set()
            assert self.release.wait(timeout=10.0)
        if "missing" in key:
            raise ViewNotAnswerableError(
                "no view covers it", uncovered=frozenset({"missing"})
            )
        return AnswerOutcome(
            codes=[(1, 2), (1, 3)], strategy=strategy, epoch_seq=7
        )

    @contextmanager
    def warm_hit(self, query_key, strategy):
        yield None  # no plan cache: every read takes the worker pool


@pytest.fixture
def engine():
    fake = _FakeEngine()
    yield fake
    fake.release.set()  # never leave a worker parked


def _park_worker(scheduler, engine):
    """Occupy the single worker with a slow flight; returns its thread."""
    thread = threading.Thread(
        target=lambda: scheduler.submit("//slow", timeout=30.0)
    )
    thread.start()
    assert engine.slow_entered.wait(timeout=5.0)
    return thread


def test_coalescing_single_execution_fans_out(engine):
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    try:
        parked = _park_worker(scheduler, engine)
        results: list[AnswerOutcome] = []
        lock = threading.Lock()

        def submit() -> None:
            outcome = scheduler.submit("//a/b", timeout=30.0)
            with lock:
                results.append(outcome)

        waiters = [threading.Thread(target=submit) for _ in range(4)]
        for thread in waiters:
            thread.start()
        # All four must be registered on one flight before release.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if scheduler.stats()["coalesced"] == 3:
                break
            time.sleep(0.01)
        assert scheduler.stats()["coalesced"] == 3
        engine.release.set()
        for thread in waiters:
            thread.join(timeout=10.0)
        parked.join(timeout=10.0)

        assert len(results) == 4
        # One evaluation served all four waiters...
        slow_key = [key for key in engine.calls if "slow" in key]
        fast_keys = [key for key in engine.calls if "slow" not in key]
        assert len(fast_keys) == 1 and engine.calls[fast_keys[0]] == 1
        assert len(slow_key) == 1
        # ...and every waiter owns an independent copy.
        identities = {id(outcome) for outcome in results}
        assert len(identities) == 4
        results[0].codes.append((9,))
        assert all(outcome.codes == [(1, 2), (1, 3)]
                   for outcome in results[1:])
        assert all(outcome.epoch_seq == 7 for outcome in results)
    finally:
        engine.release.set()
        scheduler.close()


def test_admission_rejects_when_queue_full(engine):
    scheduler = QueryScheduler(engine, workers=1, queue_limit=1)
    try:
        parked = _park_worker(scheduler, engine)
        # Fills the single queue slot.
        filler = threading.Thread(
            target=lambda: scheduler.submit("//a", timeout=30.0)
        )
        filler.start()
        deadline = time.monotonic() + 5.0
        while scheduler.stats()["queue_depth"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(AdmissionRejectedError) as excinfo:
            scheduler.submit("//b", timeout=30.0)
        assert excinfo.value.retry_after > 0
        assert scheduler.stats()["rejected"] == 1
        engine.release.set()
        filler.join(timeout=10.0)
        parked.join(timeout=10.0)
        # The rejected flight was unpublished: a retry succeeds.
        retry = scheduler.submit("//b", timeout=30.0)
        assert retry.codes
    finally:
        engine.release.set()
        scheduler.close()


def test_waiter_deadline_expires_while_queued(engine):
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    try:
        parked = _park_worker(scheduler, engine)
        with pytest.raises(DeadlineExceededError):
            scheduler.submit("//late", timeout=0.05)
        engine.release.set()
        parked.join(timeout=10.0)
    finally:
        engine.release.set()
        scheduler.close()
    # The worker dropped the expired flight without evaluating it, or
    # evaluated it after the waiter left — either way the waiter saw
    # a deadline error, and the scheduler accounted for the flight.
    stats = scheduler.stats()
    assert stats["expired"] + stats["completed"] >= 1


def test_coalesced_failure_raises_fresh_instances(engine):
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    try:
        parked = _park_worker(scheduler, engine)
        raised: list[BaseException] = []
        lock = threading.Lock()

        def submit() -> None:
            try:
                scheduler.submit("//missing", timeout=30.0)
            except ViewNotAnswerableError as error:
                with lock:
                    raised.append(error)

        waiters = [threading.Thread(target=submit) for _ in range(3)]
        for thread in waiters:
            thread.start()
        deadline = time.monotonic() + 5.0
        while scheduler.stats()["coalesced"] < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        engine.release.set()
        for thread in waiters:
            thread.join(timeout=10.0)
        parked.join(timeout=10.0)

        assert len(raised) == 3
        assert len({id(error) for error in raised}) == 3
        assert all(error.uncovered == frozenset({"missing"})
                   for error in raised)
    finally:
        engine.release.set()
        scheduler.close()


def test_syntax_error_raised_in_caller_before_admission(engine):
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    try:
        with pytest.raises(XPathSyntaxError):
            scheduler.submit("not an xpath !!")
        assert scheduler.stats()["submitted"] == 0
    finally:
        scheduler.close()


def test_close_drains_and_rejects_new_work(engine):
    scheduler = QueryScheduler(engine, workers=2, queue_limit=8)
    outcome = scheduler.submit("//a")
    assert outcome.codes
    scheduler.close()
    scheduler.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        scheduler.submit("//a")


# ----------------------------------------------------------------------
# plan-cache hits answered on the calling thread
# ----------------------------------------------------------------------
class _CountingEngine(SnapshotEngine):
    """A real engine whose worker-side ``answer`` is counted and can be
    held on a latch (hits answered inline never call it)."""

    def __init__(self, system) -> None:
        super().__init__(system)
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def answer(self, query, strategy="HV"):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return super().answer(query, strategy)


@pytest.fixture
def served_twin():
    system = xmark_twin()
    engine = _CountingEngine(system)
    queries = build_query_mix(system, limit=4)
    yield system, engine, queries
    engine.release.set()


def _plan_lookups(system) -> int:
    plan = system.stats()["plan_cache"]
    return plan["hits"] + plan["misses"]


def test_warm_hit_never_reaches_a_worker(served_twin):
    system, engine, queries = served_twin
    scheduler = QueryScheduler(engine, workers=2, queue_limit=8)
    try:
        cold = scheduler.submit(queries[0])
        assert not cold.plan_cache_hit and engine.calls == 1
        for _ in range(5):
            warm = scheduler.submit(queries[0])
            assert warm.plan_cache_hit
            assert warm.codes == cold.codes
        assert engine.calls == 1
        stats = scheduler.stats()
        assert stats["inline"] == 5
        assert stats["submitted"] == stats["completed"] == 6
    finally:
        scheduler.close()


def test_closed_scheduler_refuses_hits_too(served_twin):
    system, engine, queries = served_twin
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    scheduler.submit(queries[0])
    scheduler.close()
    with pytest.raises(RuntimeError, match="closed"):
        scheduler.submit(queries[0])
    assert scheduler.stats()["inline"] == 0


def test_saturated_queue_rejects_misses_but_serves_hits(served_twin):
    system, engine, queries = served_twin
    scheduler = QueryScheduler(engine, workers=1, queue_limit=1)
    threads: list[threading.Thread] = []
    try:
        scheduler.submit(queries[0])
        engine.release.clear()
        engine.entered.clear()
        for query in queries[1:3]:
            thread = threading.Thread(
                target=scheduler.submit, args=(query,),
                kwargs={"timeout": 30.0},
            )
            thread.start()
            threads.append(thread)
            if query == queries[1]:
                assert engine.entered.wait(timeout=5.0)  # worker parked
        deadline = time.monotonic() + 5.0
        while scheduler.stats()["queue_depth"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(queries[3], timeout=30.0)
        hit = scheduler.submit(queries[0], timeout=30.0)
        assert hit.plan_cache_hit
        stats = scheduler.stats()
        assert (stats["rejected"], stats["inline"]) == (1, 1)
    finally:
        engine.release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        scheduler.close()


def test_hit_falls_back_to_the_queue_while_a_maintainer_holds_the_gate(
    served_twin,
):
    system, engine, queries = served_twin
    scheduler = QueryScheduler(engine, workers=1, queue_limit=8)
    holding = threading.Event()
    release = threading.Event()

    def hold(_system) -> None:
        holding.set()
        assert release.wait(timeout=10.0)

    maintainer = threading.Thread(target=engine.maintain, args=(hold,))
    try:
        scheduler.submit(queries[0])
        maintainer.start()
        assert holding.wait(timeout=5.0)
        with pytest.raises(DeadlineExceededError):
            scheduler.submit(queries[0], timeout=0.05)
        stats = scheduler.stats()
        assert stats["inline"] == 0
        assert stats["deadline_waits"] == 1
        assert engine.calls == 2  # the hit went to the worker
        release.set()
        maintainer.join(timeout=10.0)
        # The gate is open again: the same read is served inline.
        assert scheduler.submit(queries[0]).plan_cache_hit
        assert scheduler.stats()["inline"] == 1
    finally:
        release.set()
        if maintainer.ident is not None:
            maintainer.join(timeout=10.0)
        scheduler.close()


def test_every_read_counts_exactly_one_plan_lookup():
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=3))
    )
    system.register_view("name", "//item/name")
    scheduler = QueryScheduler(
        _CountingEngine(system), workers=2, queue_limit=8
    )
    # Hits (inline) and misses (queued); the view cannot answer
    # ``//name`` or ``//no/such``, so their repeats are cached negatives.
    reads = ["//item/name", "//item/name", "//name", "//no/such",
             "//no/such", "//name", "//item/name"]
    try:
        for query in reads:
            before = _plan_lookups(system)
            try:
                scheduler.submit(query)
            except ViewNotAnswerableError:
                pass
            assert _plan_lookups(system) == before + 1, query
        stats = scheduler.stats()
        assert stats["inline"] == 4
        assert stats["submitted"] == len(reads)
        assert stats["failed"] == 4
    finally:
        scheduler.close()


class _SchedulerClient:
    """Closed-loop client straight into a scheduler; a failed request
    raises in its load thread and goes missing from the report."""

    def __init__(self, scheduler: QueryScheduler) -> None:
        self._scheduler = scheduler

    def query(self, expression, strategy="HV", timeout=None) -> int:
        self._scheduler.submit(expression, strategy, timeout=timeout)
        return 200


class _CountingEvent(threading.Event):
    """A flight's latch that records the timeout of every wait on it."""

    def __init__(self) -> None:
        super().__init__()
        self.waits: list[float | None] = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        return super().wait(timeout)


class _OwnedLock:
    """A lock that knows its holder, standing in for the scheduler's."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.owner: int | None = None

    def __enter__(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc_info):
        self.owner = None
        self._lock.release()


class _WatchedEngine(SnapshotEngine):
    """A real engine that counts the answers it derives while the
    answering thread holds the scheduler's lock."""

    def __init__(self, system) -> None:
        super().__init__(system)
        self.lock = _OwnedLock()
        self.answered_under_lock = 0

    def answer(self, query, strategy="HV"):
        if self.lock.owner == threading.get_ident():
            self.answered_under_lock += 1
        return super().answer(query, strategy)


def _serve_cell(workers: int, skewed: bool, monkeypatch):
    """200 closed-loop requests through a scheduler over a fresh
    derivation-bound system (plan cache off: every flight is a cold
    answer); returns the load report, the scheduler's counters, how
    many answers the engine derived, every flight and the engine."""
    system = xmark_twin(plan_cache_size=0)
    pool = build_query_mix(system, limit=12)
    clients = 1 if workers == 1 else 8 * workers
    flights = []

    class CountedFlight(_Flight):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.done = _CountingEvent()
            flights.append(self)

    monkeypatch.setattr(scheduler_module, "_Flight", CountedFlight)
    engine = _WatchedEngine(system)
    scheduler = QueryScheduler(
        engine, workers=workers,
        queue_limit=4 * clients, default_timeout=120.0,
    )
    scheduler._lock = engine.lock
    answers_before = system.stats()["answers"]
    try:
        report = run_closed_loop(
            lambda: _SchedulerClient(scheduler),
            pool,
            total_requests=200,
            concurrency=clients,
            weights=zipf_weights(len(pool)) if skewed else None,
            seed=42,
        )
        stats = scheduler.stats()
    finally:
        scheduler.close()
    answered = system.stats()["answers"] - answers_before
    return report, stats, answered, flights, engine


def test_real_engine_serves_every_request_once_per_flight(monkeypatch):
    cells = {
        (workers, skewed): _serve_cell(workers, skewed, monkeypatch)
        for workers, skewed in [(1, True), (8, True), (8, False)]
    }
    for (workers, skewed), cell in cells.items():
        report, stats, answered, flights, engine = cell
        assert report.requests == report.ok == 200, report.status_counts
        # A coalesced request waits on another's flight and derives
        # nothing: the engine answers exactly once per flight.
        assert answered == stats["submitted"] - stats["coalesced"]
        assert len(flights) == answered
        if workers > 1 and skewed:
            assert stats["coalesced"] > 0
        # No convoy, counted rather than timed: every waiter blocks on
        # its flight's event exactly once, for its whole budget (a
        # polling waiter would wait many times on short timeouts), and
        # no answer is derived under the scheduler's lock (which would
        # serialise every worker and every arriving request).
        assert sum(flight.waiters for flight in flights) == stats["submitted"]
        for flight in flights:
            assert len(flight.done.waits) == flight.waiters
            assert all(timeout > 60.0 for timeout in flight.done.waits)
        assert engine.answered_under_lock == 0
