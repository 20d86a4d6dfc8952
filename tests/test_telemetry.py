"""Telemetry subsystem (repro.obs) and its serving-pipeline wiring.

Covers the metrics registry primitives, the span tracer, the slow-
query log and the Prometheus exposition round trip in isolation, then
the integration contracts the observability PR promises: ``stats()``
reads the same cells ``/metrics`` exposes (stage sums identical, not
merely close), a query driven through the scheduler leaves a full span
tree in the slow log, scheduler rejections increment the new rejection
counters, and a stats snapshot stays internally consistent under
concurrent epoch swaps.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import AnswerOutcome, MaterializedViewSystem
from repro.delta import DocumentEditor
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    ExpositionError,
    Histogram,
    ManualClock,
    MetricsRegistry,
    NULL_TRACE,
    SlowQueryLog,
    SlowQueryRecord,
    Telemetry,
    Trace,
    Tracer,
    current_trace,
    parse_exposition,
    render_prometheus,
)
from repro.service import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueryScheduler,
    SnapshotEngine,
    error_payload,
)
from repro.obs.trace import _NULL_SPAN
from repro.service import scheduler as scheduler_module
from repro.workload.xmark import generate_xmark
from repro.xmltree import XMLNode
from repro.xmltree.builder import encode_tree
from repro.xpath.parser import parse_xpath


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
def test_counter_inc_value_and_labels():
    counter = Counter("repro_things_total", "things", ("kind",))
    counter.inc(1.0, "a")
    counter.inc(2.5, "a")
    counter.inc(1.0, "b")
    assert counter.value("a") == pytest.approx(3.5)
    assert counter.value("b") == pytest.approx(1.0)
    assert counter.value("never") == 0.0
    with pytest.raises(ValueError):
        counter.inc(-1.0, "a")
    with pytest.raises(ValueError):
        counter.inc(1.0)  # label arity mismatch


def test_registry_get_or_create_is_idempotent_and_typed():
    registry = MetricsRegistry()
    first = registry.counter("repro_x_total", "x", ("k",))
    again = registry.counter("repro_x_total", "x", ("k",))
    assert first is again
    with pytest.raises(ValueError):
        registry.histogram("repro_x_total", "now a histogram")
    with pytest.raises(ValueError):
        registry.counter("repro_x_total", "x", ("other",))


def test_gauge_callback_and_set_are_exclusive():
    registry = MetricsRegistry()
    gauge = registry.gauge("repro_depth", "depth", fn=lambda: 4.0)
    assert gauge.value() == 4.0
    with pytest.raises(ValueError):
        gauge.set(2.0)
    plain = registry.gauge("repro_level", "level")
    plain.set(7.5)
    assert plain.value() == pytest.approx(7.5)


def test_counter_callback_and_inc_are_exclusive():
    registry = MetricsRegistry()
    counts = {"hits": 3.0}
    counter = registry.counter(
        "repro_hits", "hits", fn=lambda: counts["hits"]
    )
    assert counter.value() == 3.0
    counts["hits"] = 5.0
    assert counter.snapshot().samples[0].value == 5.0
    with pytest.raises(ValueError):
        counter.inc()
    with pytest.raises(ValueError):
        Counter("repro_labeled", "labeled", ("k",), fn=lambda: 1.0)


def test_histogram_buckets_sum_and_percentiles():
    histogram = Histogram(
        "repro_lat_seconds", "latency", buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.05, 0.5, 2.0):
        histogram.observe(value)
    view = histogram.view()
    assert view.count == 5
    assert view.sum == pytest.approx(2.605)
    assert view.counts == (1, 2, 1, 1)  # 3 bounds + overflow
    assert view.percentile(0.5) <= 0.1
    assert view.percentile(1.0) == 1.0  # overflow reports last bound
    assert histogram.sums() == {(): pytest.approx(2.605)}


def test_metric_cells_lose_no_update_across_threads():
    """4 threads x 5,000 ``observe``/``inc`` calls on one label set:
    no count is lost and the sum is exact (every value is dyadic, so
    float addition in any order is exact)."""
    histogram = Histogram(
        "repro_race_seconds", "race", ("stage",), buckets=(0.5, 1.0, 2.0)
    )
    counter = Counter("repro_race_total", "race", ("stage",))
    values = (0.25, 0.75, 1.5, 4.0)  # one per bucket, overflow included
    calls = 5000
    barrier = threading.Barrier(len(values))

    def hammer(value: float) -> None:
        barrier.wait()
        for _ in range(calls):
            histogram.observe(value, "join")
            counter.inc(value, "join")

    threads = [
        threading.Thread(target=hammer, args=(value,)) for value in values
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    view = histogram.view("join")
    assert view.counts == (calls,) * len(values)
    assert view.count == calls * len(values)
    assert view.sum == calls * sum(values)
    samples = {
        (sample.name, sample.labels): sample.value
        for sample in histogram.snapshot().samples
    }
    assert samples[("repro_race_seconds_count", (("stage", "join"),))] == (
        calls * len(values)
    )
    assert counter.value("join") == calls * sum(values)


def test_metric_label_arity_still_rejected_after_first_touch():
    histogram = Histogram("repro_arity_seconds", "arity", ("stage",))
    counter = Counter("repro_arity_total", "arity", ("stage",))
    histogram.observe(0.1, "parse")
    counter.inc(1.0, "parse")
    for bad in ((), ("parse", "extra")):
        with pytest.raises(ValueError):
            histogram.observe(0.1, *bad)
        with pytest.raises(ValueError):
            counter.inc(1.0, *bad)
    assert histogram.view("parse").count == 1
    assert counter.value("parse") == 1.0
    assert [s.labels for s in counter.snapshot().samples] == [
        (("stage", "parse"),)
    ]


def test_histogram_exact_sums_per_label_set():
    histogram = Histogram("repro_stage_seconds", "stages", ("stage",))
    histogram.observe(0.25, "parse")
    histogram.observe(0.5, "parse")
    histogram.observe(1.25, "join")
    assert histogram.sums() == {
        ("parse",): pytest.approx(0.75),
        ("join",): pytest.approx(1.25),
    }


# ----------------------------------------------------------------------
# clock / tracer / slow log
# ----------------------------------------------------------------------
def test_manual_clock_advances_deterministically():
    clock = ManualClock(start=10.0, wall_start=1000.0)
    began = clock.monotonic()
    clock.advance(2.5)
    assert clock.monotonic() - began == pytest.approx(2.5)
    assert clock.wall() == pytest.approx(1002.5)


def test_trace_spans_nest_and_tree_rebuilds():
    clock = ManualClock()
    tracer = Tracer(clock, sample_every=1)
    trace = tracer.trace()
    with trace.span("serve") as root:
        clock.advance(0.1)
        with trace.span("answer", strategy="HV"):
            clock.advance(0.2)
            with trace.span("parse"):
                clock.advance(0.05)
        root.attributes["done"] = True
    tree = trace.span_tree()
    assert [entry["name"] for entry in tree] == ["serve"]
    serve = tree[0]
    assert serve["duration_seconds"] == pytest.approx(0.35)
    assert serve["attributes"]["done"] is True
    (answer,) = serve["children"]
    assert answer["name"] == "answer"
    assert answer["attributes"]["strategy"] == "HV"
    assert [child["name"] for child in answer["children"]] == ["parse"]


def test_tracer_samples_one_in_n():
    tracer = Tracer(ManualClock(), sample_every=3)
    sampled = [tracer.trace().sampled for _ in range(6)]
    assert sampled == [True, False, False, True, False, False]
    # Ids are still unique for unsampled traces.
    ids = {tracer.trace().trace_id for _ in range(5)}
    assert len(ids) == 5


def test_unsampled_and_null_traces_are_noops():
    tracer = Tracer(ManualClock(), sample_every=0)
    trace = tracer.trace()
    with trace.span("anything") as span:
        span.attributes["ok"] = 1  # must not blow up
    assert trace.spans == []
    assert current_trace() is NULL_TRACE
    with NULL_TRACE.span("outside"):
        pass
    assert NULL_TRACE.spans == []


def test_unsampled_spans_share_one_scope_and_drop_attribute_writes():
    trace = Tracer(ManualClock(), sample_every=0).trace()
    scope = trace.span("answer", strategy="HV")
    assert scope is trace.span("parse")
    assert scope is NULL_TRACE.span("outside")
    with scope as span:
        span.attributes["query"] = "//a"
        span.attributes.update(epoch=3)
        span.attributes |= {"cache": "warm"}
        assert span.attributes.setdefault("views", []) == []
        with trace.span("nested") as inner:
            assert inner is span
    assert span.attributes == {}
    assert trace.spans == []


def test_null_span_holds_nothing_after_unsampled_answers():
    """Unsampled answers write their span attributes into the shared
    null span; the writes must land nowhere (a shared dict would keep
    the last request's objects alive across threads)."""
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=11))
    )
    system.register_views({"name": "//item/name"})
    assert current_trace() is NULL_TRACE
    cold = system.answer("//item/name")
    warm = system.answer("//item/name")
    assert not cold.plan_cache_hit and warm.plan_cache_hit
    assert _NULL_SPAN.attributes == {}


def test_trace_activation_scopes_current_trace():
    tracer = Tracer(ManualClock(), sample_every=1)
    trace = tracer.trace()
    with trace.activate():
        assert current_trace() is trace
        with current_trace().span("inner"):
            pass
    assert current_trace() is NULL_TRACE
    assert [span.name for span in trace.spans] == ["inner"]


def _record(trace_id: str, seconds: float) -> SlowQueryRecord:
    return SlowQueryRecord(
        trace_id=trace_id,
        query="//a",
        strategy="HV",
        status="ok",
        total_seconds=seconds,
        wall_time=0.0,
        epoch=1,
        plan_cache_hit=False,
        view_ids=("v1",),
    )


def test_slowlog_keeps_the_slowest():
    log = SlowQueryLog(capacity=2)
    assert log.record(_record("a", 0.10))
    assert log.record(_record("b", 0.30))
    assert log.record(_record("c", 0.20))  # evicts a (fastest)
    assert not log.record(_record("d", 0.05))  # slower residents win
    entries = log.entries()
    assert [entry.trace_id for entry in entries] == ["b", "c"]
    assert log.stats() == {"capacity": 2, "resident": 2, "recorded": 4}
    assert entries[0].as_dict()["view_ids"] == ["v1"]


def _offer(log: SlowQueryLog, trace_id: str, seconds: float) -> bool:
    """Offer a finished request the way the scheduler does: ask the
    floor first, build and record only what may enter."""
    return not log.decline(seconds) and log.record(_record(trace_id, seconds))


def test_slowlog_floor_declines_until_cleared():
    log = SlowQueryLog(capacity=2)
    assert not log.decline(0.0)  # not full: every offer may enter
    assert _offer(log, "a", 0.10)
    assert _offer(log, "b", 0.30)
    assert log.decline(0.10)  # no slower than the fastest resident
    assert not log.decline(0.11)
    assert _offer(log, "c", 0.20)  # evicts a; the floor rises to 0.20
    assert log.decline(0.15)
    assert log.stats() == {"capacity": 2, "resident": 2, "recorded": 5}
    log.clear()
    assert not log.decline(0.0)
    assert log.stats()["resident"] == 0


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    script=st.lists(
        st.one_of(
            st.none(),  # clear()
            st.tuples(st.integers(min_value=0, max_value=12), st.booleans()),
        ),
        max_size=60,
    ),
)
def test_slowlog_residents_are_a_reference_top_n(capacity, script):
    """Whether or not the floor is asked first, the residents are the
    top ``capacity`` durations offered since the last ``clear()``,
    and ``recorded`` counts every offer."""
    log = SlowQueryLog(capacity=capacity)
    since_clear: list[float] = []
    offers = 0
    for step in script:
        if step is None:
            log.clear()
            since_clear = []
            continue
        tenths, ask_floor = step
        seconds = tenths / 10
        offers += 1
        since_clear.append(seconds)
        if ask_floor:
            _offer(log, f"r{offers}", seconds)
        else:
            log.record(_record(f"r{offers}", seconds))
        resident = [entry.total_seconds for entry in log.entries()]
        assert resident == sorted(since_clear, reverse=True)[:capacity]
    assert log.stats()["recorded"] == offers


def test_slowlog_floor_skips_record_and_span_tree_for_fast_hits(
    small_system, monkeypatch
):
    engine = SnapshotEngine(small_system)
    scheduler = QueryScheduler(engine, workers=1)
    slowlog = small_system.telemetry.slowlog
    built: list[object] = []
    trees: list[object] = []
    real_record = scheduler_module.SlowQueryRecord
    real_tree = Trace.span_tree

    def counting_record(*args, **kwargs):
        built.append(args or kwargs)
        return real_record(*args, **kwargs)

    def counting_tree(self):
        trees.append(self)
        return real_tree(self)

    monkeypatch.setattr(scheduler_module, "SlowQueryRecord", counting_record)
    monkeypatch.setattr(Trace, "span_tree", counting_tree)
    try:
        scheduler.submit("//item/name")  # the plan is cached from here
        slowlog.clear()
        for index in range(slowlog.capacity):
            slowlog.record(_record(f"slow-{index}", 3600.0))
        built.clear()
        trees.clear()
        before = slowlog.stats()["recorded"]
        outcome = scheduler.submit("//item/name")
        assert outcome.plan_cache_hit
        assert built == [] and trees == []
        assert slowlog.stats()["recorded"] == before + 1
        assert all(e.trace_id.startswith("slow-") for e in slowlog.entries())
        slowlog.clear()  # the floor resets: the next hit enters
        assert scheduler.submit("//item/name").plan_cache_hit
        assert len(built) == 1 and len(trees) == 1
        assert slowlog.stats()["resident"] == 1
    finally:
        scheduler.close()
        slowlog.clear()


# ----------------------------------------------------------------------
# exposition round trip
# ----------------------------------------------------------------------
def test_render_parse_roundtrip():
    registry = MetricsRegistry()
    counter = registry.counter("repro_q_total", "queries", ("strategy",))
    counter.inc(3.0, "HV")
    counter.inc(1.0, 'we"ird\\label')
    histogram = registry.histogram(
        "repro_q_seconds", "latency", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    registry.gauge("repro_live", "liveness", fn=lambda: 1.0)

    payload = render_prometheus(registry.collect())
    families = parse_exposition(payload)
    totals = families["repro_q_total"]
    assert totals.kind == "counter"
    assert totals.value(strategy="HV") == 3.0
    assert totals.value(strategy='we"ird\\label') == 1.0
    latency = families["repro_q_seconds"]
    assert latency.kind == "histogram"
    assert latency.value(name="repro_q_seconds_count") == 2.0
    assert latency.value(name="repro_q_seconds_sum") == pytest.approx(0.55)
    assert latency.value(name="repro_q_seconds_bucket", le="0.1") == 1.0
    assert latency.value(name="repro_q_seconds_bucket", le="+Inf") == 2.0
    assert families["repro_live"].value() == 1.0


@pytest.mark.parametrize("payload", [
    "repro_x 1\n",  # sample before HELP/TYPE
    "# HELP repro_x x\n# TYPE repro_x counter\nrepro_x 1",  # no newline
    ("# HELP repro_x x\n# TYPE repro_x counter\n"
     "repro_x 1\nrepro_x 2\n"),  # duplicate sample
    ("# HELP repro_h h\n# TYPE repro_h histogram\n"
     'repro_h_bucket{le="0.1"} 5\nrepro_h_bucket{le="+Inf"} 3\n'
     "repro_h_sum 1\nrepro_h_count 3\n"),  # non-monotone buckets
])
def test_parse_exposition_rejects_malformed(payload):
    with pytest.raises(ExpositionError):
        parse_exposition(payload)


def test_telemetry_create_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "5")
    monkeypatch.setenv("REPRO_SLOWLOG_CAPACITY", "3")
    telemetry = Telemetry.create()
    assert telemetry.tracer.sample_every == 5
    assert telemetry.slowlog.capacity == 3
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "junk")
    assert Telemetry.create().tracer.sample_every == 1


# ----------------------------------------------------------------------
# system integration: stats() on the registry, spans in the pipeline
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_system():
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=11))
    )
    system.register_views({
        "name": "//item/name",
        "person": "//person/name",
    })
    return system


def test_stats_stage_seconds_equal_histogram_sums(small_system):
    small_system.answer("//item/name")
    small_system.answer("//item/name")  # warm hit
    stats = small_system.stats()
    payload = render_prometheus(small_system.telemetry.registry.collect())
    stage_family = parse_exposition(payload)["repro_stage_seconds"]
    for stage, seconds in stats["stage_seconds"].items():
        exposed = stage_family.value(
            name="repro_stage_seconds_sum", stage=stage
        )
        # Same cells read twice: equality is exact, not approximate.
        assert (exposed or 0.0) == seconds
    assert stats["answers"] >= 2
    assert stats["warm_hits"] >= 1


class _TickingClock(ManualClock):
    """A manual clock that moves one millisecond per reading, so every
    span between two readings is measurably non-zero."""

    def monotonic(self) -> float:
        self.advance(0.001)
        return super().monotonic()


def _ticking_book_system(views: dict[str, str]) -> MaterializedViewSystem:
    from repro.xmltree import build_tree

    system = MaterializedViewSystem(
        encode_tree(build_tree(("b", ["t", ("s", ["t"]), ("s", ["t"])]))),
        telemetry=Telemetry.create(_TickingClock()),
    )
    system.register_views(views)
    return system


def test_unanswerable_reads_observe_lookup_and_answer_latency():
    from repro.errors import ViewNotAnswerableError

    system = _ticking_book_system({"VT": "//b/t"})
    for cache, lookups in (("cold", 1), ("warm", 2)):
        with pytest.raises(ViewNotAnswerableError):
            system.answer("//s/t")
        latency = system._answer_hist.view(cache)
        assert latency.count == 1 and latency.sum > 0.0
        lookup = system._stage_hist.view("lookup")
        assert lookup.count == lookups and lookup.sum > 0.0
    assert system.stats()["stage_seconds"]["lookup"] > 0.0


def test_empty_rewrite_charges_its_refine_time():
    # No s has a p child: the view stores no fragment, so refinement
    # ends the rewrite early with an empty answer.
    system = _ticking_book_system({"VP": "//s/p"})
    outcome = system.answer("//s/p")
    assert outcome.codes == [] == system.direct_codes("//s/p")
    assert outcome.stage_seconds["refine"] > 0.0
    assert outcome.stage_seconds["join"] == 0.0
    assert outcome.stage_seconds["extract"] == 0.0
    assert system.stats()["stage_seconds"]["refine"] > 0.0


def test_metrics_exposition_covers_the_catalog(small_system):
    small_system.answer("//person/name")
    small_system.answer("//person/name")
    payload = render_prometheus(small_system.telemetry.registry.collect())
    families = parse_exposition(payload)
    for name in (
        "repro_stage_seconds",
        "repro_answer_seconds",
        "repro_answers_total",
        "repro_views_registered_total",
        "repro_epoch_swaps_total",
        "repro_epoch_seq",
        "repro_views_materialized",
        "repro_plan_cache_hits",
        "repro_plan_cache_misses",
    ):
        assert name in families, f"{name} missing from /metrics"
    # The fixture registers its views in one batch: one epoch publish.
    assert families["repro_epoch_swaps_total"].value() == 1.0
    # Cumulative plan-cache counts are counters, read from the cache's
    # own tallies at scrape time.
    plan = small_system.stats()["plan_cache"]
    assert plan["hits"] >= 1 and plan["misses"] >= 1
    for outcome in ("hits", "misses"):
        name = f"repro_plan_cache_{outcome}"
        assert f"# TYPE {name} counter" in payload.splitlines()
        assert families[name].kind == "counter"
        assert families[name].value() == plan[outcome]
    assert families["repro_views_materialized"].value() == 2.0


def test_plan_upkeep_counters_are_counters_equal_to_stats(small_system):
    small_system.answer("//item/name")
    editor = DocumentEditor(small_system)
    item = small_system.document.tree.nodes_with_label("item")[0]
    (name,) = item.find_children("name")
    # The deleted name leaves the cached answers by range; the inserted
    # one is spliced in.  Both times the plan stays cached.
    editor.delete_subtree(name.dewey)
    editor.insert_subtree(item.dewey, XMLNode("name", text="new"))
    warm = small_system.answer("//item/name")
    assert warm.plan_cache_hit
    assert warm.codes == small_system.direct_codes("//item/name")
    plan = small_system.stats()["plan_cache"]
    assert plan["plans_maintained"] == plan["plans_spliced"] == 2
    payload = render_prometheus(small_system.telemetry.registry.collect())
    families = parse_exposition(payload)
    for key in ("plans_maintained", "plans_spliced"):
        name = f"repro_plan_cache_{key}"
        assert f"# TYPE {name} counter" in payload.splitlines()
        assert families[name].kind == "counter"
        assert families[name].value() == plan[key]


def test_answer_records_span_tree_when_traced(small_system):
    trace = small_system.telemetry.tracer.trace()
    with trace.activate():
        small_system.answer("//item/name", "MV")
    names = {span.name for span in trace.spans}
    assert {"answer", "parse", "selection", "rewrite"} <= names
    (root,) = [
        span for span in trace.span_tree() if span["name"] == "answer"
    ]
    assert root["attributes"]["strategy"] == "MV"
    assert root["attributes"]["query"] == (
        parse_xpath("//item/name").canonical_string()
    )
    assert root["attributes"]["epoch"] == small_system.current_epoch().seq
    assert root["attributes"]["cache"] in ("cold", "warm")
    children = {child["name"] for child in root["children"]}
    assert "parse" in children


def test_stats_snapshot_consistent_under_concurrent_swaps():
    system = MaterializedViewSystem(
        encode_tree(generate_xmark(scale=0.05, seed=13))
    )
    system.register_view("name", "//item/name")
    stop = threading.Event()
    failures: list[str] = []

    patterns = ("//item/description", "//person/name", "//item/payment")

    def register_views() -> None:
        index = 0
        while not stop.is_set():
            system.register_view(
                f"extra{index}", patterns[index % len(patterns)]
            )
            index += 1

    def snapshot_stats() -> None:
        last_epoch = 0
        last_lookups = 0
        while not stop.is_set():
            system.answer("//item/name")
            stats = system.stats()
            plan = stats["plan_cache"]
            lookups = plan["hits"] + plan["misses"]
            if stats["epoch"] < last_epoch:
                failures.append("epoch went backwards")
            if lookups < last_lookups:
                failures.append(
                    "cumulative plan-cache counters went backwards "
                    "across an epoch swap"
                )
            if plan["entries"] > plan["maxsize"]:
                failures.append("entries exceed maxsize")
            last_epoch = stats["epoch"]
            last_lookups = lookups
    threads = [
        threading.Thread(target=register_views),
        threading.Thread(target=snapshot_stats),
        threading.Thread(target=snapshot_stats),
    ]
    for thread in threads:
        thread.start()
    import time as _time
    _time.sleep(0.8)
    stop.set()
    for thread in threads:
        thread.join()
    assert failures == []


# ----------------------------------------------------------------------
# scheduler rejection counters + slow log through the service layer
# ----------------------------------------------------------------------
class _StallEngine:
    """Parks every answer on a latch (no ``system`` attribute: the
    scheduler must fall back to building its own telemetry)."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def answer(self, pattern, strategy="HV"):
        self.entered.set()
        assert self.release.wait(timeout=10.0)
        return AnswerOutcome(codes=[], strategy=strategy, epoch_seq=1)

    @contextmanager
    def warm_hit(self, query_key, strategy):
        yield None  # no plan cache: every read takes the worker pool


def test_queue_full_rejection_increments_counter_and_retry_after():
    engine = _StallEngine()
    scheduler = QueryScheduler(engine, workers=1, queue_limit=1)
    try:
        def occupy(query: str) -> None:
            try:
                scheduler.submit(query, timeout=10.0)
            except (AdmissionRejectedError, DeadlineExceededError):
                pass

        # Distinct queries, so neither joins the other's flight: one
        # holds the worker, the other the queue slot.
        threads = [
            threading.Thread(target=occupy, args=(query,))
            for query in ("//a/b", "//a/e")
        ]
        threads[0].start()
        assert engine.entered.wait(timeout=5.0)
        # The probe must not take the queue slot before the second
        # flight does: a timed-out probe's flight keeps the slot, and
        # every later probe joins it instead of bouncing.
        threads[1].start()
        for _ in range(500):
            if scheduler.stats()["queue_depth"] == 1:
                break
            time.sleep(0.01)
        # Worker busy + queue slot taken: the next admission must bounce.
        with pytest.raises(AdmissionRejectedError) as excinfo:
            scheduler.submit("//c/d", timeout=0.05)
        deadline = excinfo.value
        assert deadline.retry_after > 0.0
        rejected = scheduler.telemetry.registry.counter(
            "repro_requests_rejected_total", "", ("reason",)
        )
        assert rejected.value("queue_full") >= 1.0
        status, body, headers = error_payload(deadline)
        assert status == 503
        assert float(headers["Retry-After"]) > 0.0
        assert body["retry_after"] == pytest.approx(deadline.retry_after)
    finally:
        engine.release.set()
        scheduler.close()


def test_deadline_rejection_increments_counter_and_retry_after():
    engine = _StallEngine()
    scheduler = QueryScheduler(engine, workers=1, queue_limit=4)
    try:
        with pytest.raises(DeadlineExceededError) as excinfo:
            scheduler.submit("//a/b", timeout=0.05)
        error = excinfo.value
        assert error.retry_after > 0.0
        rejected = scheduler.telemetry.registry.counter(
            "repro_requests_rejected_total", "", ("reason",)
        )
        assert rejected.value("deadline") >= 1.0
        status, body, headers = error_payload(error)
        assert status == 504
        assert float(headers["Retry-After"]) > 0.0
        assert body["retry_after"] == pytest.approx(error.retry_after)
    finally:
        engine.release.set()
        scheduler.close()


def test_slow_query_log_reproduces_the_span_tree(small_system):
    engine = SnapshotEngine(small_system)
    scheduler = QueryScheduler(engine, workers=2)
    slowlog = small_system.telemetry.slowlog
    slowlog.clear()
    try:
        scheduler.submit("//item/name")
        scheduler.submit("//person/name", "MV")
    finally:
        scheduler.close()
    entries = slowlog.entries()
    assert len(entries) == 2
    seconds = [entry.total_seconds for entry in entries]
    assert seconds == sorted(seconds, reverse=True)  # slowest first
    # The MV read misses the plan cache and goes through the queue (the
    # other one is a warm hit served inline, which can be the slower
    # one when a collection lands in it).
    (record,) = [e for e in entries if not e.plan_cache_hit]
    assert record.strategy == "MV"
    assert record.trace_id.startswith("query-")
    assert record.total_seconds > 0.0
    assert record.stage_seconds  # per-stage timings captured
    (serve,) = record.spans
    assert serve["name"] == "serve"
    child_names = [child["name"] for child in serve["children"]]
    assert "engine_gate" in child_names
    assert "answer" in child_names
    answer = next(
        child for child in serve["children"] if child["name"] == "answer"
    )
    grandchildren = {child["name"] for child in answer["children"]}
    assert "parse" in grandchildren
