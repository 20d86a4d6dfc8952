"""Linearizability of the concurrent serving path (repro.service).

The central claim of the epoch design: under a mixed concurrent
workload of answers and registrations, **every** answer is
byte-identical to what a serial system would produce at the registry
state named by the answer's ``epoch_seq``.  Epoch sequence numbers
advance by exactly one per committed registration, and the final
epoch's view dict preserves commit order, so the linearized history
can be replayed exactly after the fact.

Runs with runtime contracts on (``XMVR_CHECK=1`` via conftest), so the
sampled plan-consistency check audits warm hits *during* the storm.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import AbstractContextManager, contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro.delta.maintenance import DocumentEditor
from repro.core.system import MaterializedViewSystem
from repro.service import QueryScheduler, SnapshotEngine
from repro.storage import KVStore
from repro.workload.xmark import generate_xmark
from repro.xmltree.builder import encode_tree
from repro.xmltree.tree import XMLNode

INITIAL_VIEWS = {
    "name": "//item/name",
    "person": "//person/name",
    "paid": "//item[payment]/description",
}

#: Registered concurrently by the writer fraction of the workload.
DYNAMIC_EXPRESSIONS = [
    "//item/description",
    "//item/payment",
    "//person",
    "//item[name]/payment",
    "//site//name",
]

QUERIES = list(INITIAL_VIEWS.values())
STRATEGIES = ("HV", "HV", "HV", "MV")  # mostly the default strategy


def _build_system() -> MaterializedViewSystem:
    document = encode_tree(generate_xmark(scale=0.05, seed=11))
    system = MaterializedViewSystem(document)
    for view_id, expression in INITIAL_VIEWS.items():
        system.register_view(view_id, expression)
    return system


def test_concurrent_mixed_workload_linearizes():
    system = _build_system()
    engine = SnapshotEngine(system)
    expressions: dict[str, str] = dict(INITIAL_VIEWS)
    expressions_lock = threading.Lock()
    observations: list[tuple[str, str, int, list]] = []
    failures: list[BaseException] = []
    merge_lock = threading.Lock()
    threads = 8
    ops_per_thread = 40

    def worker(index: int) -> None:
        rng = random.Random(1000 + index)
        local: list[tuple[str, str, int, list]] = []
        try:
            for op in range(ops_per_thread):
                if rng.random() < 0.05:  # 5% writers
                    view_id = f"w{index}_{op}"
                    expression = rng.choice(DYNAMIC_EXPRESSIONS)
                    with expressions_lock:
                        expressions[view_id] = expression
                    engine.register_view(view_id, expression)
                else:
                    query = rng.choice(QUERIES)
                    strategy = rng.choice(STRATEGIES)
                    outcome = engine.answer(query, strategy)
                    local.append(
                        (query, strategy, outcome.epoch_seq,
                         list(outcome.codes))
                    )
        except BaseException as error:  # pragma: no cover - failure path
            with merge_lock:
                failures.append(error)
        with merge_lock:
            observations.extend(local)

    pool = [
        threading.Thread(target=worker, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()

    assert not failures, failures
    assert observations

    # Commit order: epoch seq k <=> the first k entries of the final
    # views dict (insertion-ordered) were registered.
    final_epoch = system.current_epoch()
    commit_order = list(final_epoch.views)
    assert final_epoch.seq == len(commit_order)

    # Serial replay: one fresh system per distinct epoch observed.
    replayed: dict[int, MaterializedViewSystem] = {}
    for _, _, seq, _ in observations:
        if seq in replayed:
            continue
        serial = MaterializedViewSystem(system.document)
        for view_id in commit_order[:seq]:
            serial.register_view(view_id, expressions[view_id])
        replayed[seq] = serial

    for query, strategy, seq, codes in observations:
        expected = replayed[seq].answer(query, strategy).codes
        assert codes == expected, (
            f"{query} ({strategy}) at epoch {seq}: concurrent answer "
            f"diverges from serial replay"
        )


def test_registration_never_blocks_readers():
    """A reader holding a pinned epoch mid-answer sees registrations
    land around it without ever observing a torn registry."""
    system = _build_system()
    engine = SnapshotEngine(system)
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                outcome = engine.answer("//item/name", "HV")
                assert outcome.codes
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    pool = [threading.Thread(target=reader) for _ in range(4)]
    for thread in pool:
        thread.start()
    for index in range(20):
        engine.register_view(f"r{index}", "//item/description")
    stop.set()
    for thread in pool:
        thread.join()
    assert not errors, errors
    assert system.view_count == len(INITIAL_VIEWS) + 20


def test_maintenance_gets_exclusive_access():
    """``maintain`` drains in-flight readers, runs alone, and answers
    issued afterwards observe the document change."""
    system = _build_system()
    engine = SnapshotEngine(system)
    before = engine.answer("//person/name", "HV")
    in_maintenance = threading.Event()
    overlap: list[str] = []

    def edit(target: MaterializedViewSystem) -> None:
        in_maintenance.set()
        assert engine._active == 0  # every shared participant drained
        editor = DocumentEditor(target)
        person = XMLNode("person")
        person.new_child("name")
        site = target.document.tree.root
        editor.insert_subtree(site.dewey, person)
        overlap.append("done")

    maintainer = threading.Thread(target=lambda: engine.maintain(edit))
    maintainer.start()
    in_maintenance.wait(timeout=5.0)
    maintainer.join(timeout=10.0)
    assert overlap == ["done"]

    after = engine.answer("//person/name", "HV")
    assert len(after.codes) == len(before.codes) + 1
    assert after.codes == system.direct_codes("//person/name")


def test_stats_snapshot_is_deep_and_race_free():
    """stats() under concurrent registration: no dict-changed-size
    errors, and the returned snapshot is detached from live state."""
    system = _build_system()
    engine = SnapshotEngine(system)
    errors: list[BaseException] = []
    stop = threading.Event()

    def poller() -> None:
        try:
            while not stop.is_set():
                snapshot = engine.stats()
                # Mutating the snapshot must not corrupt the system.
                snapshot["views"]["registered"] = -1  # type: ignore[index]
                snapshot["plan_cache"]["hits"] = -1  # type: ignore[index]
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    pool = [threading.Thread(target=poller) for _ in range(3)]
    for thread in pool:
        thread.start()
    for index in range(25):
        engine.register_view(f"s{index}", "//item/name")
        engine.answer("//item/name", "HV")
    stop.set()
    for thread in pool:
        thread.join()
    assert not errors, errors
    stats = engine.stats()
    assert stats["views"]["registered"] == len(INITIAL_VIEWS) + 25
    assert stats["epoch"] == len(INITIAL_VIEWS) + 25


# ----------------------------------------------------------------------
# first decodes under contention
# ----------------------------------------------------------------------
#: Distinct cold queries answered from the one ``/site/regions``
#: fragment: started together, their first extractions race on its
#: first decode.
REGION_QUERIES = (
    "/site/regions/africa/item/name",
    "/site/regions/europe/item[payment]/location",
    "/site/regions//item/quantity",
    "/site/regions/asia/item[shipping]/name",
)
DECODE_TRIALS = 20


@pytest.fixture(scope="module")
def regions() -> tuple[MaterializedViewSystem, KVStore, dict]:
    system = MaterializedViewSystem(encode_tree(generate_xmark(scale=0.2, seed=7)))
    assert system.register_view("V", "/site/regions")
    truth = {query: system.direct_codes(query) for query in REGION_QUERIES}
    return system, system.fragments.store, truth


@contextmanager
def _direct(system: MaterializedViewSystem) -> Iterator[Callable[[str], Any]]:
    yield system.answer


@contextmanager
def _scheduled(system: MaterializedViewSystem) -> Iterator[Callable[[str], Any]]:
    scheduler = QueryScheduler(SnapshotEngine(system), workers=4)
    try:
        yield scheduler.submit
    finally:
        scheduler.close()


def _racing_first_decodes(
    regions: tuple[MaterializedViewSystem, KVStore, dict],
    answering: Callable[
        [MaterializedViewSystem], AbstractContextManager[Callable[[str], Any]]
    ],
) -> str:
    """Per trial: a reopened system (fresh fragment list, nothing
    decoded, no plans) answers every region query at once, one thread
    each, with thread switches as frequent as the interpreter allows.
    Returns the wrong answers and errors, or "" when there are none."""
    system, store, truth = regions
    reads = wrong = 0
    errors: list[str] = []
    lock = threading.Lock()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(DECODE_TRIALS):
            reopened = MaterializedViewSystem.reopen(system.document, store)
            barrier = threading.Barrier(len(REGION_QUERIES))
            with answering(reopened) as answer:

                def read(query: str) -> None:
                    nonlocal reads, wrong
                    barrier.wait(timeout=10.0)
                    try:
                        codes = list(answer(query).codes)
                    except Exception as error:
                        with lock:
                            errors.append(repr(error))
                        return
                    with lock:
                        reads += 1
                        wrong += codes != truth[query]

                threads = [
                    threading.Thread(target=read, args=(query,))
                    for query in REGION_QUERIES
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    if not wrong and not errors:
        return ""
    return f"{wrong} wrong of {reads} reads, {len(errors)} errors: {errors[:3]}"


def test_racing_first_decodes_answer_exactly_on_threads(regions):
    """Every tree a fragment hands out is complete and published once:
    cold reads racing on a fragment's first decode each equal direct
    evaluation."""
    assert _racing_first_decodes(regions, _direct) == ""


def test_racing_first_decodes_answer_exactly_through_the_scheduler(regions):
    assert _racing_first_decodes(regions, _scheduled) == ""
