"""The three workloads: set-up, warm-up, the measured loop and the gate.

Each workload is driven by one closed-loop client from one process with
the HV strategy over the 8 seed views plus 200 generated views.

* ``warm_zipf`` (scale 1.0, in-process): zipf(1.1) reads over a 40-query
  pool with the plan cache filled before timing — the cache-hit path.
* ``cold_adhoc`` (scale 1.0, in-process): 3,000 distinct generated
  queries, each answered once — every read misses the 1,024-entry plan
  cache and runs VFILTER, cover, selection and rewrite.
* ``serve_mixed`` (scale 0.5, over HTTP): blocks of reads followed by a
  ``POST /edit`` delete and re-insert pair — the write path and the
  service layers.

``warm_zipf`` and ``cold_adhoc`` do no writes while reads are measured.
Every workload must still report every end-to-end metric, so after
their reads they run a short in-process edit probe over their own
fixed site list; ``serve_mixed`` measures edits in earnest (100).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import resource
import threading
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.core.system import MaterializedViewSystem
from repro.delta import DocumentEditor
from repro.errors import ViewNotAnswerableError
from repro.matching.evaluate import evaluate
from repro.service import QueryScheduler, QueryServiceServer, SnapshotEngine
from repro.xmltree.builder import encode_tree
from repro.xmltree.dewey import format_code
from repro.xpath.ast import WILDCARD
from repro.xpath.parser import parse_xpath

from .hostref import LONG_OP_RUNS, NOMINAL_REF_MS, HostReference
from .inputs import EditSite, Inputs, build_inputs, subtree_from_json, zipf_weights
from .ledger import Tracer

__all__ = ["WORKLOADS", "RunResult", "run_workload"]

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Extra zipf draws per ``serve_mixed`` block, on top of one read of
#: every pool query.
BLOCK_ZIPF_READS = 30


@dataclass(frozen=True, slots=True)
class Workload:
    #: XMark scale of the document.
    scale: float
    #: Size of the fixed edit-site list.
    edit_sites: int
    #: Whether the run needs the ad-hoc query set.
    adhoc: bool
    #: Whether reads and edits go through the HTTP service.
    served: bool


WORKLOADS = {
    "warm_zipf": Workload(1.0, 5, False, False),
    "cold_adhoc": Workload(1.0, 5, True, False),
    "serve_mixed": Workload(0.5, 50, False, True),
}


def _sorted_codes(nodes: Any) -> list[Any]:
    return [
        node.dewey
        for node in sorted(nodes, key=lambda node: node.dewey_packed)
        if node.dewey is not None
    ]


class _Series:
    """Raw operation seconds and the index of the reference sample
    before each, kept in arrays the cyclic GC never scans."""

    __slots__ = ("raw_s", "ref_index")

    def __init__(self) -> None:
        self.raw_s = array("d")
        self.ref_index = array("l")

    def __len__(self) -> int:
        return len(self.raw_s)


@dataclass
class Measurements:
    """Raw operation times, per-layer ledger totals and failures."""

    ref: HostReference
    ops: dict[tuple[str, str], _Series] = field(default_factory=lambda: defaultdict(_Series))
    failures: list[str] = field(default_factory=list)
    #: Materialized views' own expressions: a read of one of them that
    #: comes back unanswerable is a failure, not an outcome.
    own_expressions: frozenset[str] = frozenset()
    #: Unanswerable reads by segment.
    unanswerable: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    segment: str = "untraced"
    tracer: Tracer | None = None
    #: Normalized self seconds by (op kind, layer) and counts by (kind,
    #: name), from traced operations.
    layer_s: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    layer_raw_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[tuple[str, str], float] = field(default_factory=lambda: defaultdict(float))
    _traced: list[tuple[str, float, int, dict[str, float], dict[str, float]]] = field(
        default_factory=list)
    #: Wall seconds spent on correctness checks inside measured phases.
    gate_s: float = 0.0
    _next_id: int = 0
    #: (sampling, check) seconds when the last traced operation began.
    _excluded: tuple[float, float] = (0.0, 0.0)
    adjust: Callable[[str, dict[str, float]], None] | None = None

    def op(self, kind: str, call: Callable[[], Any],
           verify: Callable[[Any], None] | None = None) -> Any:
        """Run one measured operation.  ``verify`` checks the result
        untimed; in a traced run it still sits inside the operation's
        root span, so the ledger covers the loop's own work."""
        tracer = self.tracer
        if tracer is not None:
            excluded = (self.ref.sampling_s, self.gate_s)
            if excluded != self._excluded:
                tracer.resume()
                self._excluded = excluded
            self._next_id += 1
            tracer.begin(self._next_id)
        started = perf_counter()
        try:
            result = call()
        except Exception as error:  # a failed operation, not a crash
            result = error
        raw = perf_counter() - started
        index = self.ref.mark(raw)
        series = self.ops[(self.segment, kind)]
        series.raw_s.append(raw)
        series.ref_index.append(index)
        if isinstance(result, Exception):
            self.failures.append(f"{kind}: {type(result).__name__}: {result}")
        elif verify is not None:
            verify(result)
        if tracer is not None:
            layers, counts = tracer.end()
            if self.adjust is not None:
                self.adjust(kind, layers)
            self._traced.append((kind, raw, index, layers, counts))
        return result

    def trace_with(self, tracer: Tracer | None) -> None:
        """Trace the following operations (``None`` stops).  The root
        span chain restarts now."""
        self.tracer = tracer
        if tracer is not None:
            tracer.resume()
            self._excluded = (self.ref.sampling_s, self.gate_s)

    def settle(self) -> None:
        """Take the closing reference sample and fold the traced
        operations into normalized per-layer totals."""
        self.ref.sample()
        for kind, raw, index, layers, counts in self._traced:
            factor = self.ref.factor(raw, index)
            for layer, seconds in layers.items():
                self.layer_raw_s[layer] += seconds
                self.layer_s[(kind, layer)] += seconds * factor
            for name, value in counts.items():
                self.counts[(kind, name)] += value
        self._traced.clear()

    def normalized_ms(self, segment: str, kind: str) -> list[float]:
        series = self.ops[(segment, kind)]
        factor = self.ref.factor
        return [
            raw * 1e3 * factor(raw, index)
            for raw, index in zip(series.raw_s, series.ref_index)
        ]

    def raw_ms(self, segment: str, kind: str) -> list[float]:
        return [raw * 1e3 for raw in self.ops[(segment, kind)].raw_s]

    def check(self, ok: bool, message: Callable[[], str]) -> None:
        if not ok:
            self.failures.append(message())

    def unanswered(self, query: str) -> None:
        self.unanswerable[self.segment] += 1
        if query in self.own_expressions:
            self.failures.append(f"a view's own expression came back unanswerable: {query!r}")


class Gate:
    """Ground truth from ``repro.matching.evaluate``, cached per (query,
    document version).  Edits bump ``version``.

    Each evaluation passes the nodes carrying the query's labels as the
    universe, as the BN baseline does: ``evaluate`` seeds candidates
    from the universe but follows parent links in the tree itself, so
    the answer set is the one over the whole document."""

    def __init__(self, system: MaterializedViewSystem) -> None:
        self.system = system
        self.version = 0
        self._version = -1
        self._truth: dict[str, list[Any]] = {}
        self._nodes: list[Any] = []
        self._by_label: dict[str, list[Any]] = {}

    def codes(self, query: str) -> list[Any]:
        if self._version != self.version:
            # Older versions are never read again.
            self._version = self.version
            self._truth = {}
            self._nodes = list(self.system.document.tree.iter_nodes())
            self._by_label = defaultdict(list)
            for node in self._nodes:
                self._by_label[node.label].append(node)
        truth = self._truth.get(query)
        if truth is None:
            pattern = parse_xpath(query)
            labels = {node.label for node in pattern.iter_nodes()}
            if WILDCARD in labels:
                universe = self._nodes
            else:
                universe = [n for label in labels for n in self._by_label.get(label, ())]
            answers = evaluate(pattern, self.system.document.tree, universe)
            truth = self._truth[query] = _sorted_codes(answers)
        return truth

    def dotted(self, query: str) -> list[str]:
        return [format_code(code) for code in self.codes(query)]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    system: MaterializedViewSystem
    server: QueryServiceServer | None
    #: Normalized seconds of each set-up part.
    parts: dict[str, float]
    raw_s: float

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


def _deploy(inputs: Inputs, served: bool, ref: HostReference) -> Deployment:
    """Encode the document, register every view and (``served``) start
    the HTTP service.  Input generation happens before the clock.  The
    parts are normalized by the samples taken around the whole set-up."""
    tree = inputs.fresh_tree()
    gc.collect()
    ref.sample(LONG_OP_RUNS)
    index = len(ref.samples_ms) - 1
    started = perf_counter()
    document = encode_tree(tree)
    encoded = perf_counter()
    system = MaterializedViewSystem(document)
    system.register_views(inputs.views)
    registered = perf_counter()
    server = None
    if served:
        engine = SnapshotEngine(system)
        server = QueryServiceServer(engine, QueryScheduler(engine))
        server.start()
    ready = perf_counter()
    ref.sample(LONG_OP_RUNS)
    factor = ref.factor(ready - started, index)
    return Deployment(
        system,
        server,
        {
            "document": (encoded - started) * factor,
            "register": (registered - encoded) * factor,
            "server_start": (ready - registered) * factor,
        },
        ready - started,
    )


def _decode_fragments(system: MaterializedViewSystem) -> None:
    """Untimed warm-up: decode every materialized view's fragments, as
    a long-running process would have."""
    for view in system.materialized_views():
        for fragment in system.fragments.fragments(view.view_id):
            fragment.prefixes
            fragment.subtree_index()


def _fragment_bytes(system: MaterializedViewSystem) -> int:
    store = system.fragments
    return sum(store.fragment_bytes(view_id) for view_id in store.view_ids())


# ----------------------------------------------------------------------
# reads
# ----------------------------------------------------------------------
def _read_local(system: MaterializedViewSystem, query: str) -> list[Any] | None:
    """One in-process read; ``None`` when the views cannot answer."""
    try:
        return system.answer(query, "HV").codes
    except ViewNotAnswerableError:
        return None


class _Client:
    """The closed-loop client's ``http.client`` connection."""

    def __init__(self, server: QueryServiceServer) -> None:
        host, port = server.address
        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.tracer: Tracer | None = None

    def post(self, path: str, body: dict[str, Any]) -> tuple[int, Any]:
        payload = json.dumps(body)
        if self.tracer is None:
            return self._post(path, payload)
        with self.tracer.span("service.http"):
            return self._post(path, payload)

    def _post(self, path: str, payload: str) -> tuple[int, Any]:
        self.connection.request(
            "POST", path, payload, {"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _pin_threads() -> None:
    """Pin every thread of the process to one CPU.  A served read hands
    the request from the client thread to the HTTP handler thread to a
    scheduler worker and back; across two vCPUs each hand-off is a
    cross-CPU wake-up whose cost follows the host's load, which the
    single-threaded reference does not see.  Threads started later (the
    handler of the client's connection) inherit the pinning."""
    cpu = {min(os.sched_getaffinity(0))}
    for thread in threading.enumerate():
        if thread.native_id is not None:
            os.sched_setaffinity(thread.native_id, cpu)


def _zipf_stream(pool_size: int, seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    weights = zipf_weights(pool_size)
    ranks = range(pool_size)
    while True:
        yield from rng.choices(ranks, weights=weights, k=4096)


# ----------------------------------------------------------------------
# edits
# ----------------------------------------------------------------------
def _report_checker(m: Measurements, op: str, site: EditSite) -> Callable[[Any], None]:
    """Every edit takes the delta path and moves the site's nodes."""

    def verify(report: Any) -> None:
        m.check(
            isinstance(report, dict)
            and report.get("operation") == op
            and report.get("full_reencode") is False
            and report.get("changed_nodes") == site.nodes,
            lambda: f"{op} at {format_code(site.code)}: report {str(report)[:200]}",
        )

    return verify


def _status_checker(m: Measurements, verify: Callable[[Any], None]) -> Callable[[Any], None]:
    def check(result: tuple[int, Any]) -> None:
        status, body = result
        m.check(status == 200, lambda: f"POST /edit returned {status}: {str(body)[:200]}")
        verify(body)

    return check


class _Editor:
    """Delete/re-insert pairs at fixed sites, in-process or over HTTP;
    after each pair the document must have its node count back.  No site
    is edited twice in a run, so each is deleted at its original code."""

    def __init__(self, m: Measurements, system: MaterializedViewSystem,
                 gate: Gate, client: _Client | None) -> None:
        self.m = m
        self.system = system
        self.gate = gate
        self.client = client
        self.editor = DocumentEditor(system) if client is None else None
        self.size = system.document.tree.size()

    def pair(self, site: EditSite) -> None:
        m = self.m
        m.ref.sample(LONG_OP_RUNS)
        if self.editor is not None:
            editor = self.editor
            subtree = subtree_from_json(site.subtree)
            m.op("edit", lambda: editor.delete_subtree(site.code).as_dict(),
                 _report_checker(m, "delete", site))
            m.ref.maybe_sample()
            m.op("edit", lambda: editor.insert_subtree(site.parent, subtree).as_dict(),
                 _report_checker(m, "insert", site))
        else:
            client = self.client
            assert client is not None
            delete = {"op": "delete", "node": format_code(site.code)}
            insert = {"op": "insert", "parent": format_code(site.parent),
                      "subtree": site.subtree}
            m.op("edit", lambda: client.post("/edit", delete),
                 _status_checker(m, _report_checker(m, "delete", site)))
            m.ref.maybe_sample()
            m.op("edit", lambda: client.post("/edit", insert),
                 _status_checker(m, _report_checker(m, "insert", site)))
        started = perf_counter()
        self.gate.version += 2
        size = self.system.document.tree.size()
        m.check(size == self.size,
                lambda: f"node count {size} != {self.size} after the pair at "
                        f"{format_code(site.code)}")
        m.gate_s += perf_counter() - started
        m.ref.maybe_sample()


# ----------------------------------------------------------------------
# measured loops
# ----------------------------------------------------------------------
def _answer_checker(m: Measurements, query: str, truth: Any) -> Callable[[Any], None]:
    def verify(codes: Any) -> None:
        if codes is None:
            m.unanswered(query)
        elif codes != truth:
            m.failures.append(f"wrong answer for {query!r}")

    return verify


def _warm_loop(m: Measurements, system: MaterializedViewSystem, pool: list[str],
               gate: Gate, draws: Iterator[int], seconds: float) -> None:
    checks = [_answer_checker(m, query, gate.codes(query)) for query in pool]
    reads = [(lambda query=query: _read_local(system, query)) for query in pool]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        rank = next(draws)
        m.op("read", reads[rank], checks[rank])
        m.ref.maybe_sample()


def _cold_loop(m: Measurements, system: MaterializedViewSystem, queries: list[str],
               gate: Gate) -> None:
    answered: list[tuple[str, Any]] = []

    def keep(query: str) -> Callable[[Any], None]:
        def verify(codes: Any) -> None:
            if codes is None:
                m.unanswered(query)
            else:
                answered.append((query, tuple(codes)))

        return verify

    for query in queries:
        m.op("read", lambda: _read_local(system, query), keep(query))
        m.ref.maybe_sample()
    # Checked after the loop, so ground-truth evaluation does not sit
    # between timed reads.
    started = perf_counter()
    for query, codes in answered:
        if list(codes) != gate.codes(query):
            m.failures.append(f"wrong answer for {query!r}")
    m.gate_s += perf_counter() - started


def _http_answer_checker(m: Measurements, query: str, truth: list[str],
                         version: int) -> Callable[[Any], None]:
    def verify(result: tuple[int, Any]) -> None:
        status, body = result
        if status == 422:
            m.unanswered(query)
        elif status != 200:
            m.failures.append(f"POST /query {query!r} returned {status}")
        elif body.get("codes") != truth:
            m.failures.append(f"wrong answer for {query!r} at version {version}")

    return verify


def _serve_loop(m: Measurements, client: _Client, pool: list[str], gate: Gate,
                editor: _Editor, blocks: list[EditSite], draws: Iterator[int],
                rng: random.Random) -> None:
    """Per site: read every pool query once plus zipf draws, shuffled,
    then delete and re-insert the site."""
    for site in blocks:
        started = perf_counter()
        checks = {
            query: _http_answer_checker(m, query, gate.dotted(query), gate.version)
            for query in pool
        }
        m.gate_s += perf_counter() - started
        block = list(pool) + [pool[next(draws)] for _ in range(BLOCK_ZIPF_READS)]
        rng.shuffle(block)
        for query in block:
            body = {"query": query}
            m.op("read", lambda: client.post("/query", body), checks[query])
            m.ref.maybe_sample()
        editor.pair(site)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _counters(system: MaterializedViewSystem,
              scheduler: QueryScheduler | None) -> dict[str, float]:
    """The counters the per-layer ratios are built from, read through
    ``stats()`` and ``QueryScheduler.stats()``."""
    stats: dict[str, Any] = system.stats()
    plan = stats["plan_cache"]
    memo = stats["coverage_memo"]
    views = stats["maintenance"].get("repro_maintenance_views_total", {})
    counters = {
        "plan.hits": plan["hits"],
        "plan.misses": plan["misses"],
        "plan.evictions": plan["evictions"],
        "plan.dropped": plan["plans_dropped"],
        "memo.served": memo["coverage_served"],
        "memo.computed": memo["coverage_computed"],
        "views.patched": views.get("patched", 0.0),
        "views.rebuilt": views.get("rebuilt", 0.0),
    }
    if scheduler is not None:
        sched = scheduler.stats()
        counters["sched.submitted"] = sched["submitted"]
        counters["sched.coalesced"] = sched["coalesced"]
    return {key: float(value) for key, value in counters.items()}


def _base_patch_s(system: MaterializedViewSystem) -> float:
    stages = system.stats()["maintenance"].get("repro_maintenance_delta_seconds", {})
    return float(stages.get("base_patch", 0.0))


def _base_patch_mover(m: Measurements,
                      system: MaterializedViewSystem) -> Callable[[str, dict[str, float]], None]:
    """Move each traced edit's base-index patch time, which ``stats()``
    reports, out of the ``DocumentEditor`` self time into its own row."""
    last = [_base_patch_s(system)]

    def adjust(kind: str, layers: dict[str, float]) -> None:
        if kind != "edit":
            return
        started = perf_counter()
        total = _base_patch_s(system)
        moved, last[0] = total - last[0], total
        layers["delta.edit"] = layers.get("delta.edit", 0.0) - moved
        layers["delta.base_patch"] = layers.get("delta.base_patch", 0.0) + moved
        m.gate_s += perf_counter() - started

    return adjust


class _TracedSegment:
    """Traces one measured segment and records what its ledger is
    checked against: the segment's wall time less reference sampling and
    correctness checks, counter deltas from ``stats()`` and
    ``QueryScheduler.stats()``, and the unanswerable reads."""

    def __init__(self, m: Measurements, system: MaterializedViewSystem,
                 scheduler: QueryScheduler | None, client: _Client | None) -> None:
        self.m = m
        self.system = system
        self.scheduler = scheduler
        self.client = client
        self.tracer = Tracer()
        self.wall_s = 0.0
        self.counters: dict[str, float] = {}
        self.unanswerable = 0

    def __enter__(self) -> "_TracedSegment":
        m = self.m
        m.ref.sample()
        self.counters = _counters(self.system, self.scheduler)
        m.adjust = _base_patch_mover(m, self.system)
        self.tracer.install()
        if self.client is not None:
            self.client.tracer = self.tracer
        self._excluded = m.ref.sampling_s + m.gate_s
        self._started = perf_counter()
        m.trace_with(self.tracer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        m = self.m
        self.wall_s = (perf_counter() - self._started
                       - (m.ref.sampling_s + m.gate_s - self._excluded))
        m.trace_with(None)
        m.adjust = None
        if self.client is not None:
            self.client.tracer = None
        self.tracer.uninstall()
        after = _counters(self.system, self.scheduler)
        self.counters = {key: after[key] - self.counters[key] for key in after}
        self.unanswerable = m.unanswerable["traced"]


@dataclass
class RunResult:
    measurements: Measurements
    #: Normalized set-up part seconds, one dict per repetition.
    setups: list[dict[str, float]]
    fragment_bytes: int
    peak_rss_mb: float
    traced: _TracedSegment | None
    description: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """One run: inputs, set-up (repeated), warm-up, measured segments.

    Untraced runs measure one segment.  Traced runs measure an untraced
    segment first (30% of the work) and a traced one after it, so
    ``trace.overhead_ratio`` compares like with like in one process.
    """
    workload = WORKLOADS[name]
    run_started = perf_counter()
    inputs = build_inputs(workload.scale, workload.edit_sites, workload.adhoc)
    ref = HostReference()
    setups: list[dict[str, float]] = []
    raw_setups: list[float] = []
    deployment: Deployment | None = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None  # freed before the next one is built
        deployment = _deploy(inputs, workload.served, ref)
        setups.append(deployment.parts)
        raw_setups.append(deployment.raw_s)
    assert deployment is not None
    system = deployment.system
    server = deployment.server
    client = _Client(server) if server is not None else None
    materialized = {view.view_id for view in system.materialized_views()}
    pool = inputs.pool(materialized)
    gate = Gate(system)
    m = Measurements(ref, own_expressions=frozenset(
        inputs.views[view_id] for view_id in materialized))
    rng = random.Random(seed)
    draws = _zipf_stream(len(pool), rng.randrange(1 << 30))
    editor = _Editor(m, system, gate, client)
    adhoc = list(inputs.adhoc)
    rng.shuffle(adhoc)
    remaining_sites = list(inputs.edit_sites)
    rng.shuffle(remaining_sites)
    setup_done = perf_counter()

    # Untimed warm-up, as in a long-running process.
    _decode_fragments(system)
    if name == "warm_zipf":
        for query in pool:
            _read_local(system, query)
    elif client is not None:
        # After set-up, which registers views on every CPU.
        _pin_threads()
        for query in pool:
            client.post("/query", {"query": query})

    def measure(share: float) -> None:
        """Warm reads run for their share of ``seconds``; the ad-hoc
        queries and the edit sites are fixed work, split by share."""
        nonlocal adhoc, remaining_sites
        if name == "warm_zipf":
            _warm_loop(m, system, pool, gate, draws, seconds * share)
        elif name == "cold_adhoc":
            count = round(len(inputs.adhoc) * share)
            queries, adhoc = adhoc[:count], adhoc[count:]
            _cold_loop(m, system, queries, gate)
        else:
            assert client is not None
            count = round(len(inputs.edit_sites) * share)
            blocks, remaining_sites = remaining_sites[:count], remaining_sites[count:]
            _serve_loop(m, client, pool, gate, editor, blocks, draws, rng)

    collections = [generation["collections"] for generation in gc.get_stats()]
    traced = None
    segments = [("untraced", 0.3), ("traced", 0.7)] if trace else [("untraced", 1.0)]
    for segment, share in segments:
        m.segment = segment
        # Every segment starts from the same collector state.
        gc.collect()
        if segment == "untraced":
            measure(share)
            continue
        scheduler = server.scheduler if server is not None else None
        traced = _TracedSegment(m, system, scheduler, client)
        with traced:
            measure(share)
    measured = perf_counter()
    if not trace and not workload.served:
        # Edit probe: the read-only workloads still report edit latency.
        # Sites go in list order from a collected heap, so the cyclic
        # GC's work lands on the same edits in every run.
        gc.collect()
        for site in inputs.edit_sites:
            editor.pair(site)
    probed = perf_counter()
    m.settle()
    collections = [
        generation["collections"] - before
        for generation, before in zip(gc.get_stats(), collections)
    ]
    fragment_bytes = _fragment_bytes(system)
    if client is not None:
        client.close()
    deployment.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    description = [
        f"workload {name}: seed {seed}, scale {workload.scale}, "
        f"{len(materialized)} of {len(inputs.views)} views materialized "
        f"after set-up, pool {len(pool)}, {len(inputs.edit_sites)} edit sites",
        "views not materialized: " + ", ".join(sorted(set(inputs.views) - materialized)),
        "set-up raw s: " + ", ".join(f"{seconds:.3f}" for seconds in raw_setups),
        f"host reference: median {ref.median_ms():.4f} ms over "
        f"{len(ref.samples_ms)} samples (nominal {NOMINAL_REF_MS} ms)",
        f"wall: inputs+setup {setup_done - run_started:.1f} s, measured "
        f"{measured - setup_done:.1f} s (checks {m.gate_s:.1f} s), edit probe "
        f"{probed - measured:.1f} s; cyclic GC runs by generation while "
        f"measuring: {collections}",
    ]
    return RunResult(m, setups, fragment_bytes, peak_rss_mb, traced,
                     description)
