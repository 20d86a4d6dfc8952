"""The full answering system (paper Figure 1).

:class:`MaterializedViewSystem` ties every component together over one
encoded document:

* **register views** — evaluate each view on the base data once and
  materialize its answer-node subtrees (with extended Dewey codes) into
  the fragment store, subject to the 128 KiB per-view cap; insert its
  decomposed path patterns into VFILTER.  There is one registration
  path, :meth:`register_views`: it takes a batch (``register_view`` is
  a batch of one) and publishes it as one epoch, so a view set loaded
  in one call gets one VFILTER automaton, built once, as in the paper.
* **answer queries** — filter (VFILTER), select (MN / MV / HV), rewrite
  (refine → holistic join → extract) using only materialized fragments
  and encodings; or fall back to the BN / BF base-data baselines.

The answering path is served through a :class:`~repro.core.plancache.PlanCache`
(warm repeats of a query skip filtering, homomorphism enumeration and
set cover entirely) and a shared :class:`~repro.core.leaf_cover.CoverageMemo`
(MN/MV/HV/CB and the rewrite stage share one coverage computation per
``(view, query)`` pair).  ``stats()`` exposes hit/miss counters and
per-stage timings.

**Epoch snapshots.**  The registry state a query depends on — view
catalog, materialized pool, VFILTER, plan cache — lives in one
immutable :class:`RegistryEpoch` published through ``self._epoch``.
Readers pin the epoch once at ``answer()`` entry and never look at
mutable registry state again, so concurrent registrations can never
tear a half-updated view pool through an in-flight query:
``register_views`` / ``reopen`` / eviction build the *next* epoch beside
the current one (copy-on-write; VFILTER grows by one immutable layer
per batch, see :class:`~repro.core.vfilter.LayeredVFilter`) and publish
it with a single reference swap.  Every answer is therefore byte-identical to a
serial execution against the consistent registry state of its pinned
epoch.  In-place document maintenance is the one exception — it cannot
be snapshotted and requires external exclusion (the service layer's
engine drains readers first; single-threaded library use needs
nothing).

This is the object the examples and benchmarks drive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import contracts
from ..errors import ViewNotAnswerableError
from ..obs import Telemetry, current_trace
from ..matching.evaluate import evaluate
from ..storage.fragments import DEFAULT_FRAGMENT_CAP, FragmentStore
from ..storage.index import DeweyStreamIndex, FullPathIndex, NodeIndex
from ..storage.kvstore import KVStore
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import DeweyCode
from ..xmltree.tree import XMLNode
from ..xpath.parser import parse_xpath
from ..xpath.pattern import TreePattern
from .contained import ContainedResult, maximal_contained_rewriting
from .leaf_cover import CoverageMemo, CoverageUnit
from .plancache import (
    DEFAULT_PLAN_CACHE_SIZE,
    Maintain,
    PlanCache,
    PlanCacheStats,
    PlanEntry,
    PlanUpkeep,
)
from .rewrite import RewriteResult, rewrite
from .selection import (
    Selection,
    UnitsFn,
    select_cost_based,
    select_heuristic,
    select_minimum,
)
from .vfilter import FilterResult, LayeredVFilter
from .view import View

__all__ = ["AnswerOutcome", "MaterializedViewSystem", "RegistryEpoch"]

#: Selection strategies accepted by :meth:`MaterializedViewSystem.answer`.
_STRATEGIES = ("HV", "MV", "MN", "CB")

#: Every stage key ``stats()["stage_seconds"]`` reports (coarse answer
#: phases first, then the fine-grained cold-path breakdown).
_STAGE_NAMES = (
    "parse", "lookup", "rewrite",
    "vfilter", "cover", "selection", "refine", "join", "extract",
)

@dataclass(frozen=True, slots=True)
class RegistryEpoch:
    """One immutable published state of the view registry.

    Everything a reader needs hangs off the epoch: the view catalog
    (``views`` — built copy-on-write, never mutated after publication),
    the answerable pool in registration order, the layered VFILTER and
    the epoch's own plan cache.  A query pins one epoch at entry and is
    thereby isolated from every later registration; cached plans can
    never leak across registry states because each epoch gets a fresh
    cache (``seq`` increases monotonically with each publication).
    """

    seq: int
    views: dict[str, View]
    materialized: tuple[View, ...]
    vfilter: LayeredVFilter
    plan_cache: PlanCache


def _sorted_codes(answers: Iterable[XMLNode]) -> list[DeweyCode]:
    """Answer extraction shared by the baselines and ground truth:
    the Dewey codes of every encoded answer node, in document order.
    Sorts on the packed byte key (flat comparison; unique per code, so
    the tuple itself is never compared)."""
    keyed = sorted(
        (node.dewey_packed, node.dewey)
        for node in answers
        if node.dewey is not None and node.dewey_packed is not None
    )
    return [code for _packed, code in keyed]


@dataclass(slots=True)
class AnswerOutcome:
    """Everything about one answered query.

    ``codes`` is the answer set; ``lookup_seconds`` covers filtering +
    selection (the paper's Figure 9 metric), ``total_seconds`` the whole
    pipeline (Figure 8).  ``selection`` / ``rewrite_result`` expose the
    intermediate artifacts.  ``candidates`` is the VFILTER candidate
    tuple the plan holds, shared and read-only (empty for ``MN``, which
    does not filter).  ``plan_cache_hit`` marks answers served
    from a cached plan; ``stage_seconds`` breaks the call down into
    ``parse`` / ``lookup`` / ``rewrite``.  ``epoch_seq`` is the
    sequence number of the registry epoch the answer was derived
    against (the service layer's linearization point).
    """

    codes: list[DeweyCode]
    strategy: str
    selection: Selection | None = None
    rewrite_result: RewriteResult | None = None
    filter_result: FilterResult | None = None
    lookup_seconds: float = 0.0
    total_seconds: float = 0.0
    candidates: tuple[str, ...] = ()
    plan_cache_hit: bool = False
    stage_seconds: dict[str, float] = field(default_factory=dict)
    epoch_seq: int = -1

    @property
    def view_ids(self) -> list[str]:
        return self.selection.view_ids if self.selection else []


class MaterializedViewSystem:
    """Answer XPath queries from multiple materialized views."""

    def __init__(
        self,
        document: EncodedDocument,
        fragment_cap: int = DEFAULT_FRAGMENT_CAP,
        store: KVStore | None = None,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        telemetry: Telemetry | None = None,
    ):
        #: state: hard
        self.document = document
        #: state: soft(derived-from=document?; rebuild=register_views)
        self.fragments = FragmentStore(
            document, store, cap_bytes=fragment_cap
        )
        self._plan_cache_size = plan_cache_size  #: state: hard
        #: state: soft(derived-from=document?; rebuild=intern)
        self._memo = CoverageMemo()
        #: The telemetry bundle every component of this system reports
        #: into; the service layer reuses it so scheduler counters and
        #: derivation histograms share one registry (and one clock).
        #: state: counter
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.create()
        )
        self._clock = self.telemetry.clock  #: state: hard
        #: guarded-by: _index_lock (writes)
        #: state: soft(derived-from=document; rebuild=_ensure_node_index)
        self._node_index: NodeIndex | None = None
        #: guarded-by: _index_lock (writes)
        #: state: soft(derived-from=document; rebuild=_ensure_path_index)
        self._path_index: FullPathIndex | None = None
        #: guarded-by: _index_lock (writes)
        #: state: soft(derived-from=document; rebuild=_ensure_stream_index)
        self._stream_index: DeweyStreamIndex | None = None
        #: Serialises every registry mutation (registration, eviction,
        #: maintenance).  Readers never take it: they pin ``_epoch``.
        #: Materialisation does store I/O under it by design — the
        #: mutation path is the slow path.
        #: lock: blocking-allowed
        self._mutate_lock = threading.RLock()
        #: Guards the scalar counters and the epoch/stats-base pairing.
        self._stats_lock = threading.Lock()
        #: Guards lazy construction of the BN/BF baseline indexes.
        self._index_lock = threading.Lock()
        #: Cumulative plan-cache counters of every retired epoch.
        #: guarded-by: _stats_lock
        #: state: counter
        self._plan_stats_base = PlanCacheStats()
        #: guarded-by: _mutate_lock (writes, pin-once)
        #: state: soft(derived-from=document?; rebuild=_publish)
        self._epoch = RegistryEpoch(
            seq=0,
            views={},
            materialized=(),
            vfilter=LayeredVFilter.build([]),
            plan_cache=PlanCache(plan_cache_size),
        )
        # Operational counters live in the telemetry registry — the
        # `/metrics` endpoint and stats() read the same cells, so the
        # two can never disagree.  Each metric carries its own leaf
        # lock; none is ever taken while holding another metric's.
        registry = self.telemetry.registry
        #: state: counter
        self._stage_hist = registry.histogram(
            "repro_stage_seconds",
            "Seconds spent in each answering pipeline stage.",
            ("stage",),
        )
        #: state: counter
        self._answer_hist = registry.histogram(
            "repro_answer_seconds",
            "End-to-end answer() latency (post-parse), by cache outcome.",
            ("cache",),
        )
        #: state: counter
        self._answers_total = registry.counter(
            "repro_answers_total",
            "answer() calls, by strategy and plan-cache outcome "
            "(unanswerable queries are counted too).",
            ("strategy", "cache"),
        )
        #: state: counter
        self._registrations_total = registry.counter(
            "repro_views_registered_total",
            "Views added to the catalog by registration.",
        )
        #: state: counter
        self._epoch_swaps_total = registry.counter(
            "repro_epoch_swaps_total",
            "Registry epoch publications (registration, eviction, reopen).",
        )
        registry.gauge(
            "repro_epoch_seq",
            "Sequence number of the published registry epoch.",
            fn=lambda: float(self._epoch.seq),
        )
        registry.gauge(
            "repro_views_materialized",
            "Views currently in the answerable pool.",
            fn=lambda: float(len(self._epoch.materialized)),
        )
        registry.counter(
            "repro_plan_cache_hits",
            "Cumulative plan-cache hits across epochs.",
            fn=lambda: float(self._plan_counters()[1]["hits"]),
        )
        registry.counter(
            "repro_plan_cache_misses",
            "Cumulative plan-cache misses across epochs.",
            fn=lambda: float(self._plan_counters()[1]["misses"]),
        )
        registry.counter(
            "repro_plan_cache_plans_maintained",
            "Cached plans an edit flagged and kept, answers maintained "
            "instead of re-derived.",
            fn=lambda: float(self._plan_counters()[1]["plans_maintained"]),
        )
        registry.counter(
            "repro_plan_cache_plans_spliced",
            "Maintained plans whose cached answers an edit patched.",
            fn=lambda: float(self._plan_counters()[1]["plans_spliced"]),
        )
        registry.gauge(
            "repro_plan_cache_entries",
            "Cached plans in the live epoch.",
            fn=lambda: float(self._plan_counters()[1]["entries"]),
        )
        registry.gauge(
            "repro_nfa_reads_compiled",
            "VFILTER token-stream reads served by compiled DFA tables "
            "(live epoch's layers).",
            fn=lambda: float(
                self._epoch.vfilter.compiled_stats()["reads_compiled"]
            ),
        )
        registry.gauge(
            "repro_nfa_reads_simulated",
            "VFILTER token-stream reads that fell back to NFA set "
            "simulation (live epoch's layers).",
            fn=lambda: float(
                self._epoch.vfilter.compiled_stats()["reads_simulated"]
            ),
        )

    # ------------------------------------------------------------------
    # epoch plumbing
    # ------------------------------------------------------------------
    def current_epoch(self) -> RegistryEpoch:
        """The currently published registry epoch (pin it to answer a
        batch of queries against one consistent state)."""
        return self._epoch

    @property
    def vfilter(self) -> LayeredVFilter:
        """The current epoch's filter (read-only snapshot)."""
        return self._epoch.vfilter

    @property
    def _views(self) -> dict[str, View]:
        """The current epoch's view catalog.  Treat as immutable: it is
        shared with published epochs and replaced, never mutated."""
        return self._epoch.views

    @property
    def _materialized(self) -> list[View]:
        """The current epoch's answerable pool (a fresh list)."""
        return list(self._epoch.materialized)

    @property
    def _plan_cache(self) -> PlanCache:
        return self._epoch.plan_cache

    def _publish(
        self,
        views: dict[str, View],
        materialized: tuple[View, ...],
        vfilter: LayeredVFilter,
    ) -> None:
        """Swap in the next epoch (callers hold ``_mutate_lock``).

        The retiring epoch's plan-cache counters are folded into the
        cumulative base under the stats lock together with the epoch
        swap itself, so :meth:`stats` never double- or under-counts a
        cache that is mid-retirement.  Readers that pinned the retiring
        epoch keep using it untouched — publication never blocks them.

        The incoming filter's transition tables are compiled here, at
        publish time, so cold queries against the new epoch take the
        one-probe-per-token path instead of NFA set simulation.  Layers
        shared with the retiring epoch keep their existing tables
        (compilation is an idempotent per-layer cache).
        """
        with current_trace().span("epoch_publish") as span:
            vfilter.precompile()
            retiring = self._epoch
            with self._stats_lock:
                self._plan_stats_base.absorb(
                    PlanCacheStats(**retiring.plan_cache.stats_dict())
                )
                self._epoch = RegistryEpoch(
                    seq=retiring.seq + 1,
                    views=views,
                    materialized=materialized,
                    vfilter=vfilter,
                    plan_cache=PlanCache(self._plan_cache_size),
                )
            span.attributes["seq"] = retiring.seq + 1
        self._epoch_swaps_total.inc()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    #: state: mutator
    def register_view(self, view_id: str, expression: str | TreePattern) -> bool:
        """Materialize a view; returns False when the 128 KiB cap was hit
        (the view is then excluded from answering, as in the paper)."""
        return view_id in self.register_views({view_id: expression})

    #: state: mutator
    def register_views(
        self, expressions: dict[str, str | TreePattern]
    ) -> list[str]:
        """Register a batch of views; returns the ids that materialized
        fully, in batch order.

        Every expression is parsed and every id checked against the
        catalog before anything is evaluated or written, so a bad batch
        raises with the store untouched.  Plans are then invalidated
        once, each view is evaluated on the base tree and materialized
        in turn, and the whole batch is published as one epoch whose
        VFILTER gains one layer (:meth:`LayeredVFilter.with_views`).

        Invalidation runs *first*: the plan cache only refills through
        ``answer()``, so one drop covers every mutation of the call
        (xmvrlint L7).  If a view raises mid-batch, the views before it
        are already in the store, so the ``finally`` publishes them:
        the catalog never disagrees with what :meth:`reopen` reads
        back.  In-flight readers pinned to the previous epoch are
        untouched — they never see the half-built successor.
        """
        views = [
            View(view_id, expression)
            if isinstance(expression, TreePattern)
            else View.from_xpath(view_id, expression)
            for view_id, expression in expressions.items()
        ]
        with self._mutate_lock:
            epoch = self._epoch
            for view in views:
                if view.view_id in epoch.views:
                    raise ValueError(f"duplicate view id {view.view_id!r}")
            self._invalidate_plans()
            catalog = dict(epoch.views)
            admitted: list[View] = []
            try:
                for view in views:
                    answers = evaluate(view.pattern, self.document.tree)
                    fits = self.fragments.materialize(
                        view.view_id,
                        [
                            (node.dewey, node)
                            for node in answers
                            if node.dewey is not None
                        ],
                    )
                    self._persist_definition(view)
                    catalog[view.view_id] = view
                    if fits:
                        admitted.append(view)
            finally:
                self._publish(
                    catalog,
                    epoch.materialized + tuple(admitted),
                    epoch.vfilter.with_views(admitted),
                )
                self._registrations_total.inc(
                    float(len(catalog) - len(epoch.views))
                )
            return [view.view_id for view in admitted]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    _DEFINITION_PREFIX = b"d:"

    def _persist_definition(self, view: View) -> None:
        from ..storage.serialize import encode_text

        key = self._DEFINITION_PREFIX + view.view_id.encode()
        self.fragments.store.put(key, encode_text(view.to_xpath()))

    @classmethod
    def reopen(
        cls,
        document: EncodedDocument,
        store: KVStore,
        fragment_cap: int = DEFAULT_FRAGMENT_CAP,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
    ) -> "MaterializedViewSystem":
        """Rebuild a system from a store written in an earlier session.

        Fragments are *not* re-materialized: view definitions are read
        back, the fragment store loads every view's manifest and
        fragment list as it opens (no read goes to the KV store
        afterwards), VFILTER is reconstructed from the definitions, and
        capped views stay excluded — the same state as after the
        original ``register_view`` calls, minus the base-data
        evaluation cost.  The fragments are decoded under
        ``document``'s schema, which must be the one they were written
        under.  Plan cache and memo start empty (they are in-memory
        artifacts of one session).  The rebuilt registry is
        staged off to the side and published as one epoch, so a reader
        handed the system object mid-reopen would see either the empty
        initial epoch or the complete catalog, never a prefix.
        """
        from ..storage.serialize import decode_text

        system = cls(
            document,
            fragment_cap=fragment_cap,
            store=store,
            plan_cache_size=plan_cache_size,
        )
        definitions: dict[str, str] = {}
        for key, value in store.scan_prefix(cls._DEFINITION_PREFIX):
            view_id = key[len(cls._DEFINITION_PREFIX):].decode()
            expression, _ = decode_text(value, 0)
            definitions[view_id] = expression
        views: dict[str, View] = {}
        materialized: list[View] = []
        for view_id in sorted(definitions):
            view = View.from_xpath(view_id, definitions[view_id])
            views[view_id] = view
            if system.fragments.is_materialized(view_id):
                materialized.append(view)
        with system._mutate_lock:
            # Invalidate-first like every other mutator (a no-op on the
            # fresh system, but it keeps the uniform L7 discipline: an
            # exception out of the filter build cannot strand plans).
            system._invalidate_plans()
            system._publish(
                views, tuple(materialized), LayeredVFilter.build(materialized)
            )
        return system

    @property
    def view_count(self) -> int:
        return len(self._epoch.materialized)

    def view(self, view_id: str) -> View:
        return self._epoch.views[view_id]

    def materialized_views(self) -> list[View]:
        return list(self._epoch.materialized)

    def _evict_materialized(self, view_ids: Iterable[str]) -> None:
        """Remove views from the answerable pool (they stay cataloged)
        and publish an epoch with a rebuilt monolithic VFILTER.  Used
        by document maintenance when a refreshed view outgrows the
        fragment cap or fails to re-materialize.

        An evicted view's fragments also leave the fragment store (its
        list, fragment keys and manifest): they may hold the pre-edit
        document, and a :meth:`reopen` would otherwise bring the view
        back with them.  A capped view keeps its capped manifest.
        """
        with self._mutate_lock:
            self._invalidate_plans()
            epoch = self._epoch
            gone = set(view_ids)
            materialized = tuple(
                view
                for view in epoch.materialized
                if view.view_id not in gone
            )
            vfilter = LayeredVFilter.build(
                list(materialized), epoch.vfilter.attribute_pruning
            )
            self._publish(epoch.views, materialized, vfilter)
            for view_id in sorted(gone):
                if self.fragments.is_materialized(view_id):
                    self.fragments.drop(view_id)

    # ------------------------------------------------------------------
    # plan cache plumbing
    # ------------------------------------------------------------------
    def _invalidate_plans(
        self,
        affected: Iterable[str] | None = None,
        maintain: Maintain | None = None,
    ) -> PlanUpkeep:
        """Drop or maintain cached plans after a view-pool or document
        mutation.

        Called by :meth:`register_views` (no argument — blanket clear, and the publish that follows retires
        the cleared cache wholesale) and by
        :class:`~repro.delta.maintenance.DocumentEditor` on edits, which
        passes the affected view ids and its ``maintain`` callback: the
        plans that selected one of the affected views are kept as
        ``maintain`` patches them or dropped
        (:meth:`PlanCache.invalidate_views`); everything else stays
        warm across the edit.  Should ``maintain`` raise,
        every plan is dropped before the error propagates.

        The coverage memo carries over epoch swaps: coverage is a pure
        function of the view and query patterns, so registration never
        evicts it; maintenance separately evicts the entries of the
        views it touches
        (:meth:`~repro.core.leaf_cover.CoverageMemo.evict_views`).
        """
        epoch = self._epoch
        if affected is None:
            return PlanUpkeep(epoch.plan_cache.clear(), 0)
        try:
            return epoch.plan_cache.invalidate_views(affected, maintain)
        except BaseException:
            # An upkeep that did not finish leaves every plan suspect:
            # the blanket clear.
            self._invalidate_plans()
            raise

    def _plan_counters(self) -> tuple[RegistryEpoch, dict[str, int]]:
        """Pin one epoch and assemble its cumulative plan-cache
        counters *atomically*: the epoch reference, the retired-epoch
        base and the live cache's counters + entry count are all
        captured inside one ``_stats_lock`` hold (the live cache is
        read via :meth:`PlanCache.snapshot`, one lock hold on its
        side), so no concurrent epoch swap can pair counters from one
        epoch with the seq or entry count of another."""
        with self._stats_lock:
            epoch = self._epoch
            plan: dict[str, int] = self._plan_stats_base.as_dict()
            live, entries = epoch.plan_cache.snapshot()
        for key, value in live.items():
            plan[key] += value
        plan["entries"] = entries
        plan["maxsize"] = epoch.plan_cache.maxsize
        return epoch, plan

    def stats(self) -> dict[str, object]:
        """Operational counters for the answering hot path.

        Returns a *deep snapshot* assembled from the telemetry
        registry (the same cells ``/metrics`` exposes — there is no
        parallel bookkeeping to drift): every nested dict is freshly
        built, so a caller (the service ``/stats`` endpoint, a test)
        can hold or mutate the result while serving continues.
        Plan-cache counters are cumulative across epochs — the retired
        epochs' folded base plus the live cache — and are captured
        atomically with the reported ``epoch`` seq.
        """
        epoch, plan = self._plan_counters()
        answers_snap = self._answers_total.snapshot()
        answers = int(sum(s.value for s in answers_snap.samples))
        warm_hits = int(sum(
            s.value
            for s in answers_snap.samples
            if ("cache", "warm") in s.labels
        ))
        stage = {name: 0.0 for name in _STAGE_NAMES}
        for key, total in self._stage_hist.sums().items():
            stage[key[0]] = total
        return {
            "views": {
                "registered": len(epoch.views),
                "materialized": len(epoch.materialized),
            },
            "plan_cache": plan,
            "vfilter": epoch.vfilter.compiled_stats(),
            "coverage_memo": self._memo.stats(),
            "answers": answers,
            "warm_hits": warm_hits,
            "epoch": epoch.seq,
            "stage_seconds": stage,
            "maintenance": self._maintenance_stats(),
        }

    def _maintenance_stats(self) -> dict[str, dict[str, float]]:
        """Maintenance counter/histogram cells from the registry, keyed
        by metric name then joined label values (empty before the first
        edit — the editor creates the cells lazily)."""
        section: dict[str, dict[str, float]] = {}
        for snap in self.telemetry.registry.collect():
            if not snap.name.startswith("repro_maintenance"):
                continue
            cells: dict[str, float] = {}
            if snap.kind == "counter":
                for sample in snap.samples:
                    label = "|".join(value for _, value in sample.labels)
                    cells[label or "total"] = sample.value
            elif snap.kind == "histogram":
                for sample in snap.samples:
                    if not sample.name.endswith("_sum"):
                        continue
                    label = "|".join(value for _, value in sample.labels)
                    cells[label or "total"] = sample.value
            else:
                continue
            section[snap.name] = cells
        return section

    # ------------------------------------------------------------------
    # answering with views
    # ------------------------------------------------------------------
    def answer(
        self,
        query: str | TreePattern,
        strategy: str = "HV",
        *,
        epoch: RegistryEpoch | None = None,
    ) -> AnswerOutcome:
        """Answer ``query`` from materialized views.

        ``strategy`` is ``"HV"`` (heuristic + VFILTER), ``"MV"``
        (minimum + VFILTER), ``"MN"`` (minimum, no VFILTER) or ``"CB"``
        (cost model + VFILTER, the extension the paper sketches).  Raises
        :class:`~repro.errors.ViewNotAnswerableError` when the
        materialized views cannot answer the query.

        Repeated queries (same canonical pattern, same strategy) are
        served from the plan cache until the next view registration or
        maintenance update.

        The registry ``epoch`` is pinned once at entry (or passed in by
        a caller that wants several queries against one consistent
        state); everything downstream — filter, catalog lookups, plan
        cache — reads only the pinned epoch, so a concurrent
        registration can never tear this answer.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use {_STRATEGIES}")
        trace = current_trace()
        with trace.span("answer", strategy=strategy) as root:
            entered = self._clock.monotonic()
            with trace.span("parse"):
                pattern = (
                    parse_xpath(query) if isinstance(query, str) else query
                )
                query_key = pattern.canonical_string()
            started = self._clock.monotonic()
            if epoch is None:
                epoch = self._epoch
            self._stage_hist.observe(started - entered, "parse")

            entry = (
                epoch.plan_cache.get(query_key, strategy)
                if epoch.plan_cache.enabled
                else None
            )
            if trace.sampled:
                root.attributes["query"] = query_key
                root.attributes["epoch"] = epoch.seq
                root.attributes["cache"] = (
                    "warm" if entry is not None else "cold"
                )
            # One read of XMVR_CHECK per answer, shared by both paths.
            checked = contracts.enabled()
            if entry is not None:
                return self._answer_warm(
                    entry, strategy, query_key, entered, started, epoch,
                    checked,
                )
            return self._answer_cold(
                pattern, strategy, query_key, entered, started, epoch,
                checked,
            )

    def _derive_selection(
        self,
        pattern: TreePattern,
        strategy: str,
        units_fn: UnitsFn | None = None,
        epoch: RegistryEpoch | None = None,
        stage_acc: dict[str, float] | None = None,
    ) -> tuple[FilterResult | None, Selection]:
        """Filter + select for one query: the plan-derivation core.

        With ``units_fn=None`` every coverage computation runs fresh
        (no :class:`CoverageMemo`), which is what the contract layer
        needs to cross-check cached plans against first principles —
        it passes the epoch the cached plan was derived against, so the
        cross-check is immune to registrations that landed since.

        ``stage_acc`` receives cumulative ``vfilter`` / ``selection``
        seconds; coverage time accumulated by ``units_fn`` into
        ``stage_acc["cover"]`` during selection is subtracted back out
        of ``selection``, so the two stages never double-count.
        """
        if epoch is None:
            epoch = self._epoch

        def timed_selection(run: "Callable[[], Selection]") -> Selection:
            with current_trace().span("selection", strategy=strategy):
                if stage_acc is None:
                    return run()
                cover_before = stage_acc.get("cover", 0.0)
                started = self._clock.monotonic()
                selection = run()
                elapsed = self._clock.monotonic() - started
                cover_delta = stage_acc.get("cover", 0.0) - cover_before
                stage_acc["selection"] += elapsed - cover_delta
                return selection

        if strategy == "MN":
            return None, timed_selection(lambda: select_minimum(
                list(epoch.materialized),
                pattern,
                self.fragments.fragment_bytes,
                units_fn=units_fn,
            ))
        filter_started = (
            self._clock.monotonic() if stage_acc is not None else 0.0
        )
        with current_trace().span("vfilter") as span:
            filter_result = epoch.vfilter.filter(pattern)
            span.attributes["candidates"] = len(filter_result.candidates)
        if stage_acc is not None:
            stage_acc["vfilter"] += self._clock.monotonic() - filter_started
        if strategy in ("MV", "CB"):
            candidates = [
                epoch.views[view_id] for view_id in filter_result.candidates
            ]
            selector = select_minimum if strategy == "MV" else select_cost_based
            selection = timed_selection(lambda: selector(
                candidates,
                pattern,
                self.fragments.fragment_bytes,
                units_fn=units_fn,
            ))
        else:
            selection = timed_selection(lambda: select_heuristic(
                filter_result,
                epoch.views.__getitem__,
                pattern,
                self.fragments.fragment_bytes,
                units_fn=units_fn,
            ))
        return filter_result, selection

    def _answer_cold(
        self,
        pattern: TreePattern,
        strategy: str,
        query_key: str,
        entered: float,
        started: float,
        epoch: RegistryEpoch,
        checked: bool,
    ) -> AnswerOutcome:
        pattern = self._memo.intern(query_key, pattern)
        stage_acc = {
            "vfilter": 0.0, "cover": 0.0, "selection": 0.0,
            "refine": 0.0, "join": 0.0, "extract": 0.0,
        }

        def units_fn(view: View) -> list[CoverageUnit]:
            cover_started = self._clock.monotonic()
            units = self._memo.units(view, query_key, pattern)
            stage_acc["cover"] += self._clock.monotonic() - cover_started
            return units

        try:
            filter_result, selection = self._derive_selection(
                pattern, strategy, units_fn=units_fn, epoch=epoch,
                stage_acc=stage_acc,
            )
        except ViewNotAnswerableError as error:
            epoch.plan_cache.put(
                query_key,
                strategy,
                PlanEntry(pattern, None, None, error=error),
            )
            failed = self._clock.monotonic()
            self._answers_total.inc(1.0, strategy, "cold")
            self._answer_hist.observe(failed - started, "cold")
            self._stage_hist.observe(failed - started, "lookup")
            for stage, seconds in stage_acc.items():
                self._stage_hist.observe(seconds, stage)
            raise
        if checked:
            context = f"answer({query_key!r}, {strategy})"
            contracts.check_selection_covers(selection, pattern, context)
            if filter_result is not None:
                contracts.check_vfilter_sound(
                    pattern, filter_result, list(epoch.materialized), context
                )
        lookup_done = self._clock.monotonic()

        with current_trace().span("rewrite") as span:
            result = rewrite(
                selection,
                pattern,
                self.fragments,
                self.document.fst,
                memo=self._memo,
                query_key=query_key,
                stage_acc=stage_acc,
                clock=self._clock,
            )
            span.attributes["views"] = list(selection.view_ids)
            span.attributes["answers"] = len(result.codes)
        finished = self._clock.monotonic()

        if checked:
            contracts.check_document_order(
                result.codes, f"answer({query_key!r}, {strategy})"
            )

        epoch.plan_cache.put(
            query_key,
            strategy,
            PlanEntry(pattern, filter_result, selection, result=result),
        )

        self._answers_total.inc(1.0, strategy, "cold")
        self._answer_hist.observe(finished - started, "cold")
        self._stage_hist.observe(lookup_done - started, "lookup")
        self._stage_hist.observe(finished - lookup_done, "rewrite")
        for stage, seconds in stage_acc.items():
            self._stage_hist.observe(seconds, stage)
        return AnswerOutcome(
            codes=list(result.codes),
            strategy=strategy,
            selection=selection,
            rewrite_result=result,
            filter_result=filter_result,
            lookup_seconds=lookup_done - started,
            total_seconds=finished - started,
            candidates=filter_result.candidates if filter_result else (),
            plan_cache_hit=False,
            stage_seconds={
                "parse": started - entered,
                "lookup": lookup_done - started,
                "rewrite": finished - lookup_done,
                **stage_acc,
            },
            epoch_seq=epoch.seq,
        )

    def _answer_warm(
        self,
        entry: PlanEntry,
        strategy: str,
        query_key: str,
        entered: float,
        started: float,
        epoch: RegistryEpoch,
        checked: bool,
    ) -> AnswerOutcome:
        self._answers_total.inc(1.0, strategy, "warm")
        if checked:
            warm_index = int(sum(
                s.value
                for s in self._answers_total.snapshot().samples
                if ("cache", "warm") in s.labels
            )) - 1
        else:
            warm_index = -1
        if warm_index >= 0 and (
            warm_index % contracts.sample_every() == 0
        ):
            # Before trusting the cached plan (including a cached
            # failure), re-derive it from first principles on a sampled
            # fraction of warm hits — against the same pinned epoch, so
            # concurrent registrations cannot fake a stale-plan report.
            contracts.check_plan_consistency(
                self, entry, strategy,
                f"answer({query_key!r}, {strategy}) [warm]",
                epoch=epoch,
            )
        if entry.error is not None:
            failed = self._clock.monotonic()
            self._answer_hist.observe(failed - started, "warm")
            self._stage_hist.observe(failed - started, "lookup")
            raise entry.replay_error()
        assert entry.selection is not None
        lookup_done = self._clock.monotonic()

        result = entry.result
        assert result is not None
        if checked:
            contracts.check_document_order(
                result.codes, f"answer({query_key!r}, {strategy}) [warm]"
            )
            finished = self._clock.monotonic()
        else:
            # Unchecked, nothing runs between the two readings.
            finished = lookup_done

        self._answer_hist.observe(finished - started, "warm")
        self._stage_hist.observe(lookup_done - started, "lookup")
        self._stage_hist.observe(finished - lookup_done, "rewrite")
        # Positional on purpose: CPython 3.11 packs keyword arguments to
        # a class call into a dict for ``__init__``, which cost about as
        # much as the rest of the construction.
        return AnswerOutcome(
            list(result.codes),  # codes
            strategy,
            entry.selection,
            result,  # rewrite_result
            entry.filter_result,
            lookup_done - started,  # lookup_seconds
            finished - started,  # total_seconds
            (  # candidates
                entry.filter_result.candidates if entry.filter_result else ()
            ),
            True,  # plan_cache_hit
            {  # stage_seconds
                "parse": started - entered,
                "lookup": lookup_done - started,
                "rewrite": finished - lookup_done,
            },
            epoch.seq,
        )

    def try_answer(
        self, query: str | TreePattern, strategy: str = "HV"
    ) -> AnswerOutcome | None:
        """Like :meth:`answer` but returns ``None`` when unanswerable."""
        try:
            return self.answer(query, strategy)
        except ViewNotAnswerableError:
            return None

    # ------------------------------------------------------------------
    # base-data baselines
    # ------------------------------------------------------------------
    def _ensure_node_index(self) -> NodeIndex:
        """Build the BN index once; double-checked under a lock so two
        concurrent baseline calls never build (or half-publish) it
        twice."""
        index = self._node_index
        if index is None:
            with self._index_lock:
                index = self._node_index
                if index is None:
                    index = NodeIndex(self.document.tree)
                    self._node_index = index
        return index

    def _ensure_path_index(self) -> FullPathIndex:
        index = self._path_index
        if index is None:
            with self._index_lock:
                index = self._path_index
                if index is None:
                    index = FullPathIndex(self.document.tree)
                    self._path_index = index
        return index

    def _ensure_stream_index(self) -> DeweyStreamIndex:
        """Packed per-label Dewey streams for the TJ baseline (built
        once, invalidated by document maintenance)."""
        index = self._stream_index
        if index is None:
            with self._index_lock:
                index = self._stream_index
                if index is None:
                    index = DeweyStreamIndex(self.document.tree)
                    self._stream_index = index
        return index

    def answer_bn(self, query: str | TreePattern) -> AnswerOutcome:
        """BN: evaluate on base data with the basic node index."""
        pattern = parse_xpath(query) if isinstance(query, str) else query
        index = self._ensure_node_index()
        started = self._clock.monotonic()
        answers = index.evaluate(pattern)
        finished = self._clock.monotonic()
        return AnswerOutcome(
            _sorted_codes(answers), "BN", total_seconds=finished - started
        )

    def answer_bf(self, query: str | TreePattern) -> AnswerOutcome:
        """BF: evaluate on base data with the full path index."""
        pattern = parse_xpath(query) if isinstance(query, str) else query
        index = self._ensure_path_index()
        started = self._clock.monotonic()
        answers = index.evaluate(pattern)
        finished = self._clock.monotonic()
        return AnswerOutcome(
            _sorted_codes(answers), "BF", total_seconds=finished - started
        )

    def answer_contained(self, query: str | TreePattern) -> ContainedResult:
        """Maximal contained rewriting (paper future work).

        Returns every *certain* answer obtainable from the materialized
        views — a subset of the true answer set, exact when some view
        answers the query equivalently.  Never raises
        :class:`~repro.errors.ViewNotAnswerableError`; an empty result
        simply means no view contributes.
        """
        pattern = parse_xpath(query) if isinstance(query, str) else query
        return maximal_contained_rewriting(
            list(self._epoch.materialized),
            pattern,
            self.fragments,
            self.document.fst,
        )

    def answer_tj(self, query: str | TreePattern) -> AnswerOutcome:
        """TJ: TJFast-style evaluation from leaf streams + encodings.

        Reads only the Dewey-code streams of the query's leaf labels —
        the base-data counterpart of the multi-view join (paper [22]).
        """
        from ..matching.tjfast import tjfast_evaluate

        pattern = parse_xpath(query) if isinstance(query, str) else query
        index = self._ensure_stream_index()
        started = self._clock.monotonic()
        codes = sorted(tjfast_evaluate(pattern, self.document, index))
        finished = self._clock.monotonic()
        return AnswerOutcome(codes, "TJ", total_seconds=finished - started)

    def direct_codes(self, query: str | TreePattern) -> list[DeweyCode]:
        """Ground truth: direct evaluation, full scan."""
        pattern = parse_xpath(query) if isinstance(query, str) else query
        answers = evaluate(pattern, self.document.tree)
        return _sorted_codes(answers)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def index_sizes(self) -> dict[str, int]:
        """Byte estimates of the BN / BF indexes (built on demand)."""
        return {
            "BN": self._ensure_node_index().stored_bytes,
            "BF": self._ensure_path_index().stored_bytes,
        }
