"""Query plan cache for the hot answering path.

The ROADMAP's north star is serving heavy repeated traffic, but the
paper's pipeline re-derives everything per call: parse, VFILTER,
homomorphism enumeration, set cover, rewrite.  For a query string seen
one millisecond earlier all of that work is identical.  This module
holds the derived artifacts between calls:

* :class:`PlanCache` — a bounded LRU mapping a query pattern's
  *canonical string* (order-insensitive, answer-node-marked — see
  :meth:`~repro.xpath.pattern.TreePattern.canonical_string`) and a
  strategy to a frozen :class:`PlanEntry`: the interned pattern object,
  the ``(FilterResult, Selection)`` pair the cold run produced, and —
  once the rewrite stage has run — the :class:`RewriteResult` itself.
  Unanswerable queries are cached negatively (the
  :class:`~repro.errors.ViewNotAnswerableError` is replayed), so
  repeated misses are as cheap as repeated hits.

**Invalidation.**  A cached plan is valid only while the view pool and
the base document are unchanged: ``register_view`` can extend the
candidate sets, and a maintenance insert/delete changes fragments and
answers.  View-pool changes publish a fresh epoch (and with it a fresh
cache), so the blanket :meth:`PlanCache.clear` handles them trivially.
Document edits are *scoped*: each entry records the view ids its plan
depends on (the VFILTER candidate set united with the selected views —
a superset of everything the rewrite read), and
:meth:`PlanCache.invalidate_views` drops exactly the entries whose
dependencies intersect the edit's affected views, plus entries with no
recorded filter provenance (``None`` — e.g. the MN strategy, which
skips VFILTER).  Negative entries depend on no fragments — edits never
change answerability, which is a function of the view *patterns* — so
they carry an empty dependency set and survive edits.  The
coverage memo (:class:`~repro.core.leaf_cover.CoverageMemo`) is *not*
cleared on document updates — coverage is a pure function of the view
and query patterns, and view ids are never redefined within a system's
lifetime.

Interning: :class:`CoverageUnit` objects reference query pattern nodes
by identity (``Obligation.node_id`` is an ``id()``), so cached plans are
only meaningful together with the exact pattern object they were derived
from.  Entries therefore carry that pattern, and warm runs use it for
the rewrite stage instead of the caller's freshly parsed copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..errors import ViewNotAnswerableError
from ..xpath.pattern import TreePattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rewrite import RewriteResult
    from .selection import Selection
    from .vfilter import FilterResult

__all__ = ["PlanCache", "PlanEntry"]

#: Default maximum number of cached ``(query, strategy)`` plans.
DEFAULT_PLAN_CACHE_SIZE = 1024


@dataclass(slots=True)
class PlanEntry:
    """One frozen answering plan for a ``(query, strategy)`` pair.

    Exactly one of ``selection`` / ``error`` is set.  A positive plan
    also carries the ``result`` of the rewrite that derived it, so warm
    repeats skip the refine → join → extract stage as well.
    """

    pattern: TreePattern
    filter_result: "FilterResult | None" = None
    selection: "Selection | None" = None
    error: ViewNotAnswerableError | None = None
    result: "RewriteResult | None" = None

    def replay_error(self) -> ViewNotAnswerableError:
        """A fresh exception equivalent to the cached negative outcome
        (never re-raise the stored instance: tracebacks would chain)."""
        assert self.error is not None
        return ViewNotAnswerableError(
            str(self.error), uncovered=self.error.uncovered
        )

    def view_dependencies(self) -> frozenset[str] | None:
        """View ids this plan's validity depends on.

        * negative plans: the empty set — answerability depends only on
          the view patterns, never on fragments, so edits keep them;
        * plans with no recorded :class:`FilterResult` (the MN strategy
          runs without VFILTER): ``None``, meaning "assume everything"
          — scoped invalidation always drops them;
        * positive plans: the VFILTER candidate set united with the
          selected view ids — a superset of every view whose fragments
          or statistics the derivation could have read.
        """
        if self.error is not None:
            return frozenset()
        if self.filter_result is None:
            return None
        deps = set(self.filter_result.candidates)
        if self.selection is not None:
            deps.update(self.selection.view_ids)
        return frozenset(deps)


@dataclass(slots=True)
class PlanCacheStats:
    """Counters exposed through ``MaterializedViewSystem.stats()``."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: Scoped (per-edit) invalidation events and their outcomes.
    scoped_invalidations: int = 0
    plans_dropped: int = 0
    plans_retained: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "scoped_invalidations": self.scoped_invalidations,
            "plans_dropped": self.plans_dropped,
            "plans_retained": self.plans_retained,
        }

    def absorb(self, other: "PlanCacheStats") -> None:
        """Fold another counter set into this one (epoch retirement:
        the system accumulates the stats of every retired epoch's cache
        so ``stats()`` stays cumulative across registrations)."""
        self.hits += other.hits
        self.misses += other.misses
        self.invalidations += other.invalidations
        self.evictions += other.evictions
        self.scoped_invalidations += other.scoped_invalidations
        self.plans_dropped += other.plans_dropped
        self.plans_retained += other.plans_retained


class PlanCache:
    """Bounded LRU of :class:`PlanEntry` keyed by (canonical, strategy).

    Thread-safe: the service layer answers queries from many threads
    against one epoch's cache, so every operation (including the LRU
    bookkeeping inside :meth:`get`) runs under an internal mutex.  The
    lock is uncontended in single-threaded use and never held across
    plan derivation — only across the dict bookkeeping itself.
    """

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        self.maxsize = maxsize  #: state: hard
        #: guarded-by: _lock
        #: state: soft(derived-from=MaterializedViewSystem.document; rebuild=_derive_selection)
        self._entries: OrderedDict[tuple[str, str], PlanEntry] = OrderedDict()
        # Dependency index for scoped invalidation, kept in lockstep
        # with _entries (weak edges: the index is bookkeeping over the
        # entries, rebuilt entry-by-entry as put() re-derives them).
        #: guarded-by: _lock
        #: state: soft(derived-from=_entries?; rebuild=put)
        self._deps: dict[tuple[str, str], frozenset[str] | None] = {}
        #: guarded-by: _lock
        #: state: soft(derived-from=_entries?; rebuild=put)
        self._by_view: dict[str, set[tuple[str, str]]] = {}
        #: guarded-by: _lock
        #: state: soft(derived-from=_entries?; rebuild=put)
        self._all_deps: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        #: guarded-by: _lock (writes)
        #: state: counter
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def contains(self, query_key: str, strategy: str) -> bool:
        """Whether a plan is cached, without counting a hit or miss or
        touching the LRU order (the served path's probe; the answer
        call that follows does the counting ``get``)."""
        with self._lock:
            return (query_key, strategy) in self._entries

    def get(self, query_key: str, strategy: str) -> PlanEntry | None:
        """Return the cached plan and count the hit/miss."""
        with self._lock:
            entry = self._entries.get((query_key, strategy))
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end((query_key, strategy))
            self.stats.hits += 1
            return entry

    def put(self, query_key: str, strategy: str, entry: PlanEntry) -> None:
        if not self.enabled:
            return
        key = (query_key, strategy)
        deps = entry.view_dependencies()
        with self._lock:
            if key in self._entries:
                self._unindex(key)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                victim, _ = self._entries.popitem(last=False)
                self._unindex(victim)
                self.stats.evictions += 1
            self._index(key, deps)

    def _index(self, key: tuple[str, str], deps: frozenset[str] | None) -> None:
        self._deps[key] = deps
        if deps is None:
            self._all_deps.add(key)
            return
        for view_id in deps:
            self._by_view.setdefault(view_id, set()).add(key)

    def _unindex(self, key: tuple[str, str]) -> None:
        deps = self._deps.pop(key, None)
        self._all_deps.discard(key)
        if deps:
            for view_id in deps:
                bucket = self._by_view.get(view_id)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        self._by_view.pop(view_id, None)

    def clear(self) -> int:
        """Drop every plan (view-pool change or blanket fallback);
        returns how many entries were dropped."""
        with self._lock:
            dropped = len(self._entries)
            if self._entries:
                self.stats.invalidations += 1
            self._entries = OrderedDict()
            self._deps = {}
            self._by_view = {}
            self._all_deps = set()
            return dropped

    def invalidate_views(self, view_ids: Iterable[str]) -> tuple[int, int]:
        """Scoped invalidation for a document edit affecting exactly
        ``view_ids``: drop the entries whose dependencies intersect the
        set — plus every entry with no recorded provenance (``None``
        dependencies) — and keep the rest warm.  Returns
        ``(dropped, retained)``.
        """
        with self._lock:
            doomed = set(self._all_deps)
            for view_id in view_ids:
                doomed |= self._by_view.get(view_id, set())
            survivors = OrderedDict(
                (key, entry)
                for key, entry in self._entries.items()
                if key not in doomed
            )
            dropped = len(self._entries) - len(survivors)
            self._entries = survivors
            for key in doomed:
                self._unindex(key)
            self.stats.scoped_invalidations += 1
            self.stats.plans_dropped += dropped
            self.stats.plans_retained += len(survivors)
            return dropped, len(survivors)

    def stats_dict(self) -> dict[str, int]:
        """A consistent snapshot of the counters."""
        with self._lock:
            return self.stats.as_dict()

    def snapshot(self) -> tuple[dict[str, int], int]:
        """Counters *and* entry count captured under one lock hold, so
        a caller assembling a stats payload cannot observe a hit total
        from one instant and a size from another."""
        with self._lock:
            return self.stats.as_dict(), len(self._entries)
