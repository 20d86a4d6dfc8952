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

**Invalidation and upkeep.**  A cached plan is valid only while the
view pool and the base document are unchanged: ``register_view`` can
extend the candidate sets, and a maintenance insert/delete changes
fragments and answers.  View-pool changes publish a fresh epoch (and
with it a fresh cache), so the blanket :meth:`PlanCache.clear` handles
them trivially.  Document edits are *maintained*, the way views are:
each entry records the view ids its plan depends on (the selected
views, whose fragments the rewrite read), and that dependency index is
the cheap first filter: an entry whose dependencies miss the edit's
affected views read no changed fragment, so its answers stand.  Every
other entry is *flagged*.  :meth:`PlanCache.invalidate_views`, the
single per-edit entry point, hands each flagged entry to the editor's
``maintain`` callback, which returns the entry unchanged, a new entry
whose answers were patched for the edit, or ``None`` to drop it
(:mod:`repro.delta.resolver` classifies the entry's query pattern
before the edit, :func:`repro.delta.patcher.patch_plan` splices its
answers after it).  A cached :class:`RewriteResult` is never mutated:
callers may hold it.  Negative entries depend on no fragments — edits
never change answerability, which is a function of the view
*patterns* — so they carry an empty dependency set and survive edits.
The coverage memo (:class:`~repro.core.leaf_cover.CoverageMemo`) is
*not* cleared on document updates — coverage is a pure function of the
view and query patterns, and view ids are never redefined within a
system's lifetime.

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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from ..errors import ViewNotAnswerableError
from ..xpath.pattern import TreePattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rewrite import RewriteResult
    from .selection import Selection
    from .vfilter import FilterResult

__all__ = ["PlanCache", "PlanEntry", "PlanUpkeep"]

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

    def view_dependencies(self) -> frozenset[str]:
        """View ids whose fragments this plan's answers were read from:
        the selected views (empty for a negative plan — answerability
        depends only on the view patterns, never on fragments).  While
        none of them changes, the cached answers stand: the rewrite
        over unchanged fragments returns them again.  Other views'
        fragment sizes can break selection ties differently after an
        edit, but any covering selection answers the same."""
        if self.selection is None:
            return frozenset()
        return frozenset(self.selection.view_ids)


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
    #: Flagged plans an edit kept (their answers maintained, not
    #: re-derived), and those of them whose answers it patched.
    plans_maintained: int = 0
    plans_spliced: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "scoped_invalidations": self.scoped_invalidations,
            "plans_dropped": self.plans_dropped,
            "plans_retained": self.plans_retained,
            "plans_maintained": self.plans_maintained,
            "plans_spliced": self.plans_spliced,
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
        self.plans_maintained += other.plans_maintained
        self.plans_spliced += other.plans_spliced


class PlanUpkeep(NamedTuple):
    """What one invalidation did to the cache: plans dropped, plans
    left cached, and of the flagged plans those kept (maintained) and
    those whose answers were patched (spliced)."""

    dropped: int
    retained: int
    maintained: int = 0
    spliced: int = 0


#: Per-edit upkeep of one flagged plan: the entry itself, a patched
#: copy, or None to drop it.
Maintain = Callable[[tuple[str, str], PlanEntry], "PlanEntry | None"]


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
        # Dependency index for per-edit upkeep, kept in lockstep
        # with _entries (weak edges: the index is bookkeeping over the
        # entries, rebuilt entry-by-entry as put() re-derives them).
        #: guarded-by: _lock
        #: state: soft(derived-from=_entries?; rebuild=put)
        self._deps: dict[tuple[str, str], frozenset[str]] = {}
        #: guarded-by: _lock
        #: state: soft(derived-from=_entries?; rebuild=put)
        self._by_view: dict[str, set[tuple[str, str]]] = {}
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

    def _index(self, key: tuple[str, str], deps: frozenset[str]) -> None:
        self._deps[key] = deps
        for view_id in deps:
            self._by_view.setdefault(view_id, set()).add(key)

    def _unindex(self, key: tuple[str, str]) -> None:
        deps = self._deps.pop(key, None)
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
            return dropped

    def _flagged(self, view_ids: Iterable[str]) -> set[tuple[str, str]]:
        """Keys an edit affecting ``view_ids`` may change: entries whose
        dependencies meet the set."""
        flagged: set[tuple[str, str]] = set()
        for view_id in view_ids:
            flagged |= self._by_view.get(view_id, set())
        return flagged

    def flagged(
        self, view_ids: Iterable[str]
    ) -> list[tuple[tuple[str, str], PlanEntry]]:
        """The flagged entries (see :meth:`_flagged`), read before an
        edit so their query patterns can be classified against the
        pre-edit document."""
        with self._lock:
            return [
                (key, self._entries[key]) for key in self._flagged(view_ids)
            ]

    def invalidate_views(
        self, view_ids: Iterable[str], maintain: Maintain | None = None
    ) -> PlanUpkeep:
        """Per-edit upkeep for a document edit affecting exactly
        ``view_ids``: every flagged entry is passed to ``maintain``,
        kept (in its LRU place) as whatever it returns, or dropped on
        ``None``; without ``maintain`` every flagged entry is dropped.
        Unflagged entries stay as they are.  Should ``maintain`` raise,
        the error propagates with the cache untouched, and the caller
        must drop every plan (:meth:`clear`)."""
        with self._lock:
            entries = self._entries
            flagged = self._flagged(view_ids)
            kept: dict[tuple[str, str], PlanEntry] = {}
            if maintain is not None:
                for key in flagged:
                    patched = maintain(key, entries[key])
                    if patched is not None:
                        kept[key] = patched
            spliced = 0
            for key in flagged:
                patched = kept.get(key)
                if patched is None:
                    del entries[key]
                    self._unindex(key)
                elif patched is not entries[key]:
                    spliced += 1
                    entries[key] = patched
            # Reassign unconditionally: the patches above sit inside
            # conditionals, and the derived-state walker (L15) only
            # credits writes it can prove happen on every path.
            self._entries = entries
            upkeep = PlanUpkeep(
                len(flagged) - len(kept), len(entries), len(kept), spliced
            )
            self.stats.scoped_invalidations += 1
            self.stats.plans_dropped += upkeep.dropped
            self.stats.plans_retained += upkeep.retained
            self.stats.plans_maintained += upkeep.maintained
            self.stats.plans_spliced += upkeep.spliced
            return upkeep

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
