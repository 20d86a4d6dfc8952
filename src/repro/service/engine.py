"""Snapshot engine: concurrent reads over an epoch-published registry.

:class:`~repro.core.system.MaterializedViewSystem` publishes every
registry mutation as a fresh immutable :class:`RegistryEpoch`, so a
reader that pins the current epoch once sees one consistent (views,
VFILTER, plan cache) triple for the whole answer — registration never
blocks readers and readers never block registration.

The one operation snapshots cannot cover is **in-place document
maintenance** (:class:`repro.delta.maintenance.DocumentEditor` mutates
the shared base document and its codes directly).  For that the engine
keeps a readers/writer gate: ``answer`` and ``register_view`` enter as
shared participants, ``maintain`` waits until every in-flight
participant drains, runs with exclusive access, and then reopens the
gate.  Maintenance requests also *bar the door* — new participants
queue behind a waiting maintainer so a steady read stream cannot
starve it.

Plan-cache hits have a second, non-waiting way in:
:meth:`SnapshotEngine.warm_hit` enters the gate only when no
maintainer holds or waits for it, pins the epoch *inside* the gate
(so no edit can land between the probe and the answer) and answers
only when that epoch's plan cache holds the plan.  Everything else
takes :meth:`SnapshotEngine.answer`, which waits at the gate.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, TypeVar

from ..core.system import AnswerOutcome, MaterializedViewSystem
from ..obs import current_trace
from ..xpath.pattern import TreePattern

__all__ = ["SnapshotEngine"]

T = TypeVar("T")

#: An answer call bound to one pinned epoch: ``(pattern, strategy)``.
Answerer = Callable[[TreePattern, str], AnswerOutcome]


class SnapshotEngine:
    """Thread-safe facade over one :class:`MaterializedViewSystem`."""

    def __init__(self, system: MaterializedViewSystem) -> None:
        self._system = system  #: state: hard
        self._gate = threading.Condition(threading.Lock())
        #: guarded-by: _gate
        self._active = 0  #: state: counter
        #: guarded-by: _gate
        self._maintenance_waiting = 0  #: state: counter
        #: guarded-by: _gate
        self._maintaining = False  #: state: hard

    # ------------------------------------------------------------------
    # shared-side gate
    # ------------------------------------------------------------------
    def _enter_shared(self) -> None:
        with self._gate:
            while self._maintaining or self._maintenance_waiting:
                self._gate.wait()
            self._active += 1

    def _try_enter_shared(self) -> bool:
        """Enter shared unless a maintainer holds or waits for the
        gate; never waits."""
        with self._gate:
            if self._maintaining or self._maintenance_waiting:
                return False
            self._active += 1
            return True

    def _exit_shared(self) -> None:
        with self._gate:
            self._active -= 1
            if self._active == 0:
                self._gate.notify_all()

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    @property
    def system(self) -> MaterializedViewSystem:
        return self._system

    def answer(
        self, query: str | TreePattern, strategy: str = "HV"
    ) -> AnswerOutcome:
        """Answer ``query`` against the epoch current at call time.

        The underlying system pins the epoch on entry; the outcome's
        ``epoch_seq`` records which registry state served it (the
        linearization point used by the concurrency tests).
        """
        # The gate wait is where reader/maintenance contention shows
        # up; give it its own span so slow-log entries distinguish
        # "blocked behind maintenance" from "derivation was slow".
        with current_trace().span("engine_gate"):
            self._enter_shared()
        try:
            return self._system.answer(query, strategy)
        finally:
            self._exit_shared()

    @contextmanager
    def warm_hit(
        self, query_key: str, strategy: str
    ) -> Iterator[Answerer | None]:
        """Shared entry for a plan-cache hit, taken without waiting.

        Yields an answer function bound to the current epoch when the
        gate admits a reader at once and that epoch's plan cache holds
        ``(query_key, strategy)``.  Yields None when a maintainer holds
        or waits for the gate, or the plan is not cached; the caller
        then takes :meth:`answer`.  The function is valid only inside
        the ``with`` block, which holds the shared gate.  The probe
        counts nothing: the answer call counts the read's one plan-cache
        hit (or its miss, had an eviction raced the probe).
        """
        if not self._try_enter_shared():
            yield None
            return
        try:
            epoch = self._system.current_epoch()
            if epoch.plan_cache.contains(query_key, strategy):
                yield partial(self._system.answer, epoch=epoch)
            else:
                yield None
        finally:
            self._exit_shared()

    def register_view(
        self, view_id: str, expression: str | TreePattern
    ) -> bool:
        """Register and materialize a view; concurrent answers keep
        reading their pinned epochs and are never blocked."""
        self._enter_shared()
        try:
            return self._system.register_view(view_id, expression)
        finally:
            self._exit_shared()

    #: state: mutator
    def maintain(
        self, operation: Callable[[MaterializedViewSystem], T]
    ) -> T:
        """Run ``operation`` with exclusive access to the system.

        Waits for in-flight answers/registrations to drain (new ones
        queue behind us), then calls ``operation(system)`` — typically
        a :class:`~repro.delta.maintenance.DocumentEditor` update.
        """
        with current_trace().span("maintenance_drain"):
            with self._gate:
                self._maintenance_waiting += 1
                while self._maintaining or self._active:
                    self._gate.wait()
                self._maintenance_waiting -= 1
                self._maintaining = True
        try:
            return operation(self._system)
        finally:
            with self._gate:
                self._maintaining = False
                self._gate.notify_all()

    def stats(self) -> dict[str, object]:
        """Deep-snapshot statistics of the underlying system."""
        return self._system.stats()
