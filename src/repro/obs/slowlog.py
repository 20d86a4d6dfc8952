"""Ring-buffer slow-query log: keep the worst N requests, in full.

Aggregates (histograms) answer *"how slow are we"*; the slow log
answers *"what exactly did the worst requests do"* — the canonical
query, which views the rewrite chose, every stage timing, and (when
the trace was sampled) the complete span tree.  Capacity is small and
fixed, eviction is min-by-duration replacement, so under sustained
load the log converges to the top-N slowest requests seen since start
rather than merely the most recent ones.  A full log's fastest resident
is its floor: a request no slower is declined before any record is
built for it.

Served at ``GET /debug/slow`` and via ``python -m repro slowlog``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

__all__ = ["SlowQueryLog", "SlowQueryRecord"]

DEFAULT_CAPACITY = 32


@dataclass(frozen=True, slots=True)
class SlowQueryRecord:
    """Everything worth keeping about one finished request."""

    trace_id: str
    query: str
    strategy: str
    status: str
    total_seconds: float
    wall_time: float
    epoch: int
    plan_cache_hit: bool
    view_ids: tuple[str, ...] = ()
    stage_seconds: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "query": self.query,
            "strategy": self.strategy,
            "status": self.status,
            "total_seconds": self.total_seconds,
            "wall_time": self.wall_time,
            "epoch": self.epoch,
            "plan_cache_hit": self.plan_cache_hit,
            "view_ids": list(self.view_ids),
            "stage_seconds": dict(self.stage_seconds),
            "spans": list(self.spans),
        }


class SlowQueryLog:
    """Fixed-capacity top-N-by-duration record store (thread-safe).

    Once full, the log keeps its fastest resident duration as a
    *floor*: :meth:`decline` turns away a request no slower than the
    floor before its caller builds a record for it, so a hit that
    cannot enter costs one comparison, not a record and a span tree.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("slow log capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._records: list[SlowQueryRecord] = []
        #: guarded-by: _lock
        self._recorded = 0
        #: The fastest resident duration once the log is full, and
        #: ``-inf`` (every offer enters) until then.
        #: guarded-by: _lock
        self._floor = -math.inf

    def decline(self, total_seconds: float) -> bool:
        """Whether a request of ``total_seconds`` cannot enter the log
        now: the log is full and the request is no slower than its
        fastest resident.  A declined request is counted as recorded;
        one that is not declined is offered with :meth:`record`."""
        with self._lock:
            if total_seconds > self._floor:
                return False
            self._recorded += 1
            return True

    def record(self, entry: SlowQueryRecord) -> bool:
        """Keep ``entry`` if the log has room or the entry is slower
        than the current fastest resident; returns whether it was kept.
        """
        with self._lock:
            self._recorded += 1
            records = self._records
            if len(records) < self.capacity:
                records.append(entry)
            elif entry.total_seconds <= self._floor:
                return False
            else:
                fastest = min(
                    range(len(records)),
                    key=lambda index: records[index].total_seconds,
                )
                records[fastest] = entry
            if len(records) == self.capacity:
                self._floor = min(record.total_seconds for record in records)
            return True

    def entries(self, limit: int | None = None) -> list[SlowQueryRecord]:
        """Resident records, slowest first."""
        with self._lock:
            snapshot = list(self._records)
        snapshot.sort(key=lambda record: record.total_seconds, reverse=True)
        return snapshot if limit is None else snapshot[:limit]

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._records),
                "recorded": self._recorded,
            }

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._floor = -math.inf
