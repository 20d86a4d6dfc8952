"""Load driver for the query service (what ``repro serve --smoke`` runs).

* :class:`HTTPClient` speaks the real wire protocol over
  ``http.client`` and reports plain HTTP status codes (599 for a
  dropped connection).
* :func:`run_closed_loop` keeps ``concurrency`` workers each issuing
  the next request as soon as the previous answer lands (throughput at
  full utilisation).  Any object with :class:`ServiceClient`'s
  ``query`` method can stand in for the HTTP client.

Query mixes come from the system's own materialized views
(:func:`build_query_mix`), weighted uniformly or by a Zipf law
(:func:`zipf_weights`) — the skew that makes request coalescing and
the plan cache earn their keep.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from ..core.system import MaterializedViewSystem

__all__ = [
    "HTTPClient",
    "LoadReport",
    "build_query_mix",
    "run_closed_loop",
    "zipf_weights",
]


class ServiceClient(Protocol):
    """Anything that can issue one query and report an HTTP status."""

    def query(
        self, expression: str, strategy: str = "HV",
        timeout: float | None = None,
    ) -> int: ...


@dataclass(slots=True)
class LoadReport:
    """Aggregate outcome of one load run."""

    requests: int = 0
    elapsed_seconds: float = 0.0
    status_counts: dict[int, int] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.status_counts.get(200, 0)

    @property
    def server_errors(self) -> int:
        return sum(
            count for status, count in self.status_counts.items()
            if status >= 500 and status not in (503, 504)
        )

    @property
    def throughput(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.ok / self.elapsed_seconds

    def percentile(self, fraction: float) -> float:
        """Latency percentile in milliseconds (0 when empty)."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(
            len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5)
        )
        return ordered[index]

    def merge(self, status: int, latency_ms: float) -> None:
        self.requests += 1
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        self.latencies_ms.append(latency_ms)


class HTTPClient:
    """One persistent connection speaking the real wire protocol.

    Not thread-safe (``http.client`` connections are serial); give
    each load worker its own instance via the factory argument."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._connection = http.client.HTTPConnection(
            host, port, timeout=timeout
        )

    def query(
        self, expression: str, strategy: str = "HV",
        timeout: float | None = None,
    ) -> int:
        body: dict[str, Any] = {
            "query": expression, "strategy": strategy,
        }
        if timeout is not None:
            body["timeout_ms"] = timeout * 1e3
        try:
            self._connection.request(
                "POST", "/query", json.dumps(body),
                {"Content-Type": "application/json"},
            )
            response = self._connection.getresponse()
            response.read()
            return response.status
        except (http.client.HTTPException, OSError):
            self._connection.close()
            return 599

    def close(self) -> None:
        self._connection.close()


def zipf_weights(count: int, exponent: float = 1.1) -> list[float]:
    """Rank-frequency weights ``1/rank**exponent`` for ``count`` items."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def build_query_mix(
    system: MaterializedViewSystem, limit: int | None = None
) -> list[str]:
    """Query pool drawn from the system's own materialized views —
    every query is answerable, so failures in a run indicate service
    behaviour (backpressure, deadlines), not workload noise."""
    expressions = [
        view.pattern.to_xpath() for view in system.materialized_views()
    ]
    if limit is not None:
        expressions = expressions[:limit]
    if not expressions:
        raise ValueError("system has no materialized views to query")
    return expressions


def _draw(
    rng: random.Random,
    queries: Sequence[str],
    cumulative: list[float] | None,
) -> str:
    if cumulative is None:
        return queries[rng.randrange(len(queries))]
    point = rng.random() * cumulative[-1]
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative[mid] < point:
            low = mid + 1
        else:
            high = mid
    return queries[low]


def _cumulative(weights: Sequence[float] | None) -> list[float] | None:
    if weights is None:
        return None
    total = 0.0
    out: list[float] = []
    for weight in weights:
        total += weight
        out.append(total)
    return out


def run_closed_loop(
    client_factory: Callable[[], ServiceClient],
    queries: Sequence[str],
    total_requests: int,
    concurrency: int,
    weights: Sequence[float] | None = None,
    seed: int = 0,
    strategy: str = "HV",
    timeout: float | None = None,
) -> LoadReport:
    """``concurrency`` workers, each firing its next request the
    moment the previous one completes, until ``total_requests`` have
    been issued in total."""
    if weights is not None and len(weights) != len(queries):
        raise ValueError("weights must match queries")
    cumulative = _cumulative(weights)
    report = LoadReport()
    report_lock = threading.Lock()
    shares = [
        total_requests // concurrency
        + (1 if index < total_requests % concurrency else 0)
        for index in range(concurrency)
    ]

    def worker(index: int, share: int) -> None:
        rng = random.Random(seed * 7919 + index)
        client = client_factory()
        for _ in range(share):
            expression = _draw(rng, queries, cumulative)
            started = time.perf_counter()
            status = client.query(expression, strategy, timeout=timeout)
            latency_ms = (time.perf_counter() - started) * 1e3
            with report_lock:
                report.merge(status, latency_ms)

    threads = [
        threading.Thread(target=worker, args=(index, share), daemon=True)
        for index, share in enumerate(shares)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - started
    return report
