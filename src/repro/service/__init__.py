"""Concurrent query-serving subsystem.

Stacks four layers on top of :class:`repro.core.system.MaterializedViewSystem`:

* :mod:`repro.service.engine` — epoch-pinned snapshot reads plus a
  readers/writer gate so in-place document maintenance (the one
  non-snapshot operation) gets exclusive access;
* :mod:`repro.service.scheduler` — worker pool with bounded admission,
  per-request deadlines and single-flight request coalescing;
* :mod:`repro.service.protocol` / :mod:`repro.service.server` — a
  stdlib-only HTTP/JSON front end (``python -m repro serve``);
* :mod:`repro.service.loadgen` — the closed-loop HTTP load driver
  behind ``python -m repro serve --smoke``.
"""

from __future__ import annotations

from .engine import SnapshotEngine
from .loadgen import (
    HTTPClient,
    LoadReport,
    build_query_mix,
    run_closed_loop,
    zipf_weights,
)
from .protocol import ProtocolError, encode_outcome, error_payload
from .scheduler import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueryScheduler,
)
from .server import QueryServiceServer

__all__ = [
    "AdmissionRejectedError",
    "DeadlineExceededError",
    "HTTPClient",
    "LoadReport",
    "ProtocolError",
    "QueryScheduler",
    "QueryServiceServer",
    "SnapshotEngine",
    "build_query_mix",
    "encode_outcome",
    "error_payload",
    "run_closed_loop",
    "zipf_weights",
]
