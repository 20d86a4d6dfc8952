"""Traced runs: per-layer self time measured from outside the program.

Each layer is measured by wrapping its public entry points at the
binding its caller uses (``repro.core.system.rewrite`` rather than
``repro.core.rewrite.rewrite``, because ``system.py`` imported the name).
A wrapper opens a span, calls through, and closes the span; a layer's
self time is its spans' duration minus the time of the spans nested in
them.  Spans live in memory only and are folded into per-operation
totals as they close.

One closed-loop client drives every workload, so exactly one request is
in flight at a time: the client thread, the HTTP handler thread and the
scheduler worker thread hand the request along strictly in turn.  Spans
of all three threads therefore nest on one stack, tagged with the id of
the operation the client opened; a span that closes out of order or
fires outside any operation fails the traced run.

The benchmark's own loop opens the root span of each operation; its
self time, together with the loop's time between operations, is the
``other`` row.  The rows of one run must add up to the
traced wall time (phase wall time minus reference sampling and
correctness checks) within 5%.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Tracer", "expected_layers"]

#: Ledger rows, in report order.  ``service.scheduler.wait`` is the gap
#: inside ``QueryScheduler.submit`` between admission and the worker
#: entering the engine; ``delta.base_patch`` comes from ``stats()`` and
#: is moved out of the ``delta.edit`` (``DocumentEditor``) self time.
LAYERS = (
    "other",
    "xpath",
    "plancache",
    "obs",
    "system",
    "vfilter",
    "cover",
    "selection",
    "storage",
    "rewrite.refine",
    "rewrite.join",
    "rewrite.extract",
    "service.http",
    "service.scheduler",
    "service.scheduler.wait",
    "service.engine",
    "service.engine.drain",
    "delta.edit",
    "delta.resolve",
    "delta.patch",
    "delta.rebuild",
    "delta.base_patch",
    "plancache.invalidate",
)

_READ_CORE = ("xpath", "plancache", "obs", "system")
_COLD = ("vfilter", "cover", "selection", "storage",
         "rewrite.refine", "rewrite.join", "rewrite.extract")
_SERVICE = ("service.http", "service.scheduler", "service.engine",
            "service.engine.drain")
_WRITE = ("delta.edit", "delta.resolve", "delta.patch", "delta.rebuild",
          "plancache.invalidate")


def expected_layers(workload: str) -> tuple[str, ...]:
    """Layers whose spans must fire in a traced run of ``workload``."""
    if workload == "warm_zipf":
        return _READ_CORE
    if workload == "cold_adhoc":
        return _READ_CORE + _COLD
    return _READ_CORE + _COLD + _SERVICE + _WRITE


@dataclass(frozen=True, slots=True)
class _Hook:
    module: str
    owner: str | None
    name: str
    layer: str
    counter: Callable[[Any], dict[str, float]] | None = None


def _candidates(result: Any) -> dict[str, float]:
    return {"vfilter.candidates": len(result.candidates)}


def _selected(result: Any) -> dict[str, float]:
    return {"selection.selected": len(result.view_ids)}


def _fragments(result: Any) -> dict[str, float]:
    return {"storage.fragments": len(result)}


def _answers(result: Any) -> dict[str, float]:
    return {"rewrite.calls": 1, "rewrite.answers": len(result.codes)}


#: Entry points wrapped in a traced run: (module, class or None,
#: attribute, layer, result counter).
HOOKS = (
    _Hook("repro.core.system", None, "parse_xpath", "xpath"),
    _Hook("repro.service.scheduler", None, "parse_xpath", "xpath"),
    _Hook("repro.xpath.pattern", "TreePattern", "canonical_string", "xpath"),
    _Hook("repro.core.plancache", "PlanCache", "get", "plancache"),
    _Hook("repro.core.plancache", "PlanCache", "put", "plancache"),
    _Hook("repro.core.plancache", "PlanCache", "invalidate_views",
          "plancache.invalidate"),
    _Hook("repro.obs.registry", "Histogram", "observe", "obs"),
    _Hook("repro.obs.registry", "Counter", "inc", "obs"),
    _Hook("repro.core.system", "MaterializedViewSystem", "answer", "system"),
    _Hook("repro.core.vfilter", "LayeredVFilter", "filter", "vfilter",
          _candidates),
    _Hook("repro.core.leaf_cover", "CoverageMemo", "units", "cover"),
    _Hook("repro.core.system", None, "select_heuristic", "selection",
          _selected),
    _Hook("repro.storage.fragments", "FragmentStore", "fragments", "storage",
          _fragments),
    _Hook("repro.core.system", None, "rewrite", "rewrite.extract", _answers),
    _Hook("repro.core.rewrite", None, "refine_unit", "rewrite.refine"),
    _Hook("repro.core.rewrite", None, "join_units", "rewrite.join"),
    _Hook("repro.service.scheduler", "QueryScheduler", "submit",
          "service.scheduler"),
    _Hook("repro.service.engine", "SnapshotEngine", "answer",
          "service.engine"),
    _Hook("repro.service.engine", "SnapshotEngine", "maintain",
          "service.engine.drain"),
    _Hook("repro.delta.maintenance", "DocumentEditor", "insert_subtree",
          "delta.edit"),
    _Hook("repro.delta.maintenance", "DocumentEditor", "delete_subtree",
          "delta.edit"),
    _Hook("repro.delta.maintenance", None, "resolve_affected",
          "delta.resolve"),
    _Hook("repro.delta.patcher", "FragmentPatcher", "patch", "delta.patch"),
    _Hook("repro.delta.maintenance", None, "evaluate", "delta.rebuild"),
    _Hook("repro.storage.fragments", "FragmentStore", "materialize",
          "delta.rebuild"),
)


class Tracer:
    """Span stack, per-operation self times and the fired-layer set."""

    def __init__(self) -> None:
        #: Open frames: [layer, start, child seconds, last mark, wait,
        #: request id].
        self._stack: list[list[Any]] = []
        self._op: dict[str, float] | None = None
        self._request = -1
        self._resume: float | None = None
        self._op_counts: dict[str, float] | None = None
        self._restore: list[tuple[Any, str, Any]] = []
        self.fired: set[str] = set()
        #: Spans that fired outside an operation or closed out of order.
        self.strays = 0
        self.misnested = 0

    # ------------------------------------------------------------------
    # operations (opened by the benchmark loop)
    # ------------------------------------------------------------------
    def begin(self, request_id: int) -> None:
        """Open the root span of an operation.  Roots are chained: each
        starts where the previous one closed (or at the last
        :meth:`resume`), so the loop's own time between operations is
        part of ``other`` rather than a hole in the ledger."""
        self._op = defaultdict(float)
        self._op_counts = defaultdict(float)
        self._request = request_id
        start = self._resume if self._resume is not None else perf_counter()
        self._stack.append(["other", start, 0.0, start, 0.0, request_id])

    def resume(self) -> None:
        """Restart the chain now: time since the last root closed was
        spent outside the ledger (reference sampling, checks)."""
        self._resume = perf_counter()

    def end(self) -> tuple[dict[str, float], dict[str, float]]:
        """Close the root span; returns raw (self seconds by layer,
        counts) of the operation."""
        self._resume = perf_counter()
        self._close(self._stack[-1], self._resume)
        if self._stack:
            self.misnested += len(self._stack)
            self._stack.clear()
        op, counts = self._op, self._op_counts
        self._op = self._op_counts = None
        assert op is not None and counts is not None
        return op, counts

    def span(self, layer: str) -> "_Span":
        """A span opened by the benchmark itself (the client-side HTTP
        round trip)."""
        return _Span(self, layer)

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> list[Any] | None:
        if self._op is None:
            self.strays += 1
            return None
        start = perf_counter()
        stack = self._stack
        if stack:
            parent = stack[-1]
            if layer == "service.engine" and parent[0] == "service.scheduler":
                parent[4] += start - parent[3]
        frame = [layer, start, 0.0, start, 0.0, self._request]
        stack.append(frame)
        return frame

    def _close(self, frame: list[Any], end: float) -> None:
        stack = self._stack
        if stack and stack[-1] is frame and frame[5] == self._request:
            stack.pop()
        else:
            self.misnested += 1
            if frame in stack:
                stack.remove(frame)
        op = self._op
        if op is None:  # the operation ended while this span was open
            self.misnested += 1
            return
        duration = end - frame[1]
        layer = frame[0]
        op[layer] += duration - frame[2] - frame[4]
        if frame[4]:
            op["service.scheduler.wait"] += frame[4]
        self.fired.add(layer)
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent[3] = end

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            owner = module if hook.owner is None else getattr(module, hook.owner)
            original = getattr(owner, hook.name)
            self._restore.append((owner, hook.name, original))
            setattr(owner, hook.name, self._wrap(original, hook))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, original: Callable[..., Any], hook: _Hook) -> Callable[..., Any]:
        tracer = self
        layer = hook.layer
        counter = hook.counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open(layer)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter())
            if counter is not None and tracer._op_counts is not None:
                for key, value in counter(result).items():
                    tracer._op_counts[key] += value
            return result

        return traced


class _Span:
    __slots__ = ("_tracer", "_layer", "_frame")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self._tracer = tracer
        self._layer = layer
        self._frame: list[Any] | None = None

    def __enter__(self) -> None:
        self._frame = self._tracer._open(self._layer)

    def __exit__(self, *exc_info: object) -> None:
        if self._frame is not None:
            self._tracer._close(self._frame, perf_counter())
