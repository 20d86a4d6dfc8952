"""Thread-safe metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per :class:`~repro.core.system.
MaterializedViewSystem` is the single source of truth for operational
counters — ``stats()``, the ``/metrics`` endpoint and the benchmark
reports all read the same cells instead of keeping parallel tallies.

Design constraints, in order:

* **Cheap on the hot path.**  ``Counter.inc`` / ``Histogram.observe``
  are one short lock acquisition around a cell probe and two adds
  (one for a counter); label arity is checked only when a label set is
  first touched, since a wrong-arity key can never already have a
  cell.  No allocation after the first touch of a label set.
* **Lock discipline** (xmvrlint L10–L14): every mutable cell is
  ``#: guarded-by:`` its own leaf lock; nothing blocking ever runs
  under one, and no registry lock is held while user callbacks run
  (callback gauges are snapshotted outside the registry lock).
* **Consistent scrapes.**  :meth:`MetricsRegistry.collect` snapshots
  each metric under its lock, so a rendered exposition never shows a
  histogram whose bucket counts disagree with its ``_count``.

Names follow Prometheus conventions (``repro_*_total`` counters,
``repro_*_seconds`` histograms); rendering to the text exposition
format lives in :mod:`repro.obs.expo`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramView",
    "MetricSample",
    "MetricSnapshot",
    "MetricsRegistry",
]

#: Fixed latency buckets (seconds): ~100 µs parse hits through multi-
#: second cold derivations, log-ish spacing, 14 buckets + ``+Inf``.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One exposition line: ``name{labels} value`` (suffix already part
    of ``name`` for histogram ``_bucket``/``_sum``/``_count`` rows)."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass(frozen=True, slots=True)
class MetricSnapshot:
    """A consistent point-in-time copy of one metric family."""

    name: str
    kind: str
    help: str
    samples: tuple[MetricSample, ...]


def _label_items(
    labelnames: tuple[str, ...], labelvalues: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    return tuple(zip(labelnames, labelvalues))


class _Metric:
    """Shared base: name, help text, label plumbing.

    Each concrete metric creates its own leaf ``_lock`` in its own
    ``__init__`` (not here): the static lock-set checker identifies
    locks class-wide by ``(defining class, attr)``, so the guard on
    e.g. ``Counter._values`` must be ``Counter._lock``, not an
    inherited ``_Metric._lock``.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._arity = len(self.labelnames)

    def _check_labels(self, labelvalues: tuple[str, ...]) -> None:
        # Hot paths (``inc``/``observe``) call this only when a label
        # set gets its first cell.
        if len(labelvalues) != self._arity:
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {labelvalues!r}"
            )

    def snapshot(self) -> MetricSnapshot:  # pragma: no cover - abstract
        raise NotImplementedError

    def _snapshot_of(
        self, cells: dict[tuple[str, ...], float]
    ) -> MetricSnapshot:
        """One sample per cell (label values -> value), sorted."""
        samples = tuple(
            MetricSample(
                self.name, _label_items(self.labelnames, key), value
            )
            for key, value in sorted(cells.items())
        )
        return MetricSnapshot(self.name, self.kind, self.help, samples)


class Counter(_Metric):
    """Monotonically increasing float, optionally labeled.

    Callback counters (``fn`` given) export a cumulative count their
    owner already keeps, read at scrape time like a callback
    :class:`Gauge`, so the counted path pays no ``inc``.  The callback
    must never go down.
    """

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if fn is not None and labelnames:
            raise ValueError("callback counters cannot be labeled")
        self._fn = fn
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, *labelvalues: str) -> None:
        """Add ``amount`` (must be >= 0) to the cell for
        ``labelvalues`` (empty for an unlabeled counter)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            if labelvalues in self._values:
                self._values[labelvalues] += amount
                return
            # First touch of this label set; a callback counter has no
            # cells, so every ``inc`` on one lands here.
            if self._fn is not None:
                raise ValueError(f"{self.name} is a callback counter")
            self._check_labels(labelvalues)
            self._values[labelvalues] = float(amount)

    def value(self, *labelvalues: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        self._check_labels(labelvalues)
        with self._lock:
            return self._values.get(labelvalues, 0.0)

    def snapshot(self) -> MetricSnapshot:
        if self._fn is not None:
            return self._snapshot_of({(): float(self._fn())})
        with self._lock:
            cells = dict(self._values)
        return self._snapshot_of(cells)


class Gauge(_Metric):
    """A settable value, or a callback read at scrape time.

    Callback gauges (``fn`` given) hold no state of their own; the
    callback runs *outside* every registry/metric lock, so it may take
    its owner's locks freely (e.g. a queue-depth gauge reading a
    scheduler's internals).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        fn: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if fn is not None and labelnames:
            raise ValueError("callback gauges cannot be labeled")
        self._fn = fn
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, *labelvalues: str) -> None:
        if self._fn is not None:
            raise ValueError(f"{self.name} is a callback gauge")
        self._check_labels(labelvalues)
        with self._lock:
            self._values[labelvalues] = value

    def value(self, *labelvalues: str) -> float:
        if self._fn is not None:
            return float(self._fn())
        self._check_labels(labelvalues)
        with self._lock:
            return self._values.get(labelvalues, 0.0)

    def snapshot(self) -> MetricSnapshot:
        if self._fn is not None:
            return self._snapshot_of({(): float(self._fn())})
        with self._lock:
            cells = dict(self._values)
        return self._snapshot_of(cells)


@dataclass(slots=True)
class _HistogramCell:
    """Bucket counts + running sum for one label set (the observation
    count is the counts' sum, taken when read)."""

    counts: list[int]
    total: float = 0.0


@dataclass(frozen=True, slots=True)
class HistogramView:
    """An immutable per-label-set histogram reading."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` (0..1) by linear
        interpolation inside the containing bucket.  Observations in
        the overflow bucket report the largest finite bound (a floor,
        stated rather than extrapolated)."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else self.bounds[-1]
            )
            if bucket_count:
                if cumulative + bucket_count >= rank:
                    if index >= len(self.bounds):
                        return self.bounds[-1]
                    fraction = (
                        (rank - cumulative) / bucket_count
                        if bucket_count
                        else 0.0
                    )
                    return lower + (upper - lower) * min(1.0, fraction)
                cumulative += bucket_count
            lower = upper if index < len(self.bounds) else lower
        return self.bounds[-1]


class Histogram(_Metric):
    """Fixed-bucket latency histogram with p50/p95/p99 readouts.

    ``sum`` is accumulated exactly (plain float addition, not
    re-derived from buckets), which is what lets ``stats()``'s
    ``stage_seconds`` be *identical* to the exposed histogram sums
    rather than merely close.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._cells: dict[tuple[str, ...], _HistogramCell] = {}

    def observe(self, value: float, *labelvalues: str) -> None:
        with self._lock:
            cell = self._cells.get(labelvalues)
            if cell is None:
                self._check_labels(labelvalues)
                cell = _HistogramCell([0] * (len(self.bounds) + 1))
                self._cells[labelvalues] = cell
            # First bound >= value; past the last bound is ``+Inf``.
            cell.counts[bisect_left(self.bounds, value)] += 1
            cell.total += value

    def view(self, *labelvalues: str) -> HistogramView:
        """A consistent reading for one label set (zeros if unseen)."""
        self._check_labels(labelvalues)
        with self._lock:
            cell = self._cells.get(labelvalues)
            if cell is None:
                return HistogramView(
                    self.bounds, (0,) * (len(self.bounds) + 1), 0.0, 0
                )
            counts = tuple(cell.counts)
            total = cell.total
        return HistogramView(self.bounds, counts, total, sum(counts))

    def sums(self) -> dict[tuple[str, ...], float]:
        """Exact per-label-set sums (the ``stage_seconds`` source)."""
        with self._lock:
            return {
                key: cell.total for key, cell in self._cells.items()
            }

    def snapshot(self) -> MetricSnapshot:
        with self._lock:
            cells = {
                key: (tuple(cell.counts), cell.total)
                for key, cell in self._cells.items()
            }
        samples: list[MetricSample] = []
        for key in sorted(cells):
            counts, total = cells[key]
            count = sum(counts)
            base = _label_items(self.labelnames, key)
            cumulative = 0
            for index, bound in enumerate(self.bounds):
                cumulative += counts[index]
                samples.append(
                    MetricSample(
                        self.name + "_bucket",
                        base + (("le", _format_bound(bound)),),
                        float(cumulative),
                    )
                )
            samples.append(
                MetricSample(
                    self.name + "_bucket",
                    base + (("le", "+Inf"),),
                    float(count),
                )
            )
            samples.append(
                MetricSample(self.name + "_sum", base, total)
            )
            samples.append(
                MetricSample(self.name + "_count", base, float(count))
            )
        return MetricSnapshot(self.name, self.kind, self.help, samples)


def _format_bound(bound: float) -> str:
    """Shortest exact-ish rendering ("0.005", not "0.005000")."""
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Named metric families; get-or-create semantics per name.

    Re-requesting a name returns the existing family (so two scheduler
    instances over one system share counters) but raises if the kind
    or label names disagree — silently forking a metric is how double
    counting starts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
        if (
            existing.kind != metric.kind
            or existing.labelnames != metric.labelnames
        ):
            raise ValueError(
                f"metric {metric.name!r} already registered as "
                f"{existing.kind}{existing.labelnames}"
            )
        return existing

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        fn: Callable[[], float] | None = None,
    ) -> Counter:
        metric = self._get_or_create(
            Counter(name, help_text, labelnames, fn)
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        fn: Callable[[], float] | None = None,
    ) -> Gauge:
        metric = self._get_or_create(Gauge(name, help_text, labelnames, fn))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram(name, help_text, labelnames, buckets)
        )
        assert isinstance(metric, Histogram)
        return metric

    def collect(self) -> list[MetricSnapshot]:
        """Snapshot every family, sorted by name.  The registry lock is
        released before any per-metric snapshotting (and so before any
        gauge callback) runs."""
        with self._lock:
            metrics = sorted(
                self._metrics.values(), key=lambda metric: metric.name
            )
        return [metric.snapshot() for metric in metrics]

    def names(self) -> Iterable[str]:
        with self._lock:
            return sorted(self._metrics)
