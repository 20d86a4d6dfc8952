"""Multiple-view selection (paper Section IV-B, Algorithm 2).

Three strategies, matching the paper's experimental legend:

* **MN** — exhaustive minimum over *all* registered views, no VFILTER:
  one homomorphism/coverage computation per view, then exact set cover.
  This is the paper's strawman whose lookup cost grows with the view
  count (Figure 9).
* **MV** — the same exact search, restricted to VFILTER's candidates.
* **HV** — the greedy heuristic of Algorithm 2, driven by the
  ``LIST(P_i)`` sorted lists VFILTER maintains: repeatedly pick an
  uncovered leaf and take the candidate view with the longest containing
  path (longest ⇒ deepest ⇒ smaller materialized fragments), then
  remove redundant views.  Returns a *minimal* (not minimum) set.

The exact search is implemented as set cover over coverage
*signatures*: views with identical obligation coverage collapse into one
class, so the search space is bounded by ``2^|LF(Q)|`` classes rather
than ``2^|V|`` views — the worst case remains exponential in the query
size, as the paper notes, but never in the view count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

from ..errors import ViewNotAnswerableError
from ..xpath.decompose import decompose
from ..xpath.pattern import PathPattern, PatternNode, TreePattern
from .leaf_cover import (
    CoverageUnit,
    Obligation,
    coverage_units,
    obligations_of,
)
from .vfilter import FilterResult
from .view import View

__all__ = ["Selection", "select_cost_based", "select_heuristic", "select_minimum"]

#: Optional callback reporting a view's materialized size in bytes;
#: used as a tie-breaker (smaller fragments first).
SizeOf = Callable[[str], int]

#: Optional coverage-unit supplier (the system threads a
#: :class:`~repro.core.leaf_cover.CoverageMemo` through here so MN, MV,
#: HV and CB share one homomorphism computation per (view, query) pair).
UnitsFn = Callable[[View], list[CoverageUnit]]


def _units_fn_for(query: TreePattern, units_fn: UnitsFn | None) -> UnitsFn:
    if units_fn is not None:
        return units_fn
    return lambda view: coverage_units(view, query)


@dataclass(slots=True)
class Selection:
    """A chosen view set with the per-anchor units rewriting will use."""

    views: list[View]
    units: list[CoverageUnit] = field(default_factory=list)

    @property
    def view_ids(self) -> list[str]:
        return [view.view_id for view in self.views]

    def delta_units(self) -> list[CoverageUnit]:
        return [unit for unit in self.units if unit.provides_delta]


@dataclass(slots=True)
class _ViewInfo:
    view: View
    units: list[CoverageUnit]
    coverage: frozenset[Obligation]
    has_delta: bool
    size: int


def _gather(
    views: list[View],
    query: TreePattern,
    size_of: SizeOf | None,
    units_fn: UnitsFn | None = None,
) -> list[_ViewInfo]:
    units_of = _units_fn_for(query, units_fn)
    infos: list[_ViewInfo] = []
    for view in views:
        units = units_of(view)
        if not units:
            continue
        coverage: set[Obligation] = set()
        has_delta = False
        for unit in units:
            coverage.update(unit.covered)
            has_delta = has_delta or unit.provides_delta
        infos.append(
            _ViewInfo(
                view,
                units,
                frozenset(coverage),
                has_delta,
                size_of(view.view_id) if size_of else 0,
            )
        )
    return infos


def _finish(infos: list[_ViewInfo]) -> Selection:
    views = [info.view for info in infos]
    units = [unit for info in infos for unit in info.units]
    return Selection(views, units)


def select_minimum(
    views: list[View],
    query: TreePattern,
    size_of: SizeOf | None = None,
    units_fn: UnitsFn | None = None,
) -> Selection:
    """Exact minimum-cardinality answering view set (MN / MV).

    Raises :class:`~repro.errors.ViewNotAnswerableError` when no subset
    answers the query; the exception carries the uncovered obligations.
    """
    needed = obligations_of(query)
    infos = _gather(views, query, size_of, units_fn)

    # Collapse identical coverage signatures, keeping the smallest view
    # (by materialized bytes, then registration order) per class.
    classes: dict[tuple[frozenset[Obligation], bool], _ViewInfo] = {}
    for info in infos:
        key = (info.coverage, info.has_delta)
        incumbent = classes.get(key)
        if incumbent is None or info.size < incumbent.size:
            classes[key] = info
    candidates = list(classes.values())

    union: set[Obligation] = set()
    for info in candidates:
        union.update(info.coverage)
    if not needed <= union or not any(info.has_delta for info in candidates):
        raise ViewNotAnswerableError(
            "no view subset answers the query",
            uncovered=frozenset(needed - union),
        )

    for size in range(1, len(candidates) + 1):
        best: list[_ViewInfo] | None = None
        best_bytes = 0
        for combo in combinations(candidates, size):
            if not any(info.has_delta for info in combo):
                continue
            covered: set[Obligation] = set()
            for info in combo:
                covered.update(info.coverage)
            if needed <= covered:
                total = sum(info.size for info in combo)
                if best is None or total < best_bytes:
                    best = list(combo)
                    best_bytes = total
        if best is not None:
            return _finish(best)
    raise ViewNotAnswerableError("no view subset answers the query")


def _leaf_path(leaf: PatternNode) -> PathPattern:
    """The root-to-leaf path pattern containing ``leaf`` (raw form,
    matching the keys of ``FilterResult.lists``)."""
    steps = tuple(node.step() for node in leaf.root_path())
    return PathPattern(steps)


def select_heuristic(
    filter_result: FilterResult,
    view_lookup: Callable[[str], View],
    query: TreePattern,
    size_of: SizeOf | None = None,
    units_fn: UnitsFn | None = None,
) -> Selection:
    """Algorithm 2: greedy minimal selection from ``LIST(P_i)``.

    ``filter_result`` comes from :meth:`VFilter.filter`;
    ``view_lookup`` resolves candidate ids to :class:`View` objects.
    """
    needed = obligations_of(query)
    units_of = _units_fn_for(query, units_fn)
    node_index = {id(node): node for node in query.iter_nodes()}

    # Map every non-delta obligation to the query path that reaches it
    # (for an internal attrs obligation: the path through its subtree's
    # first leaf, which its own steps prefix).
    def path_for(obligation: Obligation) -> PathPattern:
        node = node_index[obligation.node_id]
        probe = node
        while probe.children:
            probe = probe.children[0]
        return _leaf_path(probe)

    selected: dict[str, _ViewInfo] = {}
    covered: set[Obligation] = set()
    pending = [ob for ob in needed if ob.kind != "delta"]
    # Deterministic order: by path then label (the paper picks randomly).
    pending.sort(key=lambda ob: (path_for(ob).to_xpath(), ob.label, ob.kind))

    def try_views(
        entries: Sequence[tuple[str, int]], target: Obligation | None
    ) -> bool:
        """Walk a LIST(P_i); select the first view covering ``target``
        (or providing Δ when ``target`` is None)."""
        for view_id, _length in entries:
            if view_id in selected:
                continue
            view = view_lookup(view_id)
            units = units_of(view)
            if not units:
                continue
            coverage: set[Obligation] = set()
            has_delta = False
            for unit in units:
                coverage.update(unit.covered)
                has_delta = has_delta or unit.provides_delta
            hit = has_delta if target is None else target in coverage
            if hit:
                selected[view_id] = _ViewInfo(
                    view,
                    units,
                    frozenset(coverage),
                    has_delta,
                    size_of(view_id) if size_of else 0,
                )
                covered.update(coverage)
                return True
        return False

    while True:
        uncovered = [ob for ob in pending if ob not in covered]
        if not uncovered:
            break
        target = uncovered[0]
        entries = filter_result.lists.get(path_for(target), ())
        if not try_views(entries, target):
            # Attribute obligations (our Section-V extension) may be
            # covered by a view reached through a *different* query
            # path; fall back to every candidate list before giving up.
            fallback: list[tuple[str, int]] = []
            seen_ids: set[str] = set()
            for other_entries in filter_result.lists.values():
                for view_id, length in other_entries:
                    if view_id not in seen_ids:
                        seen_ids.add(view_id)
                        fallback.append((view_id, length))
            fallback.sort(key=lambda item: (-item[1], item[0]))
            if not try_views(fallback, target):
                raise ViewNotAnswerableError(
                    f"no candidate view covers obligation {target}",
                    uncovered=frozenset(uncovered),
                )

    # Ensure a Δ provider, preferring the answer node's own path list.
    if not any(info.has_delta for info in selected.values()):
        answer_path = _leaf_path_for_answer(query)
        entries = filter_result.lists.get(answer_path, ())
        if not try_views(entries, None):
            # Fall back to any candidate list.
            if not any(
                try_views(entries, None)
                for entries in filter_result.lists.values()
            ):
                raise ViewNotAnswerableError(
                    "no candidate view can provide the query answer (Δ)"
                )

    # Lines 20-21: drop redundant views (latest-added first).
    for view_id in list(reversed(list(selected))):
        remaining = [info for vid, info in selected.items() if vid != view_id]
        still_covered: set[Obligation] = set()
        for info in remaining:
            still_covered.update(info.coverage)
        if needed <= still_covered and any(info.has_delta for info in remaining):
            del selected[view_id]

    return _finish(list(selected.values()))


def _leaf_path_for_answer(query: TreePattern) -> PathPattern:
    """The normalized path through the answer node's first leaf."""
    probe = query.ret
    while probe.children:
        probe = probe.children[0]
    return _leaf_path(probe)


def select_cost_based(
    views: list[View],
    query: TreePattern,
    size_of: SizeOf,
    view_overhead_bytes: int = 4096,
    units_fn: UnitsFn | None = None,
) -> Selection:
    """Cost-model selection: weighted greedy set cover.

    The paper observes that the minimum-cardinality criterion (MV) and
    the smallest-fragments heuristic (HV) optimize different costs and
    suggests — without implementing — a model combining both.  This
    selector does: each view's cost is its materialized fragment bytes
    plus a fixed per-view overhead (standing for the join/bookkeeping
    cost another participant adds), and views are picked greedily by
    cost per newly covered obligation.  Ablated against MV and HV in
    ``benchmarks/bench_ablation_selection.py``.
    """
    needed = obligations_of(query)
    infos = _gather(views, query, size_of, units_fn)
    if not infos:
        raise ViewNotAnswerableError("no usable view for the query")

    chosen: list[_ViewInfo] = []
    covered: set[Obligation] = set()
    remaining = list(infos)
    while not needed <= covered:
        best: _ViewInfo | None = None
        best_score = 0.0
        for info in remaining:
            gain = len((needed & info.coverage) - covered)
            if gain == 0:
                continue
            score = (info.size + view_overhead_bytes) / gain
            if best is None or score < best_score:
                best = info
                best_score = score
        if best is None:
            raise ViewNotAnswerableError(
                "no view subset answers the query",
                uncovered=frozenset(needed - covered),
            )
        chosen.append(best)
        covered.update(best.coverage)
        remaining.remove(best)

    if not any(info.has_delta for info in chosen):
        delta_options = [info for info in remaining if info.has_delta]
        if not delta_options:
            raise ViewNotAnswerableError(
                "no candidate view can provide the query answer (Δ)"
            )
        chosen.append(min(delta_options, key=lambda info: info.size))

    # Redundancy removal, most expensive first.
    for info in sorted(chosen, key=lambda info: -info.size):
        rest = [other for other in chosen if other is not info]
        still: set[Obligation] = set()
        for other in rest:
            still.update(other.coverage)
        if needed <= still and any(other.has_delta for other in rest):
            chosen = rest
    return _finish(chosen)
