"""Equivalent multiple-view rewriting (paper Section V, end to end).

Pipeline for an answerable query with a selected unit set:

1. **Refine** every unit's materialized fragments with its compensating
   pattern (:mod:`repro.core.refine` — "pushing selection").
2. **Join** the refined fragment roots holistically on their extended
   Dewey codes (:mod:`repro.core.twig_join`); the extraction unit is a
   Δ-provider, preferred by smallest fragment volume.
3. **Extract** the answers by evaluating the Δ-unit's compensating
   pattern (answer node marked) inside each surviving fragment.

Answers are reported as extended Dewey codes, read off the fragment
trees: every tree a :class:`~repro.storage.fragments.Fragment` hands
out already carries the document's codes (the decode rebuilds them
from the fragment root's code and the schema), so extraction only
reads.  The end-to-end result is *provably* the same node set as
evaluating the query on the base document, and the test suite checks
exactly that equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from ..errors import RewritingError
from ..obs import SYSTEM_CLOCK, Clock, current_trace
from ..matching.evaluate import evaluate_relative
from ..storage.fragments import Fragment, FragmentStore
from ..xmltree.dewey import DeweyCode, PackedCode
from ..xmltree.fst import FiniteStateTransducer
from ..xmltree.tree import XMLNode
from ..xpath.pattern import TreePattern
from .leaf_cover import CoverageMemo
from .refine import RefinedUnit, compensation_plan, refine_unit
from .selection import Selection
from .twig_join import join_units

__all__ = ["RewriteResult", "extract_answers", "rewrite"]

#: The answers of an empty result, shared.
_NO_ANSWERS: Mapping[DeweyCode, XMLNode] = MappingProxyType({})


@dataclass(slots=True)
class RewriteResult:
    """Outcome of a multiple-view rewriting.

    ``codes`` is the answer set (extended Dewey codes, sorted) and
    ``answers`` maps each code to the answer node *inside its fragment*
    (a subtree copy, usable without base-data access).  A cached plan
    hands both to every caller, so they are a tuple and a read-only
    mapping.  The remaining fields expose what happened for inspection
    and benchmarks.
    """

    codes: tuple[DeweyCode, ...]
    answers: Mapping[DeweyCode, XMLNode] = field(
        default_factory=lambda: _NO_ANSWERS
    )
    refined: list[RefinedUnit] = field(default_factory=list)
    extraction_view: str = ""
    joined_roots: int = 0


def extract_answers(
    pattern: TreePattern,
    fragments: Iterable[Fragment],
    surviving: Iterable[PackedCode],
) -> Iterator[XMLNode]:
    """Evaluate ``pattern`` (its answer node marked) inside each of
    ``fragments`` whose packed root code is in ``surviving``, in
    ``surviving`` order; every answer carries its document code."""
    by_packed = {fragment.packed: fragment for fragment in fragments}
    for packed_root in surviving:
        fragment = by_packed[packed_root]
        yield from evaluate_relative(
            pattern, fragment.root, fragment.subtree_index()
        )


def rewrite(
    selection: Selection,
    query: TreePattern,
    fragment_store: FragmentStore,
    fst: FiniteStateTransducer,
    memo: CoverageMemo | None = None,
    query_key: str | None = None,
    stage_acc: dict[str, float] | None = None,
    clock: Clock | None = None,
) -> RewriteResult:
    """Run the full refine → join → extract pipeline.

    When ``memo`` and ``query_key`` are given (the system's hot path),
    each unit's compensating pattern and case-1 skip decision are
    served from / recorded in the memo instead of being re-derived —
    only valid when ``query`` is the memo's interned pattern for
    ``query_key`` and the units reference its nodes.

    ``stage_acc``, when given, receives cumulative wall-clock seconds
    under the keys ``refine`` / ``join`` / ``extract`` (the ``answer
    --profile`` plumbing), measured on ``clock`` (the system's
    injected time source; defaults to the real clock for direct
    library use); the empty-answer short-circuit skips the bookkeeping.
    """
    monotonic = (clock if clock is not None else SYSTEM_CLOCK).monotonic
    trace = current_trace()
    fragments_cache: dict[str, list[Fragment]] = {}

    def fragments_of(view_id: str) -> list[Fragment]:
        cached = fragments_cache.get(view_id)
        if cached is None:
            cached = fragment_store.fragments(view_id)
            fragments_cache[view_id] = cached
        return cached

    def plan_for(unit) -> tuple[TreePattern, bool]:
        if memo is None or query_key is None:
            return compensation_plan(unit, query)
        plan = memo.compensation(query_key, unit)
        if plan is None:
            plan = compensation_plan(unit, query)
            memo.record_compensation(query_key, unit, *plan)
        return plan

    refine_started = monotonic() if stage_acc is not None else 0.0
    with trace.span("refine", units=len(selection.units)):
        refined_units: list[RefinedUnit] = []
        for unit in selection.units:
            refined = refine_unit(
                unit, query, fragments_of(unit.view.view_id),
                plan=plan_for(unit),
            )
            if not refined.fragments:
                # Some required piece has no instances: the answer is
                # empty.
                return RewriteResult((), refined=refined_units + [refined])
            refined_units.append(refined)
    if stage_acc is not None:
        stage_acc["refine"] += monotonic() - refine_started

    delta_candidates = [
        refined for refined in refined_units if refined.unit.provides_delta
    ]
    if not delta_candidates:
        raise RewritingError(
            "selection has no Δ-providing unit; answerability check "
            "should have failed earlier"
        )
    extraction = min(
        delta_candidates,
        key=lambda refined: (
            fragment_store.fragment_bytes(refined.unit.view.view_id),
            refined.unit.view.view_id,
        ),
    )

    join_started = monotonic() if stage_acc is not None else 0.0
    with trace.span("twig_join") as join_span:
        surviving = join_units(refined_units, query, fst, extraction)
        join_span.attributes["surviving_roots"] = len(surviving)
        join_span.attributes["extraction_view"] = (
            extraction.unit.view.view_id
        )
    if stage_acc is not None:
        stage_acc["join"] += monotonic() - join_started
        extract_started = monotonic()

    # Document-order sort on packed keys (flat byte comparison); the
    # packed form is unique per code, so the tuple is never compared.
    ordered: set[tuple[bytes, DeweyCode]] = set()
    answers: dict[DeweyCode, XMLNode] = {}
    with trace.span("extract") as extract_span:
        for answer in extract_answers(
            extraction.pattern, extraction.fragments, surviving
        ):
            assert answer.dewey is not None
            assert answer.dewey_packed is not None
            ordered.add((answer.dewey_packed, answer.dewey))
            answers[answer.dewey] = answer
        extract_span.attributes["answers"] = len(answers)
    if stage_acc is not None:
        stage_acc["extract"] += monotonic() - extract_started
    return RewriteResult(
        tuple([code for _packed, code in sorted(ordered)]),
        answers=MappingProxyType(answers),
        refined=refined_units,
        extraction_view=extraction.unit.view.view_id,
        joined_roots=len(surviving),
    )
