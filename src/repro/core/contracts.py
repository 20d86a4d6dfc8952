"""Opt-in runtime contract checks for the answering pipeline.

Each check asserts an invariant the paper proves or the design relies
on, re-deriving the property from first principles (bypassing the
coverage memo and the plan cache) so that a bug in the cached fast path
cannot hide itself:

* :func:`check_document_order` — answer code sequences are strictly
  document-ordered (extended Dewey codes order lexicographically by
  document position; a duplicate or inversion means a join bug).
* :func:`check_selection_covers` — a selected view set's leaf-cover
  union equals ``LF(Q)`` exactly and some unit provides ``Δ``
  (paper Section IV-A criterion).
* :func:`check_vfilter_sound` — every materialized view VFILTER
  dropped has *no* coverage unit for the query, i.e. filtering never
  discards a usable view (the paper's filtering soundness lemma).
* :func:`check_plan_consistency` — a cache-served plan answers like a
  freshly derived one: the same answerability, the same answer codes
  and the same answer content, and its selection still covers the
  query.  Catches stale cache entries that survived a missing
  ``_invalidate_plans()`` call or an edit's upkeep that went wrong.
* :func:`check_patched_fragments` — a view an edit maintained stores
  exactly the bytes a fresh materialization would, and every fragment
  tree already built in memory equals a decode of its payload.

The layer is **off by default**: every hook tests :func:`enabled`,
which reads ``XMVR_CHECK`` per call, so production pays one dict
lookup per site.  ``tests/conftest.py`` turns it on for the whole
suite.  Plan consistency re-runs filtering, selection and rewriting,
so warm answers only re-derive every ``XMVR_CHECK_SAMPLE``-th hit
(default 8, deterministic — no wall clock or randomness, per lint
rule L4).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..xmltree.dewey import DeweyCode
    from ..xmltree.schema import DocumentSchema
    from ..xmltree.tree import XMLNode
    from ..xpath.pattern import TreePattern
    from .plancache import PlanEntry
    from .selection import Selection
    from .system import MaterializedViewSystem, RegistryEpoch
    from .vfilter import FilterResult
    from .view import View

__all__ = [
    "ContractViolation",
    "enabled",
    "sample_every",
    "check_document_order",
    "check_selection_covers",
    "check_vfilter_sound",
    "check_plan_consistency",
    "check_patched_fragments",
]


class ContractViolation(ReproError):
    """An internal invariant failed under ``XMVR_CHECK=1``.

    Always a library bug, never a caller error: the offending state is
    described in the message so the failing invariant can be replayed.
    """


#: ``os.environ``'s backing dict, keyed and valued in the platform's
#: encoding.  Every ``os.environ`` write (``monkeypatch.setenv`` and
#: ``delenv`` included) updates it in place, so a probe of it is a read
#: of the live environment — without the key encode and value decode
#: that ``os.environ.get`` runs on every call.
_ENVIRON: dict[object, object] = getattr(os.environ, "_data")
_CHECK_KEY: object = getattr(os.environ, "encodekey")("XMVR_CHECK")
_CHECK_ON: object = getattr(os.environ, "encodevalue")("1")


def enabled() -> bool:
    """Whether contract checking is on (``XMVR_CHECK=1``).

    Read from the environment on every call so tests can flip it
    per-case; the lookup is one dict probe on pre-encoded constants.
    """
    return _ENVIRON.get(_CHECK_KEY) == _CHECK_ON


def sample_every() -> int:
    """Check every Nth warm plan-cache hit (``XMVR_CHECK_SAMPLE``)."""
    raw = os.environ.get("XMVR_CHECK_SAMPLE", "8")
    try:
        value = int(raw)
    except ValueError:
        return 8
    return max(1, value)


# ----------------------------------------------------------------------
# individual contracts
# ----------------------------------------------------------------------
def check_document_order(
    codes: Sequence["DeweyCode"], context: str
) -> None:
    """Answer codes must be strictly increasing (document order,
    no duplicates)."""
    for index in range(1, len(codes)):
        if not codes[index - 1] < codes[index]:
            raise ContractViolation(
                f"{context}: answer codes not strictly document-ordered "
                f"at position {index}: {codes[index - 1]!r} !< "
                f"{codes[index]!r}"
            )


def check_selection_covers(
    selection: "Selection", pattern: "TreePattern", context: str
) -> None:
    """The selected set's coverage union must equal ``LF(Q)`` with a
    Δ provider — recomputed from the raw patterns, not the memo."""
    from .leaf_cover import coverage_units, obligations_of

    needed = obligations_of(pattern)
    covered: set = set()
    has_delta = False
    for view in selection.views:
        for unit in coverage_units(view, pattern):
            covered.update(unit.covered)
            has_delta = has_delta or unit.provides_delta
    missing = needed - covered
    if missing:
        labels = sorted(str(obligation) for obligation in missing)
        raise ContractViolation(
            f"{context}: selection {selection.view_ids} does not cover "
            f"LF(Q); missing obligations {labels}"
        )
    if not has_delta:
        raise ContractViolation(
            f"{context}: selection {selection.view_ids} has no Δ provider"
        )


def check_vfilter_sound(
    pattern: "TreePattern",
    filter_result: "FilterResult",
    views: Iterable,
    context: str,
) -> None:
    """Every materialized view VFILTER dropped must be genuinely
    unusable: no coverage unit for the query (the filtering lemma)."""
    from .leaf_cover import coverage_units

    candidates = set(filter_result.candidates)
    for view in views:
        if view.view_id in candidates:
            continue
        units = coverage_units(view, pattern)
        if units:
            raise ContractViolation(
                f"{context}: VFILTER dropped view {view.view_id!r} which "
                f"has {len(units)} usable coverage unit(s) for the query"
            )


def check_plan_consistency(
    system: "MaterializedViewSystem",
    entry: "PlanEntry",
    strategy: str,
    context: str,
    epoch: "RegistryEpoch | None" = None,
) -> None:
    """A cache-served plan must answer like a fresh derivation.

    Re-runs filtering + selection without the coverage memo and, for
    positive plans, a fresh rewrite without the plan cache; compares
    answerability, answer codes and each answer's serialised subtree,
    and re-checks that the cached selection covers the query.  The
    selected view ids may differ: an edit the plan was maintained
    across can change the fragment sizes that break selection ties.  A
    mismatch means the cache held a plan for a different view pool or
    document state — an ``_invalidate_plans()`` call was missed, or an
    edit's upkeep patched the answers wrongly.

    ``epoch`` pins the registry state for the re-derivation; the
    answering path passes the epoch the cached plan came from so a
    registration landing between answer and check cannot produce a
    false stale-plan report.
    """
    from .rewrite import rewrite
    from ..errors import ViewNotAnswerableError
    from ..xmltree.serializer import serialize_node

    try:
        _, fresh_selection = system._derive_selection(
            entry.pattern, strategy, units_fn=None, epoch=epoch
        )
    except ViewNotAnswerableError as fresh_error:
        if entry.error is None:
            raise ContractViolation(
                f"{context}: cached plan selects {entry.selection.view_ids}"
                f" but a fresh derivation fails ({fresh_error}); stale "
                f"positive plan entry"
            ) from fresh_error
        return
    if entry.error is not None:
        raise ContractViolation(
            f"{context}: cached plan replays ViewNotAnswerableError but a "
            f"fresh derivation selects {fresh_selection.view_ids}; stale "
            f"negative plan entry"
        )

    assert entry.selection is not None
    check_selection_covers(entry.selection, entry.pattern, context)
    fresh_result = rewrite(
        fresh_selection,
        entry.pattern,
        system.fragments,
        system.document.fst,
    )
    cached_result = entry.result
    assert cached_result is not None
    if list(cached_result.codes) != list(fresh_result.codes):
        raise ContractViolation(
            f"{context}: cached plan yields {len(cached_result.codes)} "
            f"answer code(s) but a fresh rewrite yields "
            f"{len(fresh_result.codes)}; stale plan entry"
        )
    for code in fresh_result.codes:
        cached = serialize_node(cached_result.answers[code])
        if cached != serialize_node(fresh_result.answers[code]):
            raise ContractViolation(
                f"{context}: cached answer at {code} holds content a "
                f"fresh rewrite does not; stale plan entry"
            )


def check_patched_fragments(
    system: "MaterializedViewSystem", view: "View", context: str
) -> None:
    """A delta-patched fragment set must be *byte-identical* to a full
    re-materialization of the view over the live document.

    Re-evaluates the pattern from scratch (no delta, no restricted
    universe), encodes the answers exactly as
    :meth:`FragmentStore.materialize` would, and compares the stored
    payload bytes one-for-one, and the view's recorded byte total with
    their sum.  Any divergence — a missed splice, an un-re-encoded
    ancestor fragment, an ordering slip, a total tracked wrong through
    the splice — is a patcher bug, never a caller error.

    Every fragment whose tree is already built (decoded by a read, or
    handed over by the patcher as a copy of the live subtree) must
    also equal a decode of its payload: labels, text, attributes,
    child order, ``dewey`` and ``dewey_packed``, with a parentless
    root.  The in-memory copy is what reads use, so it must not drift
    from the bytes.
    """
    from ..matching.evaluate import evaluate
    from ..storage.serialize import encode_dewey, encode_fragment

    answers = evaluate(view.pattern, system.document.tree)
    entries = sorted(
        ((node.dewey, node) for node in answers if node.dewey is not None),
        key=lambda item: item[0],
    )
    expected = [
        encode_dewey(code) + encode_fragment(node, system.document.schema)
        for code, node in entries
    ]
    if sum(len(payload) for payload in expected) > system.fragments.cap_bytes:
        raise ContractViolation(
            f"{context}: view {view.view_id!r} exceeds the fragment cap "
            f"when re-materialized fresh, but the delta patch kept it"
        )
    stored = system.fragments.fragments(view.view_id)
    actual = [fragment.payload for fragment in stored]
    if actual != expected:
        raise ContractViolation(
            f"{context}: view {view.view_id!r} patched fragments diverge "
            f"from a full re-materialization ({len(actual)} stored vs "
            f"{len(expected)} expected payloads)"
        )
    recorded = system.fragments.fragment_bytes(view.view_id)
    if recorded != sum(map(len, actual)):
        raise ContractViolation(
            f"{context}: view {view.view_id!r} records {recorded} stored "
            f"bytes but its payloads hold {sum(map(len, actual))}"
        )
    for fragment in stored:
        built = fragment.built_root
        if built is None:
            continue
        problem = _tree_drift(built, fragment.payload, system.document.schema)
        if problem is not None:
            raise ContractViolation(
                f"{context}: view {view.view_id!r} fragment at "
                f"{fragment.code} holds a tree that is not its payload's "
                f"decode: {problem}"
            )


def _tree_drift(
    built: "XMLNode", payload: bytes, schema: "DocumentSchema"
) -> str | None:
    """How ``built`` differs from the decode of ``payload``, or None."""
    from ..storage.serialize import decode_dewey, decode_fragment

    code, offset = decode_dewey(payload, 0)
    decoded, _ = decode_fragment(payload, offset, code, schema)
    if built.parent is not None:
        return "its root has a parent"
    stack = [(built, decoded)]
    while stack:
        node, twin = stack.pop()
        if (node.label, node.text, node.attributes) != (
            twin.label, twin.text, twin.attributes
        ):
            return f"node {twin.dewey or twin.label!r} label, text or attributes"
        if (node.dewey, node.dewey_packed) != (twin.dewey, twin.dewey_packed):
            return f"node {twin.dewey or twin.label!r} has code {node.dewey}"
        if len(node.children) != len(twin.children):
            return f"node {twin.dewey or twin.label!r} child count"
        stack.extend(zip(node.children, twin.children))
    return None
