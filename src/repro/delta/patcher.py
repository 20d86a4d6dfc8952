"""Fragment patching: splice a delta into stored view fragments.

The patcher rewrites a view's :class:`FragmentStore` entry without
re-evaluating the pattern over the whole document.  Three ingredients,
all keyed on packed Dewey byte order (which *is* document order):

* **range delete** — fragments whose packed code falls inside the
  replaced range are dropped: the splice scope's range, or else the
  deleted subtree's ``[low, high)``;
* **content re-encode** — fragments rooted at an ancestor-or-self of
  the edit anchor serialize bytes from inside the edited region, so
  their payloads are re-encoded from the live tree (their answer-set
  membership is unchanged — the resolver proved it);
* **splice insert** — the caller evaluates the view under the scope the
  resolver chose (:mod:`repro.delta.resolver`); the answers that land
  inside the scope's packed range are encoded and merged.

Everything else reuses the stored fragment, payload bytes and decoded
subtree included.  The merged fragment list is sorted by packed code
before storing, which reproduces exactly the code-ordered layout
:meth:`FragmentStore.materialize` produces — the ``XMVR_CHECK=1``
contract asserts byte-identity against a fresh re-materialization after
every patch.

Cap accounting matches ``materialize``: if the patched payloads exceed
``cap_bytes`` the view is marked capped and the caller evicts it from
the answerable pool.

:func:`patch_plan` does the same for a cached plan's answers, which
are a materialised view of its query: the codes in the replaced range
go, the query's answers under the scope are spliced in, and each
spliced answer is a copy of the post-edit node with its codes, as a
fragment decode would give it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable

from ..core.plancache import PlanEntry
from ..core.rewrite import RewriteResult
from ..errors import EncodingError
from ..matching.evaluate import evaluate
from ..storage.fragments import Fragment, FragmentStore
from ..storage.serialize import encode_dewey, encode_fragment
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import (
    DeweyCode,
    PackedCode,
    descendant_range_key,
    packed_descendant_range,
    packed_is_prefix,
)
from ..xmltree.tree import XMLNode, XMLTree
from ..core.view import View
from .delta import SubtreeDelta
from .resolver import PlanImpact

__all__ = ["FragmentPatcher", "patch_plan"]

_PACKED = attrgetter("packed")
_NODE_PACKED = attrgetter("dewey_packed")


class FragmentPatcher:
    """Patch one view's fragments in place for one delta."""

    def __init__(self, fragments: FragmentStore, document: EncodedDocument) -> None:
        self.fragments = fragments
        self.document = document

    def patch(
        self,
        view: View,
        delta: SubtreeDelta,
        encoded: dict[PackedCode, bytes],
        scope: XMLNode | None,
        answers: Iterable[XMLNode],
    ) -> bool:
        """Apply ``delta`` to ``view``'s stored fragments.

        With ``scope``, every stored fragment in the scope's packed
        range is replaced by the ``answers`` (the view evaluated under
        the scope) in that range.  ``encoded`` maps packed codes to
        payloads already encoded for this edit; it is shared by every
        view the edit patches, so each live subtree is encoded once.
        Returns the same cap verdict as ``materialize``: False means
        the view no longer fits and must leave the answerable pool.
        """
        if scope is not None:
            assert scope.dewey_packed is not None
            low, high = packed_descendant_range(scope.dewey_packed)
        elif delta.operation == "delete":
            low, high = delta.packed_range()
        else:
            low = high = b""
        merged: list[Fragment] = []
        for fragment in self.fragments.fragments(view.view_id):
            packed = fragment.packed
            if low <= packed < high:
                continue
            if packed_is_prefix(packed, delta.anchor_packed):
                payload = encoded.get(packed)
                if payload is None:
                    live = self.document.node_by_code(fragment.code)
                    if live is None:
                        raise EncodingError(
                            f"fragment root {fragment.code} vanished during patch"
                        )
                    payload = self._encode(live, encoded)
                merged.append(Fragment(fragment.code, payload))
            else:
                merged.append(fragment)
        for node in answers:
            packed_node = node.dewey_packed
            if node.dewey is not None and packed_node is not None and (
                low <= packed_node < high
            ):
                merged.append(Fragment(node.dewey, self._encode(node, encoded)))
        merged.sort(key=_PACKED)
        return self.fragments.replace(view.view_id, merged)

    def _encode(self, node: XMLNode, encoded: dict[PackedCode, bytes]) -> bytes:
        packed = node.dewey_packed
        assert node.dewey is not None and packed is not None
        payload = encoded.get(packed)
        if payload is None:
            payload = encode_dewey(node.dewey) + encode_fragment(
                node, self.document.schema
            )
            encoded[packed] = payload
        return payload


def patch_plan(
    impact: PlanImpact, delta: SubtreeDelta, tree: XMLTree
) -> PlanEntry:
    """The cached plan of ``impact`` after ``delta`` (applied to
    ``tree``): the entry itself when its answers stand, else a new
    entry whose codes and answers equal a cold derivation's.  The
    cached :class:`RewriteResult` is never mutated: callers hold it."""
    entry = impact.entry
    result = entry.result
    assert result is not None
    scope = impact.scope
    fresh: list[XMLNode] = []
    if scope is not None:
        assert scope.dewey is not None
        low = scope.dewey
        universe = [*scope.iter_subtree(), *scope.ancestors(), *impact.support]
        fresh = [
            node
            for node in evaluate(entry.pattern, tree, universe)
            if node.dewey is not None and node.dewey[: len(low)] == low
        ]
        fresh.sort(key=_NODE_PACKED)
    elif delta.operation == "delete":
        assert delta.root_code is not None
        low = delta.root_code
    else:
        return entry
    codes = result.codes
    start = bisect_left(codes, low)
    stop = bisect_left(codes, descendant_range_key(low)[1], start)
    if start == stop and not fresh:
        return entry
    answers = dict(result.answers)
    for code in codes[start:stop]:
        del answers[code]
    added: list[DeweyCode] = []
    for node in fresh:
        assert node.dewey is not None
        added.append(node.dewey)
        answers[node.dewey] = _detached_copy(node)
    return PlanEntry(
        entry.pattern,
        entry.filter_result,
        entry.selection,
        result=RewriteResult(
            codes[:start] + added + codes[stop:],
            answers=answers,
            refined=result.refined,
            extraction_view=result.extraction_view,
            joined_roots=result.joined_roots,
        ),
    )


def _detached_copy(node: XMLNode) -> XMLNode:
    """A parentless copy of ``node``'s subtree, codes included."""
    root = _copy_one(node)
    stack = [(node, root)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            twin = target.add_child(_copy_one(child))
            stack.append((child, twin))
    return root


def _copy_one(node: XMLNode) -> XMLNode:
    copy = XMLNode(node.label, text=node.text, attributes=dict(node.attributes))
    copy.dewey = node.dewey
    copy.dewey_packed = node.dewey_packed
    return copy
