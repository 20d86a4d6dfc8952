"""Fragment patching: splice a delta into stored view fragments.

The patcher rewrites a view's :class:`FragmentStore` entry without
re-evaluating the pattern over the whole document.  Three ingredients,
all keyed on packed Dewey byte order (which *is* document order):

* **range delete** — fragments whose packed code falls inside the
  replaced range are dropped: the splice scope's range, or else the
  deleted subtree's ``[low, high)``;
* **ancestor splice** — fragments rooted at an ancestor of the edit
  hold bytes from inside the edited region (their answer-set
  membership is unchanged — the resolver proved it).  Each is rebuilt
  from its pre-edit :class:`Fragment` by
  :meth:`Fragment.spliced <repro.storage.fragments.Fragment.spliced>`:
  new nodes and record heads on the path from its root to the edit's
  parent only, every other subtree's bytes sliced from the old payload
  and its nodes shared with the old tree, so the cost follows the path
  depth and the path nodes' fan-out, not the fragment's size;
* **splice insert** — the caller evaluates the view under the scope the
  resolver chose (:mod:`repro.delta.resolver`); the answers that land
  inside the scope's packed range are encoded from the live tree and
  merged.

A fragment encoded from the live tree (a spliced-in answer, or an
ancestor whose tree was never built, e.g. after a reopen) is built by
one walk (:func:`~repro.storage.serialize.encode_fragment_copy`) that
writes its payload and a parentless copy of the subtree carrying every
node's codes.  Either way a packed code is written once per edit:
every view storing that code holds the same :class:`Fragment`, so its
tree and label index are built at most once and no later read decodes
it.
Everything else reuses the stored fragment, payload bytes and decoded
subtree included, and is not written to the KV store again.  The
splice works by bisection on the view's code-ordered list: one cut
for the replaced range and one probe per depth of the anchor for the
ancestor fragments, so an edit does not visit every stored fragment.
The result is exactly the code-ordered layout
:meth:`FragmentStore.materialize` produces — the
``XMVR_CHECK=1`` contract asserts byte-identity against a fresh
re-materialization after every patch, that every built tree equals
a decode of its payload, and that the KV store holds exactly the list.

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
from types import MappingProxyType
from typing import Iterable

from ..core.plancache import PlanEntry
from ..core.rewrite import RewriteResult
from ..errors import EncodingError
from ..matching.evaluate import evaluate
from ..storage.fragments import Fragment, FragmentStore
from ..storage.serialize import (
    SubtreeSplice,
    copy_subtree,
    encode_dewey,
    encode_fragment_copy,
)
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import (
    DeweyCode,
    PackedCode,
    descendant_range_key,
    packed_descendant_range,
    packed_prefixes,
)
from ..xmltree.tree import XMLNode, XMLTree
from ..core.view import View
from .delta import SubtreeDelta
from .resolver import PlanImpact

__all__ = ["FragmentPatcher", "patch_plan"]

_PACKED = attrgetter("packed")
_NODE_PACKED = attrgetter("dewey_packed")
_STORED_BYTES = attrgetter("stored_bytes")


class FragmentPatcher:
    """Patch one view's fragments in place for one delta."""

    def __init__(self, fragments: FragmentStore, document: EncodedDocument) -> None:
        self.fragments = fragments
        self.document = document

    def patch(
        self,
        view: View,
        delta: SubtreeDelta,
        encoded: dict[PackedCode, Fragment],
        scope: XMLNode | None,
        answers: Iterable[XMLNode],
    ) -> bool:
        """Apply ``delta`` to ``view``'s stored fragments.

        With ``scope``, every stored fragment in the scope's packed
        range is replaced by the ``answers`` (the view evaluated under
        the scope) in that range.  ``encoded`` maps packed codes to
        the fragments already written for this edit, spliced or
        encoded from the live tree; it is shared by every view the
        edit patches, so each code is written once and every view
        storing it holds the same :class:`Fragment`.  Returns
        the same cap verdict as ``materialize``: False means the view
        no longer fits and must leave the answerable pool.
        """
        if scope is not None:
            assert scope.dewey_packed is not None
            low, high = packed_descendant_range(scope.dewey_packed)
        elif delta.operation == "delete":
            low, high = delta.packed_range()
        else:
            low = high = b""
        stored = self.fragments.fragments(view.view_id)
        start = bisect_left(stored, low, key=_PACKED)
        stop = bisect_left(stored, high, start, key=_PACKED)
        fresh = sorted(
            (
                node
                for node in answers
                if node.dewey is not None
                and node.dewey_packed is not None
                and low <= node.dewey_packed < high
            ),
            key=_NODE_PACKED,
        )
        # Only these reach the KV store: cut ones go, written ones are put.
        cut = stored[start:stop]
        written = [self._fragment(node, encoded) for node in fresh]
        merged = stored[:start] + written + stored[stop:]
        # The stored total, tracked through the splice.
        total = (
            self.fragments.fragment_bytes(view.view_id)
            + sum(map(_STORED_BYTES, written))
            - sum(map(_STORED_BYTES, cut))
        )
        # Fragments rooted at an ancestor-or-self of the anchor outside
        # the replaced range hold the edited content: one bisect per
        # depth finds them, as the resolver's containment test does.
        # Each is spliced from its stored bytes and tree, or encoded
        # from the live subtree when its tree was never built.
        index = 0
        splice = SubtreeSplice(
            self.document.schema,
            delta.parent.dewey_packed,  # type: ignore[arg-type]
            delta.root_packed if delta.operation == "delete" else None,
            delta.subtree_root if delta.operation == "insert" else None,
        )
        for prefix in packed_prefixes(delta.anchor_packed):
            index = bisect_left(merged, prefix, index, key=_PACKED)
            if index == len(merged):
                break
            old = merged[index]
            if old.packed != prefix or low <= prefix < high:
                continue
            fragment = encoded.get(prefix)
            if fragment is None:
                fragment = old.spliced(splice)
                if fragment is None:
                    live = self.document.node_by_code(old.code)
                    if live is None:
                        raise EncodingError(
                            f"fragment root {old.code} vanished during patch"
                        )
                    fragment = self._fragment(live, encoded)
                encoded[prefix] = fragment
            merged[index] = fragment
            written.append(fragment)
            total += fragment.stored_bytes - old.stored_bytes
        return self.fragments.replace(view.view_id, merged, total, cut, written)

    def _fragment(
        self, node: XMLNode, encoded: dict[PackedCode, Fragment]
    ) -> Fragment:
        """The fragment rooted at live ``node``, encoded once per edit:
        its payload and its code-stamped copy come from one walk."""
        packed = node.dewey_packed
        assert node.dewey is not None and packed is not None
        fragment = encoded.get(packed)
        if fragment is None:
            schema = self.document.schema
            body, root = encode_fragment_copy(node, schema)
            fragment = Fragment(
                node.dewey, encode_dewey(node.dewey) + body, schema, root, packed
            )
            encoded[packed] = fragment
        return fragment


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
        answers[node.dewey] = copy_subtree(node)
    return PlanEntry(
        entry.pattern,
        entry.filter_result,
        entry.selection,
        result=RewriteResult(
            codes[:start] + tuple(added) + codes[stop:],
            answers=MappingProxyType(answers),
            refined=result.refined,
            extraction_view=result.extraction_view,
            joined_roots=result.joined_roots,
        ),
    )
