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
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from ..errors import EncodingError
from ..storage.fragments import Fragment, FragmentStore
from ..storage.serialize import encode_dewey, encode_fragment
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import PackedCode, packed_descendant_range, packed_is_prefix
from ..xmltree.tree import XMLNode
from ..core.view import View
from .delta import SubtreeDelta

__all__ = ["FragmentPatcher"]

_PACKED = attrgetter("packed")


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
