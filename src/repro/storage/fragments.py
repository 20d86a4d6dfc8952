"""Materialized view fragments (Berkeley DB XML substitute).

A materialized view stores, for every answer node of its pattern, the
*fragment*: the answer node's whole subtree plus its extended Dewey
code.  The paper caps each view's materialized fragments at 128 KiB
("the same as [19]"), falling back to base-data evaluation for larger
results; :class:`FragmentStore` enforces the same cap.

Each view's fragments are one in-memory list of :class:`Fragment`
objects, sorted by code (document order, which the holistic join
relies on): the only copy reads use.  The list is built when the view
is written, and written through to a
:class:`~repro.storage.kvstore.KVStore`: each fragment under a key
made of the length-prefixed view id and its packed code, which no
edit shifts, and a per-view manifest ``m:<view_id>`` recording the
fragment count, cap state and total bytes.  Opening a store loads
every view's list in one pass over the KV store.

A :class:`Fragment` hands out one tree, complete and unchanged while
readers can reach it: every node carries its extended Dewey code,
stamped by the decode (:func:`~repro.storage.serialize.decode_fragment`,
from the root code and the schema the payload was written under),
copied from the live tree, or carried over by a splice.  The first
decode runs under one lock, so racing readers all see the same tree.
An edit inside the subtree retires the fragment
(:meth:`Fragment.spliced`): the new fragment's tree shares every
subtree off the edited path with the old one, and those subtrees are
re-pointed at the new path nodes.  Edits run under the writer gate,
which drains readers first, so no read is in flight when a tree
changes, and no view lists a retired fragment afterwards.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from ..errors import StorageError
from ..matching.evaluate import SubtreeIndex
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import DeweyCode, PackedCode, pack_code, packed_prefixes
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLNode
from .kvstore import KVStore
from .serialize import (
    SubtreeSplice,
    decode_dewey,
    decode_fragment,
    decode_varint,
    encode_dewey,
    encode_fragment,
    encode_varint,
    subtree_lengths,
)

__all__ = ["Fragment", "FragmentStore", "DEFAULT_FRAGMENT_CAP"]

#: Paper setting: 128 KiB of materialized fragments per view.
DEFAULT_FRAGMENT_CAP = 128 * 1024

#: Serialises the first decode of every fragment (:attr:`Fragment.root`):
#: two racing decodes would publish two trees, and a reader could
#: then join over one and extract from the other.  Reads of a built
#: tree take no lock.
_DECODE_LOCK = threading.Lock()


class Fragment:
    """One materialized fragment: root code, stored bytes and subtree.

    ``packed``, the order-preserving bytes of the root code, is filled
    at construction: it is the key of every bisect and sort over a
    view's fragments.  The subtree is decoded from the payload, under
    ``schema`` (the one it was written under), on first use, or handed
    over at construction when delta maintenance has just written the
    payload, spliced from the fragment it replaces (:meth:`spliced`)
    or encoded from the live tree
    (:func:`~repro.storage.serialize.encode_fragment_copy`).  Either
    way every node carries its code.  A handed-over fragment is one
    object shared by every view storing its code.  The per-depth
    packed prefixes and the label index of the subtree are computed
    once per object and amortized across queries by the view's
    fragment list; the subtree byte lengths a splice slices by are
    built by the first splice and handed down the fragment's lineage.
    """

    __slots__ = (
        "code", "packed", "_payload", "_schema", "_root", "_prefixes",
        "_subtree", "_lengths",
    )

    def __init__(
        self,
        code: DeweyCode,
        payload: bytes,
        schema: DocumentSchema,
        root: XMLNode | None = None,
        packed: PackedCode | None = None,
        lengths: dict[PackedCode, int] | None = None,
    ) -> None:
        self.code = code  #: state: hard
        #: state: hard
        self.packed: PackedCode = pack_code(code) if packed is None else packed
        self._payload = payload  #: state: hard
        self._schema = schema  #: state: hard
        #: state: soft(derived-from=_payload, _schema; rebuild=root)
        self._root = root
        #: state: soft(derived-from=packed; rebuild=prefixes)
        self._prefixes: tuple[PackedCode, ...] | None = None
        #: state: soft(derived-from=_payload, _schema; rebuild=subtree_index)
        self._subtree: SubtreeIndex | None = None
        # Each node's subtree byte length in the payload, by packed
        # code: what a splice slices by.  Built by the first splice of
        # a lineage and carried to the fragment it makes.
        #: state: soft(derived-from=_payload; rebuild=spliced)
        self._lengths = lengths

    @property
    def root(self) -> XMLNode:
        """The fragment subtree root, decoded at most once."""
        root = self._root
        if root is None:
            with _DECODE_LOCK:
                root = self._root
                if root is None:
                    _code, offset = decode_dewey(self._payload, 0)
                    root, _ = decode_fragment(
                        self._payload, offset, self.code, self._schema
                    )
                    self._root = root
        return root

    @property
    def built_root(self) -> XMLNode | None:
        """The subtree if it is already built (decoded or handed
        over), else None; never decodes."""
        return self._root

    @property
    def prefixes(self) -> tuple[PackedCode, ...]:
        """Packed prefixes of the root code, shortest first — the join's
        replacement for per-placement ``code[:k]`` tuple slicing."""
        if self._prefixes is None:
            self._prefixes = packed_prefixes(self.packed)
        return self._prefixes

    def subtree_index(self) -> SubtreeIndex:
        """Label postings over the decoded subtree, built once; drives
        refinement and extraction without rescanning the fragment."""
        if self._subtree is None:
            self._subtree = SubtreeIndex(self.root)
        return self._subtree

    def spliced(self, splice: SubtreeSplice) -> "Fragment | None":
        """This fragment after ``splice``, an edit inside its subtree,
        built from the stored payload and tree by
        :meth:`SubtreeSplice.apply`; None when the tree is not built
        or the payload was written under another schema, so the caller
        encodes the live subtree instead.

        The new fragment takes over the subtree lengths, and this one
        is retired: its tree shares subtrees with the new one, which
        hang under the new path nodes.  Only an edit runs this, under
        the writer gate, with no reader in flight.
        """
        root = self._root
        if root is None or self._schema is not splice.schema:
            return None
        lengths = self._lengths
        # Carried to the new fragment, and dropped here even if the
        # splice fails half-way through updating it.
        self._lengths = None
        if lengths is None:
            lengths = subtree_lengths(
                self._payload, decode_dewey(self._payload, 0)[1], root
            )
        payload, tree = splice.apply(self._payload, root, lengths)
        return Fragment(
            self.code, payload, self._schema, tree, self.packed, lengths
        )

    @property
    def stored_bytes(self) -> int:
        return len(self._payload)

    @property
    def payload(self) -> bytes:
        """The exact stored bytes (``encode_dewey(code)`` followed by
        the fragment encoding) — reused verbatim when a delta patch
        leaves this fragment untouched."""
        return self._payload


class FragmentStore:
    """Fragment persistence for a set of materialized views.

    A read is a dict lookup: it neither touches the KV store nor takes
    a lock.  Each write replaces a view's list whole, so a reader holds
    the old list or the new one.
    """

    def __init__(self, document: EncodedDocument,
                 store: KVStore | None = None,
                 cap_bytes: int = DEFAULT_FRAGMENT_CAP):
        #: The document the fragments are cut from: its (current)
        #: schema is the one the payloads are written under, so
        #: :meth:`materialize` stores the components a delete left
        #: non-smallest (:func:`encode_fragment`) and a read decodes
        #: every code back.
        self.document = document  #: state: hard
        self.store = store if store is not None else KVStore()  #: state: hard
        self.cap_bytes = cap_bytes  #: state: hard
        #: view_id -> (count, total_bytes, capped)
        #: state: soft(derived-from=store?; rebuild=_load)
        self._manifests: dict[str, tuple[int, int, bool]] = {}
        # Each materialized view's fragments in code order (≤ cap_bytes
        # per view).  A fragment delta maintenance re-encoded holds a
        # copy of the document's subtree, shared by every view storing
        # its code.
        #: state: soft(derived-from=_manifests, document?; rebuild=_load)
        self._lists: dict[str, list[Fragment]] = {}
        self._load()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def _fragment_prefix(view_id: str) -> bytes:
        """The prefix of every fragment key of ``view_id``; a packed
        code completes the key.  The view id is length-prefixed, so no
        view's keys extend another's."""
        name = view_id.encode()
        return b"f:" + encode_varint(len(name)) + name

    @staticmethod
    def _manifest_key(view_id: str) -> bytes:
        return f"m:{view_id}".encode()

    def _load(self) -> None:
        """Read every manifest, then every view's fragment list in one
        pass over the fragment keys; a view whose keys disagree with
        its manifest's count raises :class:`StorageError`."""
        for key, value in self.store.scan_prefix(b"m:"):
            self._manifests[key[2:].decode()] = _decode_manifest(value)
        found: dict[str, list[tuple[PackedCode, bytes]]] = {}
        for key, payload in self.store.scan_prefix(b"f:"):
            length, offset = decode_varint(key, 2)
            view_id = key[offset : offset + length].decode()
            found.setdefault(view_id, []).append((key[offset + length :], payload))
        schema = self.document.schema
        for view_id, (count, _total, capped) in self._manifests.items():
            entries = sorted(found.pop(view_id, ()))
            if len(entries) != count:
                raise StorageError(
                    f"view {view_id!r} has {len(entries)} stored "
                    f"fragment(s) but its manifest lists {count}"
                )
            if not capped:
                self._lists[view_id] = [
                    Fragment(decode_dewey(payload, 0)[0], payload, schema,
                             packed=packed)
                    for packed, payload in entries
                ]
        if found:
            raise StorageError(
                f"fragments stored for views without a manifest: {sorted(found)}"
            )

    def _write_manifest(self, view_id: str) -> None:
        payload = b"".join(map(encode_varint, self._manifests[view_id]))
        self.store.put(self._manifest_key(view_id), payload)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def materialize(
        self,
        view_id: str,
        fragments: Iterator[tuple[DeweyCode, XMLNode]] | list[tuple[DeweyCode, XMLNode]],
    ) -> bool:
        """Store fragments for ``view_id``: ``(code, node)`` pairs,
        ``code`` the node's own, in any order.

        Returns True when everything fit under the cap; False when the
        view was *capped* — nothing is stored and the view is marked
        unmaterializable, mirroring the paper's policy of not using
        views whose un-indexed fragments would exceed the budget.
        """
        if view_id in self._manifests:
            raise StorageError(f"view {view_id!r} already materialized")
        entries = sorted(fragments, key=lambda item: item[0])
        schema = self.document.schema
        total = 0
        written: list[Fragment] = []
        for code, root in entries:
            payload = encode_dewey(code) + encode_fragment(root, schema)
            total += len(payload)
            if total > self.cap_bytes:
                return self._mark_capped(view_id)
            written.append(
                Fragment(code, payload, schema, packed=root.dewey_packed)
            )
        return self.replace(view_id, written, total, (), written)

    def _mark_capped(self, view_id: str) -> bool:
        self._manifests[view_id] = (0, 0, True)
        self._lists.pop(view_id, None)
        self._write_manifest(view_id)
        return False

    def replace(
        self,
        view_id: str,
        fragments: list[Fragment],
        total: int,
        cut: Iterable[Fragment],
        written: Iterable[Fragment],
    ) -> bool:
        """Make ``fragments`` the view's list and write it through.

        ``fragments`` must be in packed-code order, with payloads (each
        ``encode_dewey(code) + encode_fragment(root, schema)``) exactly
        the bytes a fresh materialization would store, and ``total``
        their summed :attr:`Fragment.stored_bytes` (a patch tracks it
        through its splice rather than summing every fragment).
        ``cut`` (fragments of the old list gone from the new one) are
        deleted from the KV store, then ``written`` (those new to it)
        are put — in that order, as a written fragment may take a cut
        one's code — and the manifest is rewritten once.  Cap
        accounting matches :meth:`materialize` — False marks the view
        capped and discards everything.
        """
        if total > self.cap_bytes:
            self.drop(view_id)
            return self._mark_capped(view_id)
        prefix = self._fragment_prefix(view_id)
        for fragment in cut:
            self.store.delete(prefix + fragment.packed)
        for fragment in written:
            self.store.put(prefix + fragment.packed, fragment.payload)
        self._manifests[view_id] = (len(fragments), total, False)
        self._lists[view_id] = fragments
        self._write_manifest(view_id)
        return True

    def drop(self, view_id: str) -> None:
        """Remove a view's fragments and manifest: every key under the
        view's fragment prefix, listed or not, so the keys of a write
        that failed half-way go too."""
        manifest = self._manifests.pop(view_id, None)
        self._lists.pop(view_id, None)
        if manifest is None:
            return
        prefix = self._fragment_prefix(view_id)
        for key in self.store.keys():
            if key.startswith(prefix):
                self.store.delete(key)
        self.store.delete(self._manifest_key(view_id))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def is_materialized(self, view_id: str) -> bool:
        manifest = self._manifests.get(view_id)
        return manifest is not None and not manifest[2]

    def is_capped(self, view_id: str) -> bool:
        manifest = self._manifests.get(view_id)
        return manifest is not None and manifest[2]

    def fragment_count(self, view_id: str) -> int:
        manifest = self._manifests.get(view_id)
        return manifest[0] if manifest else 0

    def fragment_bytes(self, view_id: str) -> int:
        """Total stored bytes for a view — the heuristic selector's
        'smaller materialized fragments' signal."""
        manifest = self._manifests.get(view_id)
        return manifest[1] if manifest else 0

    def fragments(self, view_id: str) -> list[Fragment]:
        """Return the view's fragments in document (code) order, empty
        for a view without any (a capped one included).  The list and
        its subtrees are shared, so treat them as read-only."""
        return self._lists.get(view_id, [])

    def stored(
        self, view_id: str
    ) -> tuple[dict[PackedCode, bytes], tuple[int, int, bool] | None]:
        """What the KV store holds for ``view_id``, read back from it:
        the fragment payloads by packed code, and the manifest (None
        without one).  For checking the write-through; reads never
        call it."""
        prefix = self._fragment_prefix(view_id)
        payloads = {
            key[len(prefix) :]: payload
            for key, payload in self.store.scan_prefix(prefix)
        }
        value = self.store.get(self._manifest_key(view_id))
        return payloads, None if value is None else _decode_manifest(value)

    def codes(self, view_id: str) -> list[DeweyCode]:
        """Return just the sorted fragment root codes."""
        return [fragment.code for fragment in self.fragments(view_id)]

    def view_ids(self) -> list[str]:
        return sorted(self._manifests)


def _decode_manifest(value: bytes) -> tuple[int, int, bool]:
    """A manifest's ``(count, total_bytes, capped)``."""
    count, offset = decode_varint(value, 0)
    total, offset = decode_varint(value, offset)
    capped, _ = decode_varint(value, offset)
    return count, total, bool(capped)
