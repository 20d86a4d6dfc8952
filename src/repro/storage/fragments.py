"""Materialized view fragments (Berkeley DB XML substitute).

A materialized view stores, for every answer node of its pattern, the
*fragment*: the answer node's whole subtree plus its extended Dewey
code.  The paper caps each view's materialized fragments at 128 KiB
("the same as [19]"), falling back to base-data evaluation for larger
results; :class:`FragmentStore` enforces the same cap.

Fragments are persisted in a :class:`~repro.storage.kvstore.KVStore`
under keys ``f:<view_id>:<seq>`` with a per-view manifest ``m:<view_id>``
recording the fragment count, cap state and total bytes.  Codes are kept
sorted (document order), which the holistic join relies on.

A :class:`Fragment` hands out one tree, complete and never changed
after it is published: every node carries its extended Dewey code,
stamped by the decode (:func:`~repro.storage.serialize.decode_fragment`,
from the root code and the schema the payload was written under) or
copied from the live tree by delta maintenance.  The first decode
runs under one lock, so racing readers all see the same tree.
"""

from __future__ import annotations

import threading
from itertools import chain, compress
from itertools import count as naturals
from operator import is_not
from typing import Iterable, Iterator

from ..errors import StorageError
from ..matching.evaluate import SubtreeIndex
from ..xmltree.builder import EncodedDocument
from ..xmltree.dewey import DeweyCode, PackedCode, pack_code, packed_prefixes
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLNode
from .kvstore import KVStore
from .serialize import (
    decode_dewey,
    decode_fragment,
    decode_varint,
    encode_dewey,
    encode_fragment,
    encode_varint,
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
    over at construction when delta maintenance has just encoded the
    payload from the live tree
    (:func:`~repro.storage.serialize.encode_fragment_copy`).  Either
    way every node carries its code, and the tree never changes once
    published.  A handed-over fragment is one object shared by every
    view storing its code.  The per-depth packed prefixes and the
    label index of the subtree are computed once per object and
    amortized across queries by the store's warm cache.
    """

    __slots__ = (
        "code", "packed", "_payload", "_schema", "_root", "_prefixes",
        "_subtree",
    )

    def __init__(
        self,
        code: DeweyCode,
        payload: bytes,
        schema: DocumentSchema,
        root: XMLNode | None = None,
        packed: PackedCode | None = None,
    ) -> None:
        self.code = code
        self.packed: PackedCode = pack_code(code) if packed is None else packed
        self._payload = payload
        self._schema = schema
        self._root = root
        self._prefixes: tuple[PackedCode, ...] | None = None
        self._subtree: SubtreeIndex | None = None

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
    """Fragment persistence for a set of materialized views."""

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
        #: state: soft(derived-from=store?; rebuild=_load_manifests)
        self._manifests: dict[str, tuple[int, int, bool]] = {}
        # Warm-read cache of Fragment objects (≤ cap_bytes per view, so
        # memory stays bounded) — the analogue of Berkeley DB XML's page
        # cache in the paper's setup.  Callers must not mutate the
        # returned subtrees' structure.  A fragment delta maintenance
        # re-encoded holds a copy of the document's subtree (equal to
        # a decode of its payload, and shared by every view storing
        # its code); :meth:`replace` refreshes it on each edit.
        #: state: soft(derived-from=_manifests, document?; rebuild=fragments)
        self._cache: dict[str, list[Fragment]] = {}
        self._load_manifests()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def _fragment_key(view_id: str, seq: int) -> bytes:
        return f"f:{view_id}:{seq:08d}".encode()

    @staticmethod
    def _manifest_key(view_id: str) -> bytes:
        return f"m:{view_id}".encode()

    def _load_manifests(self) -> None:
        for key, value in self.store.scan_prefix(b"m:"):
            view_id = key[2:].decode()
            count, offset = decode_varint(value, 0)
            total, offset = decode_varint(value, offset)
            capped, _ = decode_varint(value, offset)
            self._manifests[view_id] = (count, total, bool(capped))

    def _write_manifest(self, view_id: str) -> None:
        count, total, capped = self._manifests[view_id]
        payload = (
            encode_varint(count)
            + encode_varint(total)
            + encode_varint(int(capped))
        )
        self.store.put(self._manifest_key(view_id), payload)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def materialize(
        self,
        view_id: str,
        fragments: Iterator[tuple[DeweyCode, XMLNode]] | list[tuple[DeweyCode, XMLNode]],
    ) -> bool:
        """Store fragments for ``view_id`` (sorted by code).

        Returns True when everything fit under the cap; False when the
        view was *capped* — its stored fragments are discarded and the
        view is marked unmaterializable, mirroring the paper's policy of
        not using views whose un-indexed fragments would exceed the
        budget.
        """
        if view_id in self._manifests:
            raise StorageError(f"view {view_id!r} already materialized")
        entries = sorted(fragments, key=lambda item: item[0])
        schema = self.document.schema
        total = 0
        payloads: list[bytes] = []
        for code, root in entries:
            payload = encode_dewey(code) + encode_fragment(root, schema)
            total += len(payload)
            if total > self.cap_bytes:
                return self._mark_capped(view_id)
            payloads.append(payload)
        self._store_payloads(view_id, payloads, total)
        return True

    def _mark_capped(self, view_id: str) -> bool:
        self._manifests[view_id] = (0, 0, True)
        # The warm cache is keyed off the manifest; a stale entry here
        # would keep serving fragments for a view that no longer has
        # any.  Today every caller funnels through drop() first, but
        # the eviction must not depend on that remote invariant.
        self._cache.pop(view_id, None)
        self._write_manifest(view_id)
        return False

    def _store_payloads(
        self, view_id: str, payloads: list[bytes], total: int
    ) -> None:
        for seq, payload in enumerate(payloads):
            self.store.put(self._fragment_key(view_id, seq), payload)
        self._manifests[view_id] = (len(payloads), total, False)
        self._cache.pop(view_id, None)
        self._write_manifest(view_id)

    def replace(
        self, view_id: str, fragments: list[Fragment], total: int
    ) -> bool:
        """Swap a view's stored fragments for patched ones.

        The delta-maintenance counterpart of :meth:`materialize` for an
        *already materialized* view: ``fragments`` must be in packed-code
        order, with payloads (each ``encode_dewey(code) +
        encode_fragment(root, schema)``) exactly the bytes a fresh
        materialization would store, and ``total`` their summed
        :attr:`Fragment.stored_bytes` (a patch tracks it through its
        splice rather than summing every fragment).  The list becomes
        the warm cache, so fragments a patch kept stay decoded, and
        those it encoded from the live tree arrive with their trees.
        Cap accounting matches :meth:`materialize` — False marks the
        view capped and discards everything.
        """
        if total > self.cap_bytes:
            self.drop(view_id)
            return self._mark_capped(view_id)
        stored = self._cache.get(view_id)
        count = self._manifests[view_id][0]
        changed: Iterable[int] = range(len(fragments))
        if stored is not None:
            # A kept fragment at its old position needs no write; the
            # identity test runs in C across the whole list.
            changed = chain(
                compress(naturals(), map(is_not, stored, fragments)),
                range(len(stored), len(fragments)),
            )
        for seq in changed:
            self.store.put(self._fragment_key(view_id, seq), fragments[seq].payload)
        for seq in range(len(fragments), count):
            self.store.delete(self._fragment_key(view_id, seq))
        self._manifests[view_id] = (len(fragments), total, False)
        self._cache[view_id] = fragments
        self._write_manifest(view_id)
        return True

    def drop(self, view_id: str) -> None:
        """Remove a view's fragments and manifest."""
        manifest = self._manifests.pop(view_id, None)
        self._cache.pop(view_id, None)
        if manifest is None:
            return
        count = manifest[0]
        for seq in range(count):
            self.store.delete(self._fragment_key(view_id, seq))
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
        """Return the view's fragments in document (code) order.

        Repeated reads are served from the warm cache; the returned
        subtrees are shared, so treat them as read-only.
        """
        cached = self._cache.get(view_id)
        if cached is not None:
            return cached
        manifest = self._manifests.get(view_id)
        if manifest is None or manifest[2]:
            return []
        schema = self.document.schema
        result: list[Fragment] = []
        for seq in range(manifest[0]):
            payload = self.store.get(self._fragment_key(view_id, seq))
            if payload is None:
                raise StorageError(
                    f"missing fragment {seq} for view {view_id!r}"
                )
            code, _ = decode_dewey(payload, 0)
            result.append(Fragment(code, payload, schema))
        self._cache[view_id] = result
        return result

    def codes(self, view_id: str) -> list[DeweyCode]:
        """Return just the sorted fragment root codes."""
        return [fragment.code for fragment in self.fragments(view_id)]

    def view_ids(self) -> list[str]:
        return sorted(self._manifests)
