"""Tests for the storage substrate: serialization, KV store, fragments."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageCorruptionError, StorageError
from repro.storage import (
    FragmentStore,
    KVStore,
    decode_dewey,
    decode_fragment,
    decode_text,
    decode_varint,
    encode_dewey,
    encode_fragment,
    encode_text,
    encode_varint,
)
from repro.storage.serialize import encode_fragment_copy
from repro.xmltree import XMLNode, XMLTree, build_tree, encode_tree

from conftest import coded_nodes, random_tree


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21, 2**40])
    def test_roundtrip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data, 0)
        assert decoded == value
        assert offset == len(data)

    def test_rejects_negative(self):
        with pytest.raises(StorageError):
            encode_varint(-1)

    def test_truncated(self):
        with pytest.raises(StorageError):
            decode_varint(b"\x80", 0)

    @given(st.integers(0, 2**62))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value


class TestTextAndDewey:
    @given(st.text(max_size=60))
    def test_text_roundtrip(self, value):
        decoded, _ = decode_text(encode_text(value), 0)
        assert decoded == value

    @given(st.lists(st.integers(0, 10_000), min_size=0, max_size=10))
    def test_dewey_roundtrip(self, components):
        code = tuple(components)
        decoded, _ = decode_dewey(encode_dewey(code), 0)
        assert decoded == code

    def test_truncated_string(self):
        data = encode_text("hello")[:-2]
        with pytest.raises(StorageError):
            decode_text(data, 0)


def _decoded(node: XMLNode, schema) -> XMLNode:
    """``node``'s subtree through an encode and a decode."""
    data = encode_fragment(node, schema)
    again, offset = decode_fragment(data, 0, node.dewey, schema)
    assert offset == len(data)
    return again


class TestFragmentSerialization:
    def test_roundtrip_structure(self):
        tree = build_tree(("a", [("b", ["c", "d"]), "e"]))
        tree.root.attributes["id"] = "1"
        tree.root.children[1].text = "some text"
        again = _decoded(tree.root, encode_tree(tree).schema)
        assert again.structurally_equal(tree.root)
        assert coded_nodes(again) == coded_nodes(tree.root)

    def test_roundtrip_preserves_sibling_order(self):
        root = XMLNode("r")
        for label in "cba":
            root.new_child(label)
        again = _decoded(root, encode_tree(XMLTree(root)).schema)
        assert [child.label for child in again.children] == list("cba")
        assert [child.dewey for child in again.children] == [
            child.dewey for child in root.children
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_random_trees(self, seed):
        tree = random_tree(random.Random(seed), max_nodes=40)
        schema = encode_tree(tree).schema
        again = _decoded(tree.root, schema)
        assert again.structurally_equal(tree.root)
        assert coded_nodes(again) == coded_nodes(tree.root)
        for node in tree.iter_nodes():
            assert coded_nodes(_decoded(node, schema)) == coded_nodes(node)

    def test_unicode_and_escaping(self):
        node = XMLNode("α", text="ünïcode ✓", attributes={"k": "v&<>'\""})
        again = _decoded(node, encode_tree(XMLTree(node)).schema)
        assert again.structurally_equal(node)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_copy_walk_writes_encode_fragment_bytes_after_gapped_deletes(seed):
    """The one-walk encode + copy writes the bytes ``encode_fragment``
    writes, explicit components included, and its copy is the tree a
    decode of those bytes gives, codes included, sharing nothing with
    the live subtree."""
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=30, max_depth=4)
    for node in tree.iter_nodes():
        if rng.random() < 0.2:
            node.text = rng.choice(["x", "ünï", ""])
        if rng.random() < 0.2:
            node.attributes["k"] = rng.choice(["1", "v&<"])
    document = encode_tree(tree)
    schema = document.schema
    # Deletes keep the later siblings' codes, so those no longer carry
    # the smallest component: their payload records store it.
    for _ in range(rng.randint(1, 4)):
        inner = [n for n in tree.iter_nodes() if n.parent is not None]
        if len(inner) < 3:
            break
        rng.choice(inner).detach()
    for node in tree.iter_nodes():
        body, copy = encode_fragment_copy(node, schema)
        assert body == encode_fragment(node, schema)
        decoded, offset = decode_fragment(body, 0, node.dewey, schema)
        assert offset == len(body)
        assert coded_nodes(copy) == coded_nodes(decoded)
        assert coded_nodes(decoded) == coded_nodes(node)
        assert copy.parent is None
        live = {id(n) for n in node.iter_subtree()}
        live |= {id(n.attributes) for n in node.iter_subtree() if n.attributes}
        for twin in copy.iter_subtree():
            assert id(twin) not in live
            assert id(twin.attributes) not in live


def test_gapped_delete_payload_stores_an_explicit_component():
    # The property above is only as strong as its trees: a delete of
    # a first child must leave its later sibling's component explicit.
    document = encode_tree(build_tree(("b", ["c", "c"])))
    root = document.tree.root
    root.children[0].detach()
    body, copy = encode_fragment_copy(root, document.schema)
    assert body == encode_fragment(root, document.schema)
    decoded, _ = decode_fragment(body, 0, root.dewey, document.schema)
    assert decoded.children[0].dewey == (0, 1)
    assert copy.children[0].dewey == (0, 1)


class TestKVStore:
    def test_in_memory_basics(self):
        store = KVStore()
        assert store.in_memory
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert b"k" in store and b"missing" not in store
        assert len(store) == 1
        assert store.delete(b"k")
        assert not store.delete(b"k")
        assert store.get(b"k") is None

    def test_overwrite_updates_size(self):
        store = KVStore()
        store.put(b"k", b"1234")
        store.put(b"k", b"12")
        assert store.stored_bytes == len(b"k") + 2

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
        with KVStore(path) as store:
            assert store.get(b"a") is None
            assert store.get(b"b") == b"2"
            assert len(store) == 1

    def test_recovery_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"1")
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # torn partial record
        with KVStore(path) as store:
            assert store.get(b"a") == b"1"
            store.put(b"b", b"2")
        with KVStore(path) as store:
            assert store.get(b"b") == b"2"

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            store.put(b"a", b"abcdefgh")
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a payload byte under the CRC
        open(path, "wb").write(bytes(data))
        with pytest.raises(StorageCorruptionError):
            KVStore(path)

    def test_compaction_reclaims_space(self, tmp_path):
        path = str(tmp_path / "db")
        with KVStore(path) as store:
            for round_ in range(20):
                store.put(b"k", f"value-{round_}".encode())
            before = store.file_bytes
            store.compact()
            after = store.file_bytes
            assert after < before
            assert store.get(b"k") == b"value-19"
        with KVStore(path) as store:
            assert store.get(b"k") == b"value-19"

    def test_scan_prefix(self):
        store = KVStore()
        store.put(b"x:1", b"a")
        store.put(b"x:2", b"b")
        store.put(b"y:1", b"c")
        found = dict(store.scan_prefix(b"x:"))
        assert found == {b"x:1": b"a", b"x:2": b"b"}

    @pytest.mark.parametrize("persistent", [False, True])
    def test_random_operations_match_dict(self, tmp_path, persistent):
        path = str(tmp_path / "db") if persistent else None
        rng = random.Random(11)
        store = KVStore(path)
        model: dict[bytes, bytes] = {}
        for _ in range(300):
            key = f"k{rng.randrange(20)}".encode()
            action = rng.random()
            if action < 0.6:
                value = os.urandom(rng.randrange(0, 30))
                store.put(key, value)
                model[key] = value
            elif action < 0.8:
                assert store.get(key) == model.get(key)
            else:
                assert store.delete(key) == (key in model)
                model.pop(key, None)
        assert {k: store.get(k) for k in model} == model
        assert len(store) == len(model)
        store.close()


class _CountingKV(KVStore):
    """An in-memory store that counts the reads of each key."""

    def __init__(self):
        super().__init__()
        self.reads: dict[bytes, int] = {}

    def get(self, key):
        self.reads[key] = self.reads.get(key, 0) + 1
        return super().get(key)

    def fragment_reads(self) -> list[int]:
        return sorted(
            count for key, count in self.reads.items() if key.startswith(b"f:")
        )


class TestFragmentStore:
    def _entries(self, tree):
        doc = encode_tree(tree)
        return [(node.dewey, node) for node in tree.iter_nodes()
                if node.label == "b"], doc

    def test_materialize_and_read_back(self):
        tree = build_tree(("r", [("a", [("b", ["c"])]), ("b", ["d"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore(doc)
        assert store.materialize("v", entries)
        fragments = store.fragments("v")
        assert [f.code for f in fragments] == sorted(e[0] for e in entries)
        assert fragments[0].root.label == "b"
        assert store.fragment_count("v") == 2
        assert store.fragment_bytes("v") > 0
        assert store.is_materialized("v")

    def test_cap_marks_view_unusable(self):
        tree = build_tree(("r", [("b", ["c"] * 50)]))
        entries, doc = self._entries(tree)
        store = FragmentStore(doc, cap_bytes=10)
        assert not store.materialize("big", entries)
        assert store.is_capped("big")
        assert not store.is_materialized("big")
        assert store.fragments("big") == []

    def test_duplicate_view_rejected(self):
        store = FragmentStore(encode_tree(build_tree(("r", ["b"]))))
        store.materialize("v", [])
        with pytest.raises(StorageError):
            store.materialize("v", [])

    def test_drop(self):
        tree = build_tree(("r", [("b", ["c"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore(doc)
        store.materialize("v", entries)
        store.drop("v")
        assert store.fragments("v") == []
        assert store.view_ids() == []
        store.drop("v")  # idempotent

    def test_manifest_writers_evict_warm_cache(self):
        # White-box regression for the L15 gap: a manifest write
        # (store or mark-capped) must set or drop the view's fragment
        # list, not rely on every caller routing through drop() first.
        tree = build_tree(("r", [("b", ["c"])]))
        entries, doc = self._entries(tree)
        store = FragmentStore(doc)
        sentinel = object()
        store._lists["v"] = [sentinel]
        store.materialize("v", entries)
        fragments = store.fragments("v")
        assert sentinel not in fragments
        assert [f.code for f in fragments] == [e[0] for e in entries]

        capped = FragmentStore(doc, cap_bytes=1)
        capped._lists["big"] = [sentinel]
        assert not capped.materialize("big", entries)
        assert capped.fragments("big") == []

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "frags")
        tree = build_tree(("r", [("b", ["c"]), ("b", [])]))
        entries, doc = self._entries(tree)
        with KVStore(path) as kv:
            store = FragmentStore(doc, kv)
            store.materialize("v", entries)
        with KVStore(path) as kv:
            store = FragmentStore(doc, kv)
            assert store.is_materialized("v")
            assert len(store.fragments("v")) == 2
            assert store.fragments("v")[0].root.label == "b"

    def test_racing_first_reads_build_one_list(self):
        import threading

        tree = build_tree(("r", [("b", ["c"]), ("b", []), ("b", ["d"])]))
        entries, doc = self._entries(tree)
        kv = _CountingKV()
        FragmentStore(doc, kv).materialize("v", entries)
        store = FragmentStore(doc, kv)  # reopened: the open loads the list
        assert kv.fragment_reads() == [1] * len(entries)
        readers = 4
        barrier = threading.Barrier(readers)
        lists = []

        def first_read():
            barrier.wait()
            lists.append(store.fragments("v"))

        pool = [threading.Thread(target=first_read) for _ in range(readers)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(lists) == readers
        assert all(fragments is lists[0] for fragments in lists)
        assert [f.code for f in lists[0]] == [e[0] for e in entries]
        assert kv.fragment_reads() == [1] * len(entries)

    def test_open_rejects_keys_that_disagree_with_the_manifest(self):
        tree = build_tree(("r", [("b", ["c"]), ("b", [])]))
        entries, doc = self._entries(tree)
        kv = KVStore()
        FragmentStore(doc, kv).materialize("v", entries)
        (key, _payload), _ = kv.scan_prefix(b"f:")
        kv.delete(key)
        with pytest.raises(StorageError, match="manifest lists 2"):
            FragmentStore(doc, kv)

    def test_view_ids_that_extend_each_other_keep_apart(self):
        # "v" is a prefix of "v1"; the keys of one must not read as
        # the other's at open or on drop.
        tree = build_tree(("r", [("b", ["c"]), ("b", [])]))
        entries, doc = self._entries(tree)
        kv = KVStore()
        store = FragmentStore(doc, kv)
        store.materialize("v", entries[:1])
        store.materialize("v1", entries)
        store.drop("v")
        reopened = FragmentStore(doc, kv)
        assert reopened.fragments("v") == []
        assert reopened.codes("v1") == [e[0] for e in entries]
        assert [f.payload for f in reopened.fragments("v1")] == [
            f.payload for f in store.fragments("v1")
        ]

    def test_stored_fragment_decodes_with_the_document_codes(self):
        # Deleting the first c leaves the second one's component
        # non-smallest, so its payload record stores it explicitly.
        doc = encode_tree(build_tree(
            ("r", [("b", ["c", ("c", ["d"]), "e"]), ("b", ["c"])])
        ))
        doc.tree.root.children[0].children[0].detach()
        entries = [
            (node.dewey, node)
            for node in doc.tree.iter_nodes()
            if node.label == "b"
        ]
        gapped = entries[0][1]
        assert encode_fragment(gapped, doc.schema) != encode_fragment(gapped)
        kv = KVStore()
        FragmentStore(doc, kv).materialize("v", entries)
        fragments = FragmentStore(doc, kv).fragments("v")
        assert [fragment.built_root for fragment in fragments] == [None, None]
        for fragment, (code, node) in zip(fragments, entries):
            assert fragment.root.parent is None
            assert fragment.root.dewey == code
            assert coded_nodes(fragment.root) == coded_nodes(node)
            assert fragment.built_root is fragment.root

    def test_codes_sorted(self):
        tree = build_tree(("r", [("b", []), ("a", [("b", [])])]))
        doc = encode_tree(tree)
        entries = [
            (node.dewey, node)
            for node in reversed(list(tree.iter_nodes()))
            if node.label == "b"
        ]
        store = FragmentStore(doc)
        store.materialize("v", entries)
        codes = store.codes("v")
        assert codes == sorted(codes)


def test_reads_after_registration_make_no_kv_reads(book_doc):
    """A view's fragment list is built when it is written (and loaded
    when a store is reopened), so reads, cold or warm, read nothing
    from the KV store."""
    from repro import MaterializedViewSystem

    kv = _CountingKV()
    system = MaterializedViewSystem(book_doc, store=kv)
    system.register_views(
        {"V1": "//s[t]/p", "V2": "//s[f]/t", "V4": "//s[p]/f", "V5": "//s"}
    )
    queries = ["//s[f//i][t]/p", "//s[t]/p", "//s/f/i", "//s[p]/f"]
    kv.reads.clear()
    for _ in range(2):
        for query in queries:
            for strategy in ("HV", "MN"):
                system.try_answer(query, strategy)
    assert kv.reads == {}
    reopened = MaterializedViewSystem.reopen(book_doc, kv)
    kv.reads.clear()
    for query in queries:
        outcome = reopened.answer(query)
        assert outcome.codes == reopened.direct_codes(query)
    assert kv.reads == {}


class TestKVStoreConcurrency:
    """The store serialises its append/put path: racing writers share
    one OS file handle (seek-to-end + write), so without the internal
    lock they could interleave and tear a record mid-log."""

    def test_concurrent_writers_never_tear_a_record(self, tmp_path):
        import threading

        path = str(tmp_path / "concurrent.kv")
        writers, per_writer = 8, 50
        with KVStore(path) as store:
            def writer(index):
                for serial in range(per_writer):
                    key = f"w{index}:{serial}".encode()
                    value = (f"payload-{index}-{serial}-".encode()
                             + bytes([index]) * (32 + serial))
                    store.put(key, value)
                    assert store.get(key) is not None

            pool = [threading.Thread(target=writer, args=(index,))
                    for index in range(writers)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert len(store) == writers * per_writer

        # Recovery replays the whole log: any torn or interleaved
        # record would raise StorageError/StorageCorruptionError here.
        with KVStore(path) as store:
            assert len(store) == writers * per_writer
            for index in range(writers):
                for serial in range(per_writer):
                    key = f"w{index}:{serial}".encode()
                    expected = (f"payload-{index}-{serial}-".encode()
                                + bytes([index]) * (32 + serial))
                    assert store.get(key) == expected

    def test_concurrent_readers_and_writers_round_trip(self, tmp_path):
        import threading

        path = str(tmp_path / "mixed.kv")
        stop = threading.Event()
        errors = []
        with KVStore(path) as store:
            store.put(b"hot", b"v0")

            def reader():
                try:
                    while not stop.is_set():
                        value = store.get(b"hot")
                        assert value is not None
                        assert value.startswith(b"v")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            pool = [threading.Thread(target=reader) for _ in range(4)]
            for thread in pool:
                thread.start()
            for version in range(200):
                store.put(b"hot", f"v{version}".encode())
            stop.set()
            for thread in pool:
                thread.join()
        assert not errors, errors
