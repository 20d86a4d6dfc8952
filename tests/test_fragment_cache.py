"""Tests for the fragment store's per-view fragment lists, which every
read shares, and related behavior."""

from repro.matching import evaluate
from repro.storage import FragmentStore, KVStore
from repro.xmltree import build_tree, encode_tree


def _materialized_store(spec, view_expr):
    from repro.core import View

    doc = encode_tree(build_tree(spec))
    store = FragmentStore(doc)
    view = View.from_xpath("V", view_expr)
    answers = evaluate(view.pattern, doc.tree)
    store.materialize("V", [(n.dewey, n) for n in answers])
    return doc, store


class TestWarmCache:
    def test_second_read_returns_same_objects(self):
        _doc, store = _materialized_store(
            ("r", [("a", ["b"]), ("a", ["b"])]), "//a"
        )
        first = store.fragments("V")
        second = store.fragments("V")
        assert first is second

    def test_cache_invalidated_on_drop(self):
        _doc, store = _materialized_store(("r", [("a", ["b"])]), "//a")
        store.fragments("V")
        store.drop("V")
        assert store.fragments("V") == []

    def test_cached_roots_keep_reencoded_codes(self):
        """Cached fragment trees carry their Dewey codes from the
        decode; later reads over them stay consistent."""
        from repro import MaterializedViewSystem

        doc = encode_tree(build_tree(
            ("r", [("s", ["t", ("p", ["q"])]), ("s", ["t", "p"])])
        ))
        system = MaterializedViewSystem(doc)
        system.register_view("V", "//s[t]/p")
        first = system.answer("//s[t]/p")
        second = system.answer("//s[t]/p[q]")
        third = system.answer("//s[t]/p")
        assert first.codes == third.codes
        assert second.codes == system.direct_codes("//s[t]/p[q]")

    def test_cache_not_shared_between_views(self):
        from repro.core import View

        doc = encode_tree(build_tree(("r", [("a", ["b"]), ("c", ["d"])])))
        store = FragmentStore(doc)
        for view_id, expr in (("VA", "//a"), ("VC", "//c")):
            view = View.from_xpath(view_id, expr)
            answers = evaluate(view.pattern, doc.tree)
            store.materialize(view_id, [(n.dewey, n) for n in answers])
        assert store.fragments("VA")[0].root.label == "a"
        assert store.fragments("VC")[0].root.label == "c"

    def test_reopen_from_disk_bypasses_stale_cache(self, tmp_path):
        path = str(tmp_path / "frags.db")
        from repro.core import View

        doc = encode_tree(build_tree(("r", [("a", ["b"])])))
        with KVStore(path) as kv:
            store = FragmentStore(doc, kv)
            view = View.from_xpath("V", "//a")
            answers = evaluate(view.pattern, doc.tree)
            store.materialize("V", [(n.dewey, n) for n in answers])
            store.fragments("V")  # warm
        with KVStore(path) as kv:
            fresh = FragmentStore(doc, kv)
            fragments = fresh.fragments("V")
            assert len(fragments) == 1
            assert fragments[0].root.label == "a"
