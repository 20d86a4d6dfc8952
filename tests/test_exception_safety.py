"""Exception-safety regressions for the answering pipeline.

Each test seeds a failure xmvrlint flagged in the pre-fix code (rule
L7, and the since-retired L6, whose check L15 now carries): an
operation that mutates answering state and then raises must not leave
behind a warm plan cache (or a half-registered view) derived from the
pre-mutation state.  All of these fail against the pre-fix
ordering (invalidate-last) and pass with invalidate-first plus the
explicit cleanup handlers.
"""

import pytest

from repro import MaterializedViewSystem, encode_tree, parse_xpath
from repro.delta import DocumentEditor
from repro.xmltree import XMLNode, build_tree


def _book_system() -> MaterializedViewSystem:
    doc = encode_tree(build_tree(
        ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])])
    ))
    system = MaterializedViewSystem(doc)
    system.register_view("V1", "//s[t]/p")
    system.register_view("V2", "//s[f//i]/p")
    return system


def _warm(system: MaterializedViewSystem, query: str = "//s[t]/p") -> None:
    system.answer(query)
    assert len(system._plan_cache) > 0


class TestRegistrationFailure:
    def test_failed_persist_drops_cached_plans(self, monkeypatch):
        system = _book_system()
        _warm(system)

        def boom(view):
            raise OSError("disk full")

        monkeypatch.setattr(system, "_persist_definition", boom)
        with pytest.raises(OSError):
            system.register_view("V3", "//b/t")
        # The view pool mutated before the failure; serving the old
        # plans would answer against a pool the cache never saw.
        assert len(system._plan_cache) == 0

    def test_failed_persist_then_answer_is_correct(self, monkeypatch):
        system = _book_system()
        _warm(system)
        monkeypatch.setattr(
            system,
            "_persist_definition",
            lambda view: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            system.register_view("V3", "//b/t")
        monkeypatch.undo()
        outcome = system.answer("//s[t]/p")
        assert outcome.codes == system.direct_codes("//s[t]/p")


class TestInsertFailure:
    def test_failed_encode_drops_cached_plans_and_indexes(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        system.answer_bn("//s[t]/p")  # builds the node index
        assert system._node_index is not None

        def boom(parent, subtree):
            raise RuntimeError("encode failed")

        monkeypatch.setattr(editor, "_encode_new_subtree", boom)
        first_s = system.document.tree.root.children[1]
        with pytest.raises(RuntimeError):
            editor.insert_subtree(first_s.dewey, XMLNode("p"))
        # The subtree is already attached to the tree: plans and
        # base-data indexes derived from the old document must be gone.
        assert len(system._plan_cache) == 0
        assert system._node_index is None
        assert system._path_index is None

    def test_failed_full_reencode_drops_cached_plans(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)

        def boom():
            raise RuntimeError("reencode failed")

        monkeypatch.setattr(editor, "_full_reencode", boom)
        first_s = system.document.tree.root.children[1]
        with pytest.raises(RuntimeError):
            # "z" is schema-violating, forcing the full-reencode path.
            editor.insert_subtree(first_s.dewey, XMLNode("z"))
        assert len(system._plan_cache) == 0
        # Every view's fragments hold the pre-edit document.
        assert not system._materialized


class TestRefreshFailure:
    # Deleting a stored answer patches both views in place: the
    # failure is injected at the patch's store write.
    def test_failed_rematerialization_evicts_the_view(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        original = system.fragments.replace

        def boom(view_id, *written):
            if view_id == "V1":
                raise RuntimeError("store failed")
            return original(view_id, *written)

        monkeypatch.setattr(system.fragments, "replace", boom)
        target = system.answer("//s[f//i]/p").codes[0]
        with pytest.raises(RuntimeError):
            editor.delete_subtree(target)
        # V1's fragments still hold the deleted answer; leaving it in
        # the answerable pool would rewrite queries against them.
        assert "V1" not in [v.view_id for v in system._materialized]
        assert "V1" not in system.vfilter.filter(
            parse_xpath("//s[t]/p")
        ).candidates
        assert len(system._plan_cache) == 0

    def test_answers_stay_correct_after_failed_refresh(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        original = system.fragments.replace

        def boom(view_id, *written):
            if view_id == "V1":
                raise RuntimeError("store failed")
            return original(view_id, *written)

        monkeypatch.setattr(system.fragments, "replace", boom)
        target = system.answer("//s[f//i]/p").codes[0]
        with pytest.raises(RuntimeError):
            editor.delete_subtree(target)
        monkeypatch.undo()
        # The surviving pool still answers correctly (or falls back).
        assert (
            system.direct_codes("//s[f//i]/p")
            == [n.dewey for n in system.document.tree.iter_nodes()
                if n.label == "p" and n.dewey is not None
                and any(c.label == "f" for c in n.parent.children)]
        )

    def test_capacity_evicted_view_leaves_the_pool(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        monkeypatch.setattr(
            system.fragments,
            "replace",
            lambda view_id, *written: False,  # every view outgrows the cap
        )
        first_s = system.document.tree.root.children[1]
        report = editor.insert_subtree(first_s.dewey, XMLNode("p"))
        assert report.affected_views
        for view_id in report.affected_views:
            assert view_id not in [v.view_id for v in system._materialized]
        assert len(system._plan_cache) == 0

    def test_failed_rebuild_evicts_the_view(self, monkeypatch):
        # A schema-violating insert re-encodes the document and splices
        # every view over the root's range: the failure is injected at
        # the splice's store write of the last view, after V1 was
        # patched.
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        original = system.fragments.replace

        def boom(view_id, *written):
            if view_id == "V2":
                raise RuntimeError("store failed")
            return original(view_id, *written)

        monkeypatch.setattr(system.fragments, "replace", boom)
        first_s = system.document.tree.root.children[1]
        with pytest.raises(RuntimeError):
            editor.insert_subtree(first_s.dewey, XMLNode("z"))
        assert [v.view_id for v in system._materialized] == ["V1"]
        assert len(system._plan_cache) == 0
        monkeypatch.undo()
        outcome = system.answer("//s[t]/p")
        assert outcome.codes == system.direct_codes("//s[t]/p")

    def test_failed_patch_evicts_the_views_not_yet_patched(
        self, monkeypatch
    ):
        # Both views store the deleted p; a failure patching V1 leaves
        # V2 unpatched, so V2 must leave the pool with it.
        system = _book_system()
        system.register_view("V3", "//s/p")
        editor = DocumentEditor(system)
        original = system.fragments.replace

        def boom(view_id, *written):
            if view_id == "V1":
                raise RuntimeError("store failed")
            return original(view_id, *written)

        monkeypatch.setattr(system.fragments, "replace", boom)
        with pytest.raises(RuntimeError):
            editor.delete_subtree(system.direct_codes("//s/p")[0])
        assert [v.view_id for v in system._materialized] == ["V2"]
        outcome = system.try_answer("//s/p")
        assert outcome is None or outcome.codes == system.direct_codes("//s/p")

    def test_capped_rebuild_evicts_the_view(self, monkeypatch):
        system = _book_system()
        editor = DocumentEditor(system)
        _warm(system)
        monkeypatch.setattr(
            system.fragments,
            "replace",
            lambda view_id, *written: False,
        )
        first_s = system.document.tree.root.children[1]
        report = editor.insert_subtree(first_s.dewey, XMLNode("z"))
        assert report.full_reencode
        assert not system._materialized
        assert len(system._plan_cache) == 0
