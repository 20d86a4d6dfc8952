"""Tests for view maintenance under base-document updates."""

import random

import pytest

from repro import MaterializedViewSystem, encode_tree
from repro.delta import DocumentEditor
from repro.errors import EncodingError
from repro.xmltree import XMLNode, build_tree

from conftest import random_pattern, random_tree


def _book_system():
    doc = encode_tree(build_tree(
        ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])])
    ))
    system = MaterializedViewSystem(doc)
    system.register_view("V1", "//s[t]/p")
    system.register_view("V2", "//s[f//i]/p")
    system.register_view("VT", "//b/t")
    return system


class TestInsert:
    def test_insert_updates_answers(self):
        system = _book_system()
        editor = DocumentEditor(system)
        before = system.answer("//s[f//i]/p").codes
        assert len(before) == 1
        # give the first section a figure with an image
        first_s = system.document.tree.root.children[1]
        figure = XMLNode("f")
        figure.new_child("i")
        report = editor.insert_subtree(first_s.dewey, figure)
        assert "V2" in report.affected_views
        after = system.answer("//s[f//i]/p")
        assert after.codes == system.direct_codes("//s[f//i]/p")
        assert len(after.codes) == 2

    def test_unrelated_views_skipped(self):
        system = _book_system()
        editor = DocumentEditor(system)
        first_s = system.document.tree.root.children[1]
        figure = XMLNode("f")
        figure.new_child("i")
        report = editor.insert_subtree(first_s.dewey, figure)
        # VT (//b/t) matches neither f nor i, and no t-fragment contains
        # the insertion point.
        assert "VT" in report.skipped_views

    def test_fragment_content_refresh_without_answer_change(self):
        """Inserting below an existing answer must refresh that view's
        fragments even though its answer set is unchanged."""
        system = _book_system()
        editor = DocumentEditor(system)
        p_code = system.answer("//s[t]/p").codes[0]
        report = editor.insert_subtree(p_code, XMLNode("t"))
        assert "V1" in report.affected_views  # fragment grew
        # the compensating query //s[t]/p[t] now matches via fragments
        assert system.direct_codes("//s[t]/p[t]") == [p_code]
        outcome = system.try_answer("//s[t]/p[t]")
        assert outcome is not None and outcome.codes == [p_code]

    def test_existing_codes_stable_on_schema_compatible_insert(self):
        system = _book_system()
        editor = DocumentEditor(system)
        codes_before = {
            id(n): n.dewey for n in system.document.tree.iter_nodes()
        }
        first_s = system.document.tree.root.children[1]
        editor.insert_subtree(first_s.dewey, XMLNode("p"))
        for node in system.document.tree.iter_nodes():
            if id(node) in codes_before:
                assert node.dewey == codes_before[id(node)]

    def test_schema_violating_insert_reencodes(self):
        system = _book_system()
        editor = DocumentEditor(system)
        first_s = system.document.tree.root.children[1]
        report = editor.insert_subtree(first_s.dewey, XMLNode("zzz"))
        assert report.full_reencode
        # new label usable in queries afterwards
        assert len(system.direct_codes("//s/zzz")) == 1
        for node in system.document.tree.iter_nodes():
            assert system.document.fst.decode(node.dewey) == node.label_path()

    def test_insert_after_uncoded_sibling(self):
        """Regression: an uncoded sibling (a node attached directly to
        the tree, never encoded) used to be indexed for its dewey code
        (``siblings[-2].dewey[-1]`` → TypeError).  Component assignment
        must skip uncoded siblings instead."""
        system = _book_system()
        editor = DocumentEditor(system)
        first_s = system.document.tree.root.children[1]
        stray = XMLNode("p")
        first_s.add_child(stray)  # out-of-band: no editor, no code
        system.document.tree.invalidate_indexes()

        inserted = XMLNode("p")
        editor.insert_subtree(first_s.dewey, inserted)
        assert stray.dewey is None
        assert inserted.dewey is not None
        # The new code decodes to the right label path and does not
        # collide with any existing sibling's code.
        fst = system.document.fst
        assert fst.decode(inserted.dewey) == inserted.label_path()
        coded = [c.dewey for c in first_s.children if c.dewey is not None]
        assert len(coded) == len(set(coded))

    def test_bad_parent_code(self):
        system = _book_system()
        with pytest.raises(EncodingError):
            DocumentEditor(system).insert_subtree((9, 9, 9), XMLNode("x"))

    def test_attached_subtree_rejected(self):
        system = _book_system()
        child = system.document.tree.root.children[0]
        with pytest.raises(ValueError):
            DocumentEditor(system).insert_subtree((0,), child)


class TestDelete:
    def test_delete_updates_answers(self):
        system = _book_system()
        editor = DocumentEditor(system)
        figure = system.direct_codes("//s/f")[0]
        report = editor.delete_subtree(figure)
        assert "V2" in report.affected_views
        assert system.direct_codes("//s[f//i]/p") == []
        outcome = system.try_answer("//s[f//i]/p")
        assert outcome is not None and outcome.codes == []

    def test_delete_root_rejected(self):
        system = _book_system()
        with pytest.raises(ValueError):
            DocumentEditor(system).delete_subtree((0,))

    def test_missing_code_rejected(self):
        system = _book_system()
        with pytest.raises(EncodingError):
            DocumentEditor(system).delete_subtree((0, 99))

    def test_baseline_indexes_refreshed(self):
        system = _book_system()
        editor = DocumentEditor(system)

        def build_and_check():
            truth = system.direct_codes("//s/p")
            assert system.answer_bn("//s/p").codes == truth
            assert system.answer_bf("//s/p").codes == truth
            assert system.answer_tj("//s/p").codes == truth
            assert system._node_index is not None
            assert system._path_index is not None
            assert system._stream_index is not None
            return truth

        build_and_check()
        section = system.direct_codes("//s")[0]
        editor.insert_subtree(section, XMLNode("p"))
        # An edit drops every baseline index; the next call rebuilds it.
        assert system._node_index is None
        assert system._path_index is None
        assert system._stream_index is None
        assert len(build_and_check()) == 3
        editor.delete_subtree(system.direct_codes("//s/p")[0])
        assert system._node_index is None
        assert system._path_index is None
        assert system._stream_index is None
        assert len(build_and_check()) == 2


class TestRandomizedMaintenance:
    @pytest.mark.parametrize("seed", range(10))
    def test_answers_stay_correct_under_edits(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=25, max_depth=4)
        system = MaterializedViewSystem(encode_tree(tree))
        for index in range(5):
            system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
        editor = DocumentEditor(system)
        # A separate stream, so the edits and queries below stay those
        # the seed always drew.
        baseline_rng = random.Random(f"baseline-{seed}")
        baseline_queries = [
            random_pattern(baseline_rng, max_nodes=4) for _ in range(3)
        ]
        for query in baseline_queries:
            # Built before the edits, so each edit meets live indexes.
            system.answer_bn(query)
            system.answer_bf(query)
            system.answer_tj(query)

        for _ in range(4):
            nodes = list(system.document.tree.iter_nodes())
            if rng.random() < 0.6 or len(nodes) < 4:
                parent = rng.choice(nodes)
                child = XMLNode(rng.choice("abcde"))
                if rng.random() < 0.4:
                    child.new_child(rng.choice("abcde"))
                editor.insert_subtree(parent.dewey, child)
            else:
                victim = rng.choice(
                    [n for n in nodes if n.parent is not None]
                )
                editor.delete_subtree(victim.dewey)

            for baseline in baseline_queries:
                truth = system.direct_codes(baseline)
                assert system.answer_bn(baseline).codes == truth
                assert system.answer_bf(baseline).codes == truth
                assert system.answer_tj(baseline).codes == truth

            query = random_pattern(rng, max_nodes=4)
            truth = system.direct_codes(query)
            outcome = system.try_answer(query, "HV")
            if outcome is not None:
                assert outcome.codes == truth
            for view in system.materialized_views():
                # every materialized view's fragments reflect the data
                stored = set(system.fragments.codes(view.view_id))
                from repro.matching import evaluate as evaluate_

                fresh = {
                    n.dewey
                    for n in evaluate_(view.pattern, system.document.tree)
                }
                assert stored == fresh, view.to_xpath()


class TestMemoCarryOver:
    """Epoch-swap carry-over: registration keeps CoverageMemo entries
    for untouched views; maintenance evicts exactly the touched ones."""

    def test_registration_keeps_existing_entries(self):
        system = _book_system()
        system.answer("//s[t]/p")  # populate memo for V1/V2/VT
        computed_before = system._memo.stats()["coverage_computed"]
        system.register_view("V3", "//b//p")
        system.answer("//s[t]/p")
        stats = system._memo.stats()
        # the new epoch's cold derivation re-used every cached pair of
        # the pre-registration views: only the new view computes
        assert stats["coverage_evicted"] == 0
        recomputed = stats["coverage_computed"] - computed_before
        assert recomputed <= 1  # at most V3's fresh pair
        assert stats["coverage_served"] > 0

    def test_maintenance_evicts_touched_views_only(self):
        system = _book_system()
        editor = DocumentEditor(system)
        system.answer("//s[t]/p")
        from repro.xpath import parse_xpath

        query_key = parse_xpath("//s[t]/p").canonical_string()
        query_slot = system._memo._queries[query_key]
        assert "V1" in query_slot.units
        cached_before = dict(query_slot.units)
        # grow a fragment of V1: insert below one of its stored answers
        p_code = system.answer("//s[t]/p").codes[0]
        report = editor.insert_subtree(p_code, XMLNode("t"))
        assert "V1" in report.affected_views
        stats = system._memo.stats()
        assert stats["coverage_evicted"] > 0
        # touched views' entries are gone, untouched views keep theirs
        for view_id in report.affected_views:
            assert view_id not in query_slot.units
        for view_id in report.skipped_views:
            if view_id in cached_before:
                assert query_slot.units[view_id] is cached_before[view_id]
        # and answers stay correct afterwards
        assert system.answer("//s[t]/p").codes == system.direct_codes(
            "//s[t]/p"
        )
