"""Delta-propagation maintenance (repro.delta).

Covers the pieces the coarse maintenance tests don't:

* resolver classification — untouched / splice / content-only
  verdicts on hand-built documents (branching views included: a
  predicate flip scopes the splice to the flipped ancestor), plus the
  soundness property (a view resolved *untouched* really keeps its
  exact answer set across the edit);
* patcher byte-identity — patched fragment payloads equal a fresh
  re-materialization byte for byte, and the report's reasons name the
  scoped verdict that produced them;
* re-encoded fragments — an edit encodes each live subtree once into
  one shared, code-stamped :class:`Fragment`, detached from the live
  tree, that reads use without decoding or re-stamping it;
* spliced fragments — a fragment rooted at an ancestor of the edit is
  rebuilt from its pre-edit bytes and tree: new nodes on the path
  only, every off-path subtree shared by identity, byte-identical to
  a fresh encode across gaps, count-width changes, nested ancestors
  and edits at a fragment root (an unbuilt tree and a
  schema-violating insert take the full walk instead), and pairs of
  edits leave the tracked-object count bounded;
* failed edits — an error after the tree changed (a schema-violating
  insert's re-encode included) evicts the affected views, whose
  fragments still hold the pre-edit document, from the answerable
  pool and from the fragment store;
* plan-cache upkeep — one counted invalidation per edit (the old
  double-``_invalidate_plans`` edit path is gone), plans over untouched
  views stay warm, plans over affected views are kept, spliced or
  dropped as their answers dictate, and every plan an edit kept answers
  like a cold system;
* maintenance linearizability under the epoch registry — concurrent
  readers see the pre-edit or post-edit answer, never a mix, and
  maintenance publishes **no** epoch;
* no whole-document re-evaluation: path and branching views shaped
  like the repository benchmark's are maintained by scoped evaluation
  only;
* a hypothesis property: random edit sequences, ending with a
  schema-violating insert, keep every materialized view byte-identical
  to ground truth (XMVR_CHECK=1 makes the editor
  self-check every maintained view on top of the explicit asserts
  here).
"""

from __future__ import annotations

import gc
import random
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import MaterializedViewSystem, encode_tree
from repro.bench import PROCESSING_CONFIG, SEED_VIEWS, TEST_QUERIES
from repro.delta import DocumentEditor, SubtreeDelta, resolve_affected
from repro.delta import maintenance
from repro.delta import patcher as patcher_module
from repro.matching import evaluate
from repro.service import zipf_weights
from repro.service.engine import SnapshotEngine
from repro.workload.querygen import (
    QueryGenConfig,
    QueryGenerator,
    generate_positive,
)
from repro.workload.xmark import generate_xmark_document
from repro.storage import KVStore
from repro.storage import fragments as fragments_module
from repro.storage import serialize
from repro.storage.serialize import (
    decode_dewey,
    decode_fragment,
    encode_dewey,
    encode_fragment,
)
from repro.xmltree import XMLNode, build_tree
from repro.xmltree.serializer import serialize_node
from repro.xpath.ast import Axis
from repro.xpath.pattern import PatternNode, TreePattern

from conftest import coded_nodes, random_pattern, random_tree


def _system(views: dict[str, str]) -> MaterializedViewSystem:
    doc = encode_tree(build_tree(
        ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])])
    ))
    system = MaterializedViewSystem(doc)
    for view_id, expression in views.items():
        system.register_view(view_id, expression)
    return system


def _first_section(system: MaterializedViewSystem) -> XMLNode:
    return system.document.tree.root.children[1]


def _expected_payloads(system: MaterializedViewSystem, view) -> list[bytes]:
    answers = evaluate(view.pattern, system.document.tree)
    entries = sorted(
        ((n.dewey, n) for n in answers if n.dewey is not None),
        key=lambda item: item[0],
    )
    schema = system.document.schema
    return [
        encode_dewey(code) + encode_fragment(node, schema) for code, node in entries
    ]


def _stored_payloads(system: MaterializedViewSystem, view_id: str) -> list[bytes]:
    return [f.payload for f in system.fragments.fragments(view_id)]


def _view_reasons(report) -> dict[str, str]:
    return {entry.view_id: entry.reason for entry in report.views}


def _forbid_whole_tree_evaluate(monkeypatch) -> list[int]:
    """Make the maintenance binding of ``evaluate`` (the one a root
    scope calls without a universe) fail on a whole-document call; returns the universe sizes
    of the scoped calls it lets through."""
    universes: list[int] = []
    real_evaluate = maintenance.evaluate

    def scoped_only(pattern, tree, universe=None):
        if universe is None:
            raise AssertionError(
                f"{pattern.to_xpath()} was re-evaluated over the whole tree"
            )
        universes.append(len(universe))
        return real_evaluate(pattern, tree, universe)

    monkeypatch.setattr(maintenance, "evaluate", scoped_only)
    return universes


# ----------------------------------------------------------------------
# resolver classification
# ----------------------------------------------------------------------
class TestResolver:
    def test_unrelated_path_view_untouched(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        parent = _first_section(system)
        delta = SubtreeDelta.for_insert(parent, XMLNode("t"))
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        # (b, s, t) matches neither view's leaf paths and no stored
        # fragment of either view contains the insertion anchor.
        assert affected.impacts == ()
        assert set(affected.untouched) == {"VT", "VP"}

    def test_path_view_with_answer_in_subtree_is_patchable(self):
        system = _system({"VP": "//s/p"})
        parent = _first_section(system)
        delta = SubtreeDelta.for_insert(parent, XMLNode("p"))
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        (impact,) = affected.impacts
        assert impact.view.view_id == "VP"
        assert impact.splice
        assert impact.reason == "answers-in-subtree"

    def test_branching_pattern_splices_answers_in_subtree(self):
        # s[t] already holds at the section, so the new p can only add
        # answers inside the inserted subtree: no whole-view rebuild.
        system = _system({"VB": "//s[t]/p"})
        parent = _first_section(system)
        child = XMLNode("p")
        delta = SubtreeDelta.for_insert(parent, child)
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        (impact,) = affected.impacts
        assert impact.splice
        assert impact.reason == "answers-in-subtree"
        assert impact.scope is child

    def test_insert_flipping_a_predicate_scopes_the_splice(self):
        # The first section has no f; inserting one flips s[f] there.
        system = _system({"VF": "//s[f]/t"})
        parent = _first_section(system)
        delta = SubtreeDelta.for_insert(parent, XMLNode("f"))
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        (impact,) = affected.impacts
        assert impact.splice
        assert impact.reason == "predicate-flip"
        assert impact.scope is parent

    def test_branch_holding_elsewhere_leaves_answers_alone(self):
        # b[s] holds through the other section, so deleting one
        # section's subtree flips nothing: the view is untouched.
        system = _system({"VR": "/b[s]/t"})
        victim = _first_section(system)
        delta = SubtreeDelta.for_delete(victim)
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        assert affected.impacts == ()
        assert affected.untouched == ("VR",)

    def test_edit_inside_fragment_is_an_answer_hit(self):
        system = _system({"VP": "//s/p"})
        answer = system.direct_codes("//s/p")[0]
        node = system.document.node_by_code(answer)
        delta = SubtreeDelta.for_insert(node, XMLNode("t"))
        epoch = system.current_epoch()
        affected = resolve_affected(
            delta, epoch.vfilter, system.fragments, list(epoch.materialized)
        )
        (impact,) = affected.impacts
        # The VFILTER NFA accepts containment extensions — (b, s, p, t)
        # extends the view path — so an edit strictly inside a stored
        # fragment is an answer hit.  No spine of //s/p ends at the new
        # t and nothing flips, so the verdict is the content-only
        # patch: the patcher's overlap rule re-encodes the grown
        # fragment without evaluating the view.
        assert not impact.splice
        assert impact.reason == "fragment-content-overlap"

    @pytest.mark.parametrize("seed", range(8))
    def test_untouched_verdict_is_sound(self, seed):
        """Fallback-predicate soundness: any view the resolver calls
        untouched keeps its exact answer set across the edit."""
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=30, max_depth=4)
        system = MaterializedViewSystem(encode_tree(tree))
        for index in range(6):
            system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
        editor = DocumentEditor(system)
        for _ in range(3):
            nodes = list(system.document.tree.iter_nodes())
            before = {
                view.view_id: set(system.fragments.codes(view.view_id))
                for view in system.materialized_views()
            }
            if rng.random() < 0.6 or len(nodes) < 4:
                parent = rng.choice(nodes)
                child = XMLNode(rng.choice("abcde"))
                if rng.random() < 0.5:
                    child.new_child(rng.choice("abcde"))
                report = editor.insert_subtree(parent.dewey, child)
            else:
                victim = rng.choice([n for n in nodes if n.parent is not None])
                report = editor.delete_subtree(victim.dewey)
            for view_id in report.skipped_views:
                view = next(
                    v
                    for v in system.materialized_views()
                    if v.view_id == view_id
                )
                fresh = {
                    n.dewey
                    for n in evaluate(view.pattern, system.document.tree)
                }
                assert fresh == before[view_id], view.to_xpath()


# ----------------------------------------------------------------------
# patcher byte-identity
# ----------------------------------------------------------------------
class TestPatcher:
    def test_insert_splice_is_byte_identical(self):
        system = _system({"VP": "//s/p"})
        editor = DocumentEditor(system)
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        assert _view_reasons(report) == {"VP": "answers-in-subtree"}
        (view,) = system.materialized_views()
        assert _stored_payloads(system, "VP") == _expected_payloads(system, view)

    def test_delete_range_drop_is_byte_identical(self):
        system = _system({"VP": "//s/p"})
        editor = DocumentEditor(system)
        victim = system.direct_codes("//s/p")[0]
        report = editor.delete_subtree(victim)
        assert _view_reasons(report) == {"VP": "fragment-content-overlap"}
        (view,) = system.materialized_views()
        payloads = _stored_payloads(system, "VP")
        assert payloads == _expected_payloads(system, view)
        assert len(payloads) == 1

    def test_in_fragment_insert_reencodes_live_fragment(self):
        # f → i is schema-admitted, so growing an existing f-fragment
        # stays on the delta path; the patcher must re-encode the
        # overlapped fragment from the live tree, not reuse stale bytes.
        system = _system({"VF": "//s/f"})
        editor = DocumentEditor(system)
        answer = system.direct_codes("//s/f")[0]
        report = editor.insert_subtree(answer, XMLNode("i"))
        assert not report.full_reencode
        assert _view_reasons(report) == {"VF": "fragment-content-overlap"}
        (view,) = system.materialized_views()
        assert _stored_payloads(system, "VF") == _expected_payloads(system, view)
        # The grown fragment is visible to compensating evaluation.
        outcome = system.try_answer("//s/f[i]")
        assert outcome is not None and outcome.codes == [answer]

    def test_delete_keeps_the_codes_of_later_siblings(self):
        # The surviving c keeps code (0, 1), which is no longer the
        # smallest component after nothing: its fragment payload must
        # carry it, or the rewrite would report (0, 0).
        system = MaterializedViewSystem(encode_tree(build_tree(("b", ["c", "c"]))))
        system.register_view("V", "//b")
        DocumentEditor(system).delete_subtree((0, 0))
        assert system.direct_codes("//b/c") == [(0, 1)]
        assert system.try_answer("//b/c").codes == [(0, 1)]
        # A view registered after the delete stores the same bytes.
        system.register_view("W", "/b")
        assert _stored_payloads(system, "W") == _stored_payloads(system, "V")

    def test_untouched_view_payloads_not_rewritten(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        before = _stored_payloads(system, "VT")
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        assert not report.full_reencode
        assert _view_reasons(report) == {"VP": "answers-in-subtree"}
        assert "VT" in report.skipped_views
        assert _stored_payloads(system, "VT") == before


# ----------------------------------------------------------------------
# re-encoded fragments arrive decoded, one object for every view
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_fragment_trees_match_payloads(system: MaterializedViewSystem) -> None:
    """Every fragment tree already built in memory is a decode of its
    payload, codes included."""
    schema = system.document.schema
    for view in system.materialized_views():
        for fragment in system.fragments.fragments(view.view_id):
            built = fragment.built_root
            if built is None:
                continue
            code, offset = decode_dewey(fragment.payload, 0)
            decoded, _ = decode_fragment(fragment.payload, offset, code, schema)
            assert built.parent is None
            assert coded_nodes(built) == coded_nodes(decoded), (
                view.view_id, code,
            )


class TestReencodedFragments:
    def _edited(self):
        # Two views store the same s fragments; a t inserted into the
        # first section re-encodes its fragment for both.
        system = _system({"VS": "//b/s", "WS": "/b/s"})
        system.answer("//b/s")
        editor = DocumentEditor(system)
        section = _first_section(system)
        report = editor.insert_subtree(section.dewey, XMLNode("t"))
        assert _view_reasons(report) == {
            "VS": "fragment-content-overlap",
            "WS": "fragment-content-overlap",
        }
        return system, editor, section

    def test_views_storing_a_code_share_one_decoded_fragment(self):
        system, _editor, section = self._edited()
        (first_vs, *_rest) = system.fragments.fragments("VS")
        (first_ws, *_rest) = system.fragments.fragments("WS")
        assert first_vs.code == section.dewey
        assert first_vs is first_ws
        assert first_vs.built_root is not None
        assert first_vs.packed == section.dewey_packed

    def test_rederiving_over_a_reencoded_fragment_decodes_nothing(
        self, monkeypatch
    ):
        system, _editor, section = self._edited()
        decodes = _count_calls(monkeypatch, fragments_module, "decode_fragment")
        # The edit changed the content of an answer: the plan was
        # dropped, so this read re-derives it over the fragments.
        outcome = system.answer("//b/s")
        assert not outcome.plan_cache_hit
        assert outcome.codes == system.direct_codes("//b/s")
        assert len(outcome.rewrite_result.answers[section.dewey].children) == 3
        assert decodes[0] == 0

    def test_handed_over_copy_is_detached_from_the_live_tree(self):
        system, editor, section = self._edited()
        fragment = system.fragments.fragments("VS")[0]
        copy = fragment.root
        live = {id(node) for node in system.document.tree.iter_nodes()}
        assert not any(id(node) in live for node in copy.iter_subtree())
        before = (serialize_node(copy), coded_nodes(copy))
        # A later edit inside the live subtree re-encodes the fragment
        # again; the copy the first edit made stays as it was.
        editor.insert_subtree(section.dewey, XMLNode("p"))
        assert system.fragments.fragments("VS")[0] is not fragment
        assert (serialize_node(copy), coded_nodes(copy)) == before
        assert len(copy.children) == len(section.children) - 1


# ----------------------------------------------------------------------
# ancestor fragments are spliced from their pre-edit bytes and tree
# ----------------------------------------------------------------------
def _spy_splices(monkeypatch) -> list[tuple]:
    """Record each ``Fragment.spliced`` call as ``(old, new)``; ``new``
    is None where the patcher fell back to encoding the live subtree."""
    calls: list[tuple] = []
    real = fragments_module.Fragment.spliced

    def spy(self, splice):
        result = real(self, splice)
        calls.append((self, result))
        return result

    monkeypatch.setattr(fragments_module.Fragment, "spliced", spy)
    return calls


def _assert_views_byte_identical(system: MaterializedViewSystem) -> None:
    for view in system.materialized_views():
        assert _stored_payloads(system, view.view_id) == _expected_payloads(
            system, view
        ), view.view_id
    _assert_fragment_trees_match_payloads(system)
    for view in system.materialized_views():
        for fragment in system.fragments.fragments(view.view_id):
            root = fragment.built_root
            if root is None:
                continue
            for node in root.iter_subtree():
                for child in node.children:
                    assert child.parent is node


def _decoded_system(shape, views: dict[str, str]) -> MaterializedViewSystem:
    system = MaterializedViewSystem(encode_tree(build_tree(shape)))
    system.register_views(views)
    for view in system.materialized_views():
        for fragment in system.fragments.fragments(view.view_id):
            fragment.root
    return system


class TestSplicedFragments:
    def test_delete_gap_makes_the_next_sibling_store_its_component(
        self, monkeypatch
    ):
        # Under s (child labels t, p, f: fanout 3) the second p has
        # component 4; once the first p (1) is gone, its smallest
        # admissible component after t (0) is 1, so it stores 4.
        system = _decoded_system(
            ("b", ["t", ("s", ["t", "p", "p"]), ("s", ["t", "p", ("f", ["i"])])]),
            {"VS": "//b/s", "VB": "/b"},
        )
        section = _first_section(system)
        assert [child.dewey[-1] for child in section.children] == [0, 1, 4]
        splices = _spy_splices(monkeypatch)
        DocumentEditor(system).delete_subtree(section.children[1].dewey)
        fanout = system.document.schema.fanout("s")
        assert serialize._gaps(section.children, fanout) == [False, True]
        assert len(splices) == 2 and all(new is not None for _, new in splices)
        _assert_views_byte_identical(system)
        # And back: the re-insert lands after the explicit sibling.
        DocumentEditor(system).insert_subtree(section.dewey, XMLNode("p"))
        _assert_views_byte_identical(system)

    @pytest.mark.parametrize("start", [127, 128])
    def test_child_count_crossing_128_changes_the_count_width(
        self, monkeypatch, start
    ):
        # 127 children need a one-byte count, 128 two bytes: the insert
        # widens it, the delete narrows it.  s is a fragment root (VS)
        # and a path node below one (VB).
        shape = ("b", ["t", ("s", ["t"] + ["p"] * (start - 1))])
        system = _decoded_system(shape, {"VS": "//b/s", "VB": "/b"})
        section = _first_section(system)
        splices = _spy_splices(monkeypatch)
        editor = DocumentEditor(system)
        if start == 127:
            editor.insert_subtree(section.dewey, XMLNode("p"))
            assert len(section.children) == 128
        else:
            editor.delete_subtree(section.children[-1].dewey)
            assert len(section.children) == 127
        assert len(splices) == 2 and all(new is not None for _, new in splices)
        _assert_views_byte_identical(system)

    def test_insert_directly_under_a_fragment_root(self, monkeypatch):
        system = _decoded_system(
            ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])]),
            {"VS": "//b/s"},
        )
        section = _first_section(system)
        old = system.fragments.fragments("VS")[0]
        splices = _spy_splices(monkeypatch)
        inserted = build_tree(("f", ["i", "i"])).root
        DocumentEditor(system).insert_subtree(section.dewey, inserted)
        ((spliced_from, new),) = splices
        assert spliced_from is old and new is not None
        assert system.fragments.fragments("VS")[0] is new
        # The inserted subtree is a copy, not the live nodes.
        added = new.root.children[-1]
        assert added is not inserted and added.parent is new.root
        assert coded_nodes(added) == coded_nodes(inserted)
        _assert_views_byte_identical(system)

    def test_delete_of_a_fragment_roots_last_child(self, monkeypatch):
        system = _decoded_system(
            ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])]),
            {"VS": "//b/s", "VF": "//s/f"},
        )
        second = system.document.tree.root.children[2]
        splices = _spy_splices(monkeypatch)
        editor = DocumentEditor(system)
        editor.delete_subtree(second.children[-1].dewey)
        assert [new is not None for _, new in splices] == [True]
        _assert_views_byte_identical(system)
        # Down to a childless fragment root.
        while second.children:
            editor.delete_subtree(second.children[-1].dewey)
            _assert_views_byte_identical(system)
        assert system.fragments.fragments("VS")[1].root.children == []

    def test_nested_ancestor_fragments_in_one_edit(self, monkeypatch):
        document = generate_xmark_document(scale=0.02, seed=42)
        system = MaterializedViewSystem(document)
        system.register_views({
            "R": "/site/regions",
            "A": "/site/regions/africa",
            "I": "/site/regions/africa/item",
            "S": "//s",
        })
        for view in system.materialized_views():
            for fragment in system.fragments.fragments(view.view_id):
                fragment.root
        item = system.document.tree.root.children[0].children[0].children[0]
        assert item.label == "item"
        site = item.children[-1]
        splices = _spy_splices(monkeypatch)
        editor = DocumentEditor(system)
        editor.delete_subtree(site.dewey)
        assert sorted(old.code for old, new in splices if new is not None) == [
            item.dewey[:2], item.dewey[:3], item.dewey,
        ]
        _assert_views_byte_identical(system)
        editor.insert_subtree(item.dewey, _clone(site))
        _assert_views_byte_identical(system)
        # A view with nested answers: both s fragments hold the edit.
        book = _decoded_system(
            ("b", [("s", ["t", ("s", ["t", "p"])])]), {"VS": "//s"}
        )
        splices.clear()
        inner = book.document.tree.root.children[0].children[1]
        DocumentEditor(book).insert_subtree(inner.dewey, XMLNode("p"))
        assert len(splices) == 2 and all(new is not None for _, new in splices)
        _assert_views_byte_identical(book)

    def test_unbuilt_tree_after_reopen_takes_the_full_walk(self, monkeypatch):
        kv = KVStore()
        document = encode_tree(build_tree(
            ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])])
        ))
        MaterializedViewSystem(document, store=kv).register_view("VS", "//b/s")
        system = MaterializedViewSystem.reopen(document, kv)
        assert system.fragments.fragments("VS")[0].built_root is None
        splices = _spy_splices(monkeypatch)
        walks = _count_calls(monkeypatch, patcher_module, "encode_fragment_copy")
        editor = DocumentEditor(system)
        section = _first_section(system)
        editor.insert_subtree(section.dewey, XMLNode("p"))
        assert [new for _, new in splices] == [None] and walks[0] == 1
        _assert_views_byte_identical(system)
        # The walk built the tree, so the next edit splices it.
        editor.delete_subtree(section.children[-1].dewey)
        assert splices[-1][1] is not None and walks[0] == 1
        _assert_views_byte_identical(system)

    def test_schema_violating_insert_takes_the_full_walk(self, monkeypatch):
        system = _decoded_system(
            ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p", ("f", ["i"])])]),
            {"VS": "//b/s", "VB": "/b"},
        )
        splices = _spy_splices(monkeypatch)
        report = DocumentEditor(system).insert_subtree(
            _first_section(system).dewey, XMLNode("zzz")
        )
        assert report.full_reencode
        assert splices == []
        _assert_views_byte_identical(system)

    def test_splice_shares_every_off_path_subtree(self):
        system = _decoded_system(
            ("b", ["t", ("s", ["t", "p", ("f", ["i", "i"]), "p"])]),
            {"VS": "//b/s"},
        )
        old = system.fragments.fragments("VS")[0]
        before = old.root
        t, p, f, last = before.children
        first_i, second_i = f.children
        section = _first_section(system)
        DocumentEditor(system).delete_subtree(section.children[2].children[0].dewey)
        new = system.fragments.fragments("VS")[0]
        root = new.root
        assert new is not old and root is not before
        assert root.children[0] is t and root.children[1] is p
        assert root.children[3] is last
        assert root.children[2] is not f and root.children[2].children == [second_i]
        assert t.parent is root and second_i.parent is root.children[2]
        # The retired tree keeps its own child lists.
        assert before.children == [t, p, f, last] and f.children == [first_i, second_i]
        live = {id(node) for node in system.document.tree.iter_nodes()}
        assert not any(id(node) in live for node in root.iter_subtree())
        _assert_views_byte_identical(system)


# ----------------------------------------------------------------------
# scoped plan-cache invalidation (the double-invalidation regression)
# ----------------------------------------------------------------------
class TestScopedInvalidation:
    def test_exactly_one_scoped_invalidation_per_edit(self):
        system = _system({"VP": "//s/p"})
        editor = DocumentEditor(system)
        editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        stats = system.stats()["plan_cache"]
        assert stats["scoped_invalidations"] == 1
        assert stats["invalidations"] == 0  # no blanket clear on the edit path
        editor.delete_subtree(system.direct_codes("//s/p")[0])
        stats = system.stats()["plan_cache"]
        assert stats["scoped_invalidations"] == 2
        assert stats["invalidations"] == 0

    def test_plans_over_untouched_views_stay_warm(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//b/t")
        before = system.answer("//s/p")
        report = editor.insert_subtree(
            _first_section(system).dewey, XMLNode("p")
        )
        assert report.affected_views == ["VP"]
        # //s/p depends on VP, so the edit flags it; the new p is an
        # answer, spliced in.  //b/t is not flagged at all.
        assert (report.plans_dropped, report.plans_retained) == (0, 2)
        assert (report.plans_maintained, report.plans_spliced) == (1, 1)
        assert system.answer("//b/t").plan_cache_hit
        spliced = system.answer("//s/p")
        assert spliced.plan_cache_hit
        assert spliced.codes == system.direct_codes("//s/p")
        assert len(spliced.codes) == len(before.codes) + 1
        # The cached result the first answer returned is never patched
        # in place.
        assert spliced.rewrite_result is not before.rewrite_result
        assert list(before.rewrite_result.codes) == before.codes

    def test_edit_affecting_nothing_retains_every_filtered_plan(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//b/t")
        system.answer("//s/p")
        # (b, s, t) hits neither view; scoped invalidation drops nothing.
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("t"))
        assert report.affected_views == []
        assert report.plans_dropped == 0
        assert system.answer("//b/t").plan_cache_hit
        assert system.answer("//s/p").plan_cache_hit

    def test_mn_plans_depend_on_their_selected_views(self):
        # MN selects without VFILTER, but like every strategy its plan
        # read only the fragments of the views it selected: an edit
        # that touches none of them keeps it as it is, and one that
        # touches them maintains it.
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//s/p", "MN")
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("t"))
        assert report.affected_views == []
        assert (report.plans_dropped, report.plans_maintained) == (0, 0)
        kept = system.answer("//s/p", "MN")
        assert kept.plan_cache_hit
        assert kept.codes == system.direct_codes("//s/p")
        # A p under the section is a new answer: spliced in.
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        assert report.affected_views == ["VP"]
        assert (report.plans_maintained, report.plans_spliced) == (1, 1)
        spliced = system.answer("//s/p", "MN")
        assert spliced.plan_cache_hit
        assert spliced.codes == system.direct_codes("//s/p")
        assert len(spliced.codes) == len(kept.codes) + 1

    def test_wildcard_leaf_is_scoped_whatever_the_labels(self):
        # A * leaf matches a node of any label: no label test can keep
        # the plan, the scoping test must see the new answer.
        system = _system({"VW": "//s/*"})
        editor = DocumentEditor(system)
        before = system.answer("//s/*")
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        assert (report.plans_maintained, report.plans_spliced) == (1, 1)
        after = system.answer("//s/*")
        assert after.plan_cache_hit
        assert after.codes == system.direct_codes("//s/*")
        assert len(after.codes) == len(before.codes) + 1

    def test_answer_whose_content_changed_drops_the_plan(self):
        system = _system({"VS": "//b/s"})
        editor = DocumentEditor(system)
        system.answer("//b/s")
        # The first section is an answer, and the new t lands inside it.
        report = editor.insert_subtree(_first_section(system).dewey, XMLNode("t"))
        assert (report.plans_dropped, report.plans_maintained) == (1, 0)
        fresh = system.answer("//b/s")
        assert not fresh.plan_cache_hit
        assert fresh.codes == system.direct_codes("//b/s")

    def test_failed_plan_upkeep_drops_every_plan(self, monkeypatch):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//b/t")
        system.answer("//s/p")

        def broken(impact, delta, tree):
            raise RuntimeError("upkeep failed")

        monkeypatch.setattr(maintenance, "patch_plan", broken)
        with pytest.raises(RuntimeError, match="upkeep failed"):
            editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        # //b/t was not even flagged, but no plan outlives the failure.
        assert len(system.current_epoch().plan_cache) == 0

    def test_schema_violating_insert_invalidates_plans_once(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//b/t")
        report = editor.insert_subtree(
            _first_section(system).dewey, XMLNode("zzz")
        )
        assert report.full_reencode
        stats = system.stats()["plan_cache"]
        assert stats["invalidations"] + stats["scoped_invalidations"] == 1
        assert report.plans_dropped == 1

    def test_full_reencode_still_clears_everything(self):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//b/t")
        report = editor.insert_subtree(
            _first_section(system).dewey, XMLNode("zzz")
        )
        assert report.full_reencode
        outcome = system.answer("//b/t")
        assert not outcome.plan_cache_hit
        assert outcome.codes == system.direct_codes("//b/t")


# ----------------------------------------------------------------------
# an edit that fails after the tree changed evicts the affected views
# ----------------------------------------------------------------------
class TestFailedEdits:
    def _assert_affected_view_evicted(self, system):
        # VP held pre-edit fragments: it must have left the pool, and
        # //s/p must not be answered from them.
        pool = [view.view_id for view in system.materialized_views()]
        assert pool == ["VT"]
        assert system.try_answer("//s/p") is None
        assert system.answer("//b/t").codes == system.direct_codes("//b/t")

    def test_failed_plan_upkeep_evicts_the_affected_views(self, monkeypatch):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//s/p")

        def broken(impact, delta, tree):
            raise RuntimeError("upkeep failed")

        monkeypatch.setattr(maintenance, "patch_plan", broken)
        with pytest.raises(RuntimeError, match="upkeep failed"):
            editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        assert len(system.direct_codes("//s/p")) == 3
        self._assert_affected_view_evicted(system)

    @pytest.mark.parametrize("operation", ["insert", "delete"])
    def test_failed_base_patch_evicts_the_affected_views(
        self, monkeypatch, operation
    ):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//s/p")

        def broken(self, delta):
            raise RuntimeError("base patch failed")

        monkeypatch.setattr(DocumentEditor, "_patch_base_state", broken)
        with pytest.raises(RuntimeError, match="base patch failed"):
            if operation == "insert":
                editor.insert_subtree(
                    _first_section(system).dewey, XMLNode("p")
                )
            else:
                editor.delete_subtree(system.direct_codes("//s/p")[0])
        assert len(system.direct_codes("//s/p")) == (
            3 if operation == "insert" else 1
        )
        self._assert_affected_view_evicted(system)

    @pytest.mark.parametrize("failing", ["replace", "put"])
    def test_failed_store_write_evicts_the_view_from_the_store(
        self, monkeypatch, failing
    ):
        # The view's manifest and pre-edit fragments must leave the KV
        # store too: a reopen would otherwise bring the view back with
        # the deleted section's answer.  A put that fails after writing
        # its key leaves a fragment the view's list never got, which
        # must go as well (a reopen refuses keys without a manifest).
        kv = KVStore()
        system = MaterializedViewSystem(
            encode_tree(build_tree(
                ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p"])])
            )),
            store=kv,
        )
        system.register_view("VP", "//s/p")
        editor = DocumentEditor(system)

        def broken(self, *args):
            raise RuntimeError("store write failed")

        put = KVStore.put

        def put_then_fail(self, key, value):
            put(self, key, value)
            raise RuntimeError("store write failed")

        if failing == "replace":
            monkeypatch.setattr(fragments_module.FragmentStore, "replace", broken)
        else:
            monkeypatch.setattr(KVStore, "put", put_then_fail)
        with pytest.raises(RuntimeError, match="store write failed"):
            if failing == "replace":
                editor.delete_subtree(_first_section(system).dewey)
            else:
                second = system.document.tree.root.children[2]
                editor.insert_subtree(second.dewey, XMLNode("p"))
        monkeypatch.undo()
        assert system.materialized_views() == []
        assert system.fragments.stored("VP") == ({}, None)
        assert system.fragments.fragments("VP") == []
        reopened = MaterializedViewSystem.reopen(system.document, kv)
        assert reopened.materialized_views() == []
        outcome = reopened.try_answer("//s/p")
        assert outcome is None or outcome.codes == reopened.direct_codes("//s/p")

    def test_failure_after_full_reencode_evicts_every_view(self, monkeypatch):
        system = _system({"VT": "//b/t", "VP": "//s/p"})
        editor = DocumentEditor(system)
        system.answer("//s/p")
        real_drop = DocumentEditor._drop_base_indexes
        calls: list[int] = []

        def broken_once(self):
            # The first call follows the re-encode; the failure
            # handler's own call goes through.
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("index reset failed")
            real_drop(self)

        monkeypatch.setattr(DocumentEditor, "_drop_base_indexes", broken_once)
        with pytest.raises(RuntimeError, match="index reset failed"):
            # zzz is outside the schema: the whole document is re-encoded.
            editor.insert_subtree(
                system.document.tree.root.dewey,
                build_tree(("s", ["p", "zzz"])).root,
            )
        assert len(system.direct_codes("//s/p")) == 3
        assert system.materialized_views() == []
        assert len(system.current_epoch().plan_cache) == 0
        outcome = system.try_answer("//s/p")
        assert outcome is None or outcome.codes == system.direct_codes("//s/p")


# ----------------------------------------------------------------------
# linearizability under the epoch registry
# ----------------------------------------------------------------------
class TestLinearizability:
    def test_maintenance_publishes_no_epoch(self):
        system = _system({"VP": "//s/p"})
        editor = DocumentEditor(system)
        seq_before = system.current_epoch().seq
        editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
        # Scoped invalidation only works because the epoch (and its
        # plan cache) survives the edit.
        assert system.current_epoch().seq == seq_before

    def test_concurrent_readers_see_pre_or_post_edit_answers(self):
        system = _system({"VP": "//s/p"})
        engine = SnapshotEngine(system)
        editor = DocumentEditor(system)
        query = "//s/p"
        pre = set(system.answer(query).codes)
        results: list[set] = []
        errors: list[BaseException] = []
        start = threading.Barrier(9)

        def read() -> None:
            try:
                start.wait()
                for _ in range(12):
                    results.append(set(engine.answer(query).codes))
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)

        def write() -> None:
            try:
                start.wait()
                target = _first_section(system).dewey

                def edit(target_system):
                    return editor.insert_subtree(target, XMLNode("p"))

                engine.maintain(edit)
            except BaseException as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=read) for _ in range(8)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        post = set(system.answer(query).codes)
        assert len(post) == len(pre) + 1
        for observed in results:
            assert observed in (pre, post)


# ----------------------------------------------------------------------
# stats surfacing
# ----------------------------------------------------------------------
def test_maintenance_stats_surface_in_system_stats():
    system = _system({"VP": "//s/p"})
    editor = DocumentEditor(system)
    editor.insert_subtree(_first_section(system).dewey, XMLNode("p"))
    maintenance = system.stats()["maintenance"]
    assert maintenance["repro_maintenance_total"]["insert"] == 1.0
    assert maintenance["repro_maintenance_ops_total"]["insert|delta"] == 1.0
    assert maintenance["repro_maintenance_views_total"]["patched"] == 1.0
    editor.delete_subtree(system.direct_codes("//s/p")[0])
    maintenance = system.stats()["maintenance"]
    assert maintenance["repro_maintenance_ops_total"]["delete|delta"] == 1.0
    assert maintenance["repro_maintenance_ops_total"]["insert|delta"] == 1.0
    assert maintenance["repro_maintenance_views_total"]["patched"] == 2.0


# ----------------------------------------------------------------------
# mixed read/write traffic on an XMark document
# ----------------------------------------------------------------------
def _xmark_system(
    view_count: int,
    config: QueryGenConfig = PROCESSING_CONFIG,
    seed_views: bool = True,
) -> MaterializedViewSystem:
    """A fresh system over its own document: edits mutate the tree, so
    the shared bench environment must never be used here."""
    document = generate_xmark_document(scale=0.3, seed=42)
    system = MaterializedViewSystem(document)
    if seed_views:
        system.register_views(dict(SEED_VIEWS))
    generator = QueryGenerator(document.schema, config, seed=42)
    patterns = generate_positive(generator, document.tree, view_count)
    system.register_views(
        {f"G{index}": pattern for index, pattern in enumerate(patterns)}
    )
    return system


def _run_mixed(write_share: float, ops: int = 200) -> dict[str, float]:
    """Warm a 40-query zipf pool, then run ``ops`` operations of which
    ``write_share`` are schema-admitted insert/delete edits."""
    system = _xmark_system(view_count=30)
    editor = DocumentEditor(system)
    pool = [expression for expression, _ in TEST_QUERIES.values()]
    views = system.materialized_views()
    random.Random(42).shuffle(views)
    pool += [v.to_xpath() for v in views if v.to_xpath() not in pool]
    pool = pool[:40]
    for expression in pool:
        system.answer(expression)
    rng = random.Random(43)
    weights = zipf_weights(len(pool))
    hits_before = system.stats()["plan_cache"]["hits"]
    reads = writes = full_reencodes = 0
    for _ in range(ops):
        if rng.random() >= write_share:
            system.answer(rng.choices(pool, weights=weights)[0])
            reads += 1
            continue
        # A random walk biased deep keeps victims small.
        parent = system.document.tree.root
        node = rng.choice(parent.children)
        while node.children and rng.random() < 0.85:
            parent, node = node, rng.choice(node.children)
        if writes % 2 == 0:
            # A label the parent already has a child of: schema-admitted.
            report = editor.insert_subtree(parent.dewey, XMLNode(node.label))
        else:
            report = editor.delete_subtree(node.dewey)
        writes += 1
        full_reencodes += int(report.full_reencode)
    cache = system.stats()["plan_cache"]
    return {
        "hit_rate": (cache["hits"] - hits_before) / reads,
        "writes": writes,
        "full_reencodes": full_reencodes,
        "scoped_invalidations": cache["scoped_invalidations"],
    }


def test_sparse_writes_stay_scoped_and_keep_plans_warm():
    cells = {share: _run_mixed(share) for share in (0.0, 0.01, 0.10)}
    for share, cell in cells.items():
        assert cell["full_reencodes"] == 0, (share, cell)
        assert cell["scoped_invalidations"] >= cell["writes"], (share, cell)
        if share > 0:
            assert cell["writes"] > 0, (share, cell)
    # Scoped invalidation keeps at least half the read-only hit rate
    # at 1% writes (a blanket clear per edit would crater it).
    assert cells[0.01]["hit_rate"] >= 0.5 * cells[0.0]["hit_rate"]


def test_path_view_edits_never_reevaluate_over_the_whole_tree(monkeypatch):
    linear = QueryGenConfig(
        max_depth=4, prob_wild=0.2, prob_desc=0.2, num_pred=0, num_nestedpath=0
    )
    system = _xmark_system(view_count=30, config=linear, seed_views=False)
    system.register_view("Pcat", "//category/name")
    system.answer("//category/name")
    editor = DocumentEditor(system)
    document_size = len(list(system.document.tree.iter_nodes()))
    universes = _forbid_whole_tree_evaluate(monkeypatch)
    anchors = system.direct_codes("//category")
    for anchor in anchors[:5]:
        report = editor.insert_subtree(anchor, XMLNode("name", text="edit"))
        assert not report.full_reencode
        assert report.views
        assert "Pcat" in report.affected_views
    # Splices evaluate over the edited subtree and its ancestors only.
    assert universes and max(universes) < document_size // 10


#: Branching views shaped like the repository benchmark's costliest
#: ones: a predicate near the root and the answer near the root.
BRANCHING_VIEWS = {
    "Bregions": "/site[regions]/*",
    "Bdate": "/*[open_auctions[.//date]]/*",
    "Bcatgraph": "/*[catgraph]/*",
    "Bcategory": "/site[*[category]]/*",
    "Bdeep": "//person[profile/age]/name",
}


def test_branching_view_edits_never_reevaluate_over_the_whole_tree(monkeypatch):
    system = _xmark_system(view_count=30)
    system.register_views(BRANCHING_VIEWS)
    materialized = {view.view_id for view in system.materialized_views()}
    assert set(BRANCHING_VIEWS) <= materialized
    editor = DocumentEditor(system)
    document_size = len(list(system.document.tree.iter_nodes()))
    universes = _forbid_whole_tree_evaluate(monkeypatch)
    sites = [
        node
        for node in system.document.tree.iter_nodes()
        if node.depth() >= 3 and node.subtree_size() <= 6
    ]
    rng = random.Random(7)
    maintained: set[str] = set()
    for site in rng.sample(sites, 12):
        if site.parent is None or site.dewey is None:
            continue  # an earlier edit of this loop detached it
        parent, subtree = site.parent, site
        delete = editor.delete_subtree(site.dewey)
        insert = editor.insert_subtree(parent.dewey, subtree)
        for report in (delete, insert):
            assert not report.full_reencode
            maintained |= set(report.affected_views)
    # The root-predicate views store the document's top-level sections,
    # so every edit re-encodes one of their fragments in place.
    assert {"Bregions", "Bdate", "Bcatgraph", "Bcategory"} <= maintained
    assert all(size < document_size // 10 for size in universes)


def test_predicate_flip_splices_under_the_flipped_ancestor(monkeypatch):
    system = _xmark_system(view_count=0, seed_views=False)
    view_id = "Vdate"
    system.register_view(view_id, "//closed_auctions/closed_auction[.//date]")
    (view,) = system.materialized_views()
    editor = DocumentEditor(system)
    universes = _forbid_whole_tree_evaluate(monkeypatch)
    auction = system.document.tree.nodes_with_label("closed_auction")[0]
    (date,) = [
        node for node in auction.iter_subtree() if node.label == "date"
    ]
    before = system.fragments.codes(view_id)
    assert auction.dewey in before

    report = editor.delete_subtree(date.dewey)
    (entry,) = report.views
    assert (entry.reason, entry.splice) == ("predicate-flip", True)
    # One scoped evaluation: the flipped auction's subtree plus its
    # ancestors, not the document.
    assert universes == [auction.subtree_size() + auction.depth()]
    assert system.fragments.codes(view_id) == [
        code for code in before if code != auction.dewey
    ]
    assert _stored_payloads(system, view_id) == _expected_payloads(system, view)

    report = editor.insert_subtree(auction.dewey, XMLNode("date", text="01/01/2001"))
    (entry,) = report.views
    assert (entry.reason, entry.splice) == ("predicate-flip", True)
    assert system.fragments.codes(view_id) == before
    assert _stored_payloads(system, view_id) == _expected_payloads(system, view)


def test_view_evicted_by_the_cap_stays_out_of_later_edits(book_doc):
    """A view whose patched fragments outgrow the cap leaves the
    answerable pool for good: no later edit lists it as affected or as
    skipped (not even once deletes shrink its answers back under the
    cap), and the remaining views still answer like evaluation."""
    system = MaterializedViewSystem(book_doc, fragment_cap=60)
    system.register_views({"V": "//s[t]/p", "W": "//s/f"})
    editor = DocumentEditor(system)
    section = system.document.tree.root.children[3]
    assert editor.insert_subtree(section.dewey, XMLNode("p")).affected_views == ["V"]
    assert [view.view_id for view in system.materialized_views()] == ["V", "W"]
    evicting = editor.insert_subtree(section.dewey, XMLNode("p"))
    assert evicting.affected_views == ["V"]
    assert system.fragments.is_capped("V")
    assert [view.view_id for view in system.materialized_views()] == ["W"]

    later = [editor.insert_subtree(section.dewey, XMLNode("p"))]
    for _ in range(3):
        later.append(editor.delete_subtree(section.children[-1].dewey))
    for report in later:
        assert "V" not in report.affected_views
        assert "V" not in report.skipped_views
        assert report.skipped_views == ["W"]
    assert [view.view_id for view in system.materialized_views()] == ["W"]
    assert system.try_answer("//s[t]/p") is None
    assert system.answer("//s/f").codes == system.direct_codes("//s/f")


# ----------------------------------------------------------------------
# the KV store is written through with what an edit changed
# ----------------------------------------------------------------------
class _LoggingKV(KVStore):
    """Records every put."""

    def __init__(self, path: str | None = None) -> None:
        super().__init__(path)
        self.puts: list[tuple[bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> None:
        self.puts.append((key, value))
        super().put(key, value)


def _clone(node: XMLNode) -> XMLNode:
    twin = XMLNode(node.label, node.text, dict(node.attributes))
    for child in node.children:
        twin.add_child(_clone(child))
    return twin


def _edit_sites(system: MaterializedViewSystem, count: int, seed: int) -> list[XMLNode]:
    """``count`` non-nested small subtrees at depth >= 3."""
    candidates = [
        node
        for node in system.document.tree.iter_nodes()
        if node.depth() >= 3 and node.subtree_size() <= 6
    ]
    random.Random(seed).shuffle(candidates)
    chosen: list[XMLNode] = []
    for node in candidates:
        if not any(
            other.is_ancestor_or_self_of(node) or node.is_ancestor_of(other)
            for other in chosen
        ):
            chosen.append(node)
        if len(chosen) == count:
            break
    return chosen


def test_edit_writes_only_the_fragments_it_changed():
    """Each edit puts into the KV store the fragments its patch wrote
    and one manifest per patched view: nothing for a fragment it kept,
    wherever the splice moved that fragment in its view's list."""
    kv = _LoggingKV()
    system = MaterializedViewSystem(
        generate_xmark_document(scale=0.05, seed=42), store=kv
    )
    system.register_views(dict(SEED_VIEWS))
    generator = QueryGenerator(system.document.schema, PROCESSING_CONFIG, seed=42)
    patterns = generate_positive(generator, system.document.tree, 30)
    system.register_views(
        {f"G{index}": pattern for index, pattern in enumerate(patterns)}
    )
    editor = DocumentEditor(system)
    shifted = 0
    for site in _edit_sites(system, 8, seed=5):
        parent, twin = site.parent, _clone(site)
        for edit in (
            lambda: editor.delete_subtree(site.dewey),
            lambda: editor.insert_subtree(parent.dewey, twin),
        ):
            before = {
                view.view_id: system.fragments.fragments(view.view_id)
                for view in system.materialized_views()
            }
            kv.puts.clear()
            report = edit()
            written = []
            for entry in report.views:
                old = before[entry.view_id]
                kept = {id(fragment) for fragment in old}
                new = system.fragments.fragments(entry.view_id)
                written += [f.payload for f in new if id(f) not in kept]
                shifted += len(new) != len(old) and new[-1] is old[-1]
            manifests = [key for key, _ in kv.puts if key.startswith(b"m:")]
            assert len(manifests) == len(report.views)
            assert sorted(
                value for key, value in kv.puts if not key.startswith(b"m:")
            ) == sorted(written)
    # Some splices changed a view's fragment count ahead of fragments
    # they kept: a layout keyed by list position rewrites those.
    assert shifted > 0


def _book_system(book_doc, kv: KVStore) -> MaterializedViewSystem:
    """The book document's views, none with nested answers, under a
    cap that ``B`` (the whole document) fills but for a few bytes."""
    views = {
        "B": "/b", "P": "//s/p", "TP": "//s[t]/p", "I": "//f/i",
        "F": "//s/f", "PF": "//s[p]/f", "T": "/b/t",
    }
    probe = MaterializedViewSystem(book_doc)
    probe.register_views(views)
    system = MaterializedViewSystem(
        book_doc, store=kv, fragment_cap=probe.fragments.fragment_bytes("B") + 12
    )
    assert len(system.register_views(views)) == len(views)
    return system


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reopen_after_edits_reads_back_every_view(book_doc, tmp_path, seed):
    """Seeded deletes and in-schema inserts, one schema-violating insert
    (every code changes) and inserts until the cap evicts ``B``, on a
    file-backed store: a reopen over the same edited document reads
    back each view's codes and payload bytes, and answers like
    evaluation; the evicted view leaves no fragment key."""
    rng = random.Random(seed)
    path = str(tmp_path / "views.kv")
    with KVStore(path) as kv:
        system = _book_system(book_doc, kv)
        editor = DocumentEditor(system)
        tree = system.document.tree

        def seeded_edit():
            nodes = [node for node in tree.iter_nodes() if node.parent is not None]
            if rng.random() < 0.5 and len(nodes) > 6:
                victim = rng.choice([node for node in nodes if not node.children])
                editor.delete_subtree(victim.dewey)
                return
            parent = rng.choice([node for node in tree.iter_nodes() if node.children])
            subtree = _admitted_subtree(rng, system.document.schema, parent)
            assert not editor.insert_subtree(parent.dewey, subtree).full_reencode

        for _ in range(6):
            seeded_edit()
        parent = rng.choice(list(tree.iter_nodes()))
        assert editor.insert_subtree(parent.dewey, XMLNode("z")).full_reencode
        for _ in range(3):
            seeded_edit()
        for _ in range(20):
            if system.fragments.is_capped("B"):
                break
            section = XMLNode("s")
            for label in "tppp":
                section.new_child(label)
            editor.insert_subtree(tree.root.dewey, section)
        assert system.fragments.is_capped("B")
        assert system.fragments.stored("B") == ({}, (0, 0, True))
        materialized = sorted(view.view_id for view in system.materialized_views())
        expected = {
            view_id: [f.payload for f in system.fragments.fragments(view_id)]
            for view_id in materialized
        }
        codes = {view_id: system.fragments.codes(view_id) for view_id in materialized}
    with KVStore(path) as kv:
        reopened = MaterializedViewSystem.reopen(system.document, kv)
        assert [view.view_id for view in reopened.materialized_views()] == materialized
        assert reopened.fragments.is_capped("B")
        assert reopened.fragments.stored("B") == ({}, (0, 0, True))
        for view in reopened.materialized_views():
            view_id = view.view_id
            assert reopened.fragments.codes(view_id) == codes[view_id]
            assert [
                f.payload for f in reopened.fragments.fragments(view_id)
            ] == expected[view_id]
            assert expected[view_id] == _expected_payloads(reopened, view)
            assert reopened.answer(view.pattern).codes == reopened.direct_codes(
                view.pattern
            )


# ----------------------------------------------------------------------
# property: random edit sequences keep every view byte-identical
# ----------------------------------------------------------------------
def _branching_view(rng: random.Random, root_label: str) -> TreePattern:
    """A view with a predicate at its root (``/r[x]/*``-like) or a
    ``//`` branch under a ``//`` spine (``//x[.//y]/z``-like)."""
    labels = "abcd"
    if rng.random() < 0.5:
        root = PatternNode(root_label, Axis.CHILD)
        predicate = root.new_child(rng.choice(labels), rng.choice(list(Axis)))
        if rng.random() < 0.5:
            predicate.new_child(rng.choice(labels), Axis.DESCENDANT)
        answer = root.new_child(rng.choice(labels + "*"), Axis.CHILD)
    else:
        root = PatternNode(rng.choice(labels + "*"), Axis.DESCENDANT)
        root.new_child(rng.choice(labels), Axis.DESCENDANT)
        answer = root.new_child(rng.choice(labels), rng.choice(list(Axis)))
    return TreePattern(root, answer)


def _assert_cached_plans_fresh(system: MaterializedViewSystem) -> None:
    """Every positive plan still cached answers like direct evaluation,
    and its answer subtrees serialise like a cold system's."""
    cold = MaterializedViewSystem(system.document, plan_cache_size=0)
    cold.register_views(
        {view.view_id: view.pattern for view in system.materialized_views()}
    )
    cache = system.current_epoch().plan_cache
    for (query, strategy), entry in list(cache._entries.items()):
        if entry.result is None:
            continue
        codes = list(entry.result.codes)
        assert codes == system.direct_codes(entry.pattern), (query, strategy)
        fresh = cold.answer(entry.pattern, strategy)
        assert fresh.codes == codes, (query, strategy)
        for code in codes:
            assert serialize_node(entry.result.answers[code]) == serialize_node(
                fresh.rewrite_result.answers[code]
            ), (query, strategy, code)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(0, 10**9))
@example(2146)  # a delete once left a later sibling with a wrong code
def test_random_edit_sequences_keep_views_byte_identical(seed):
    """...and every cached plan the edits kept answers like a cold
    system: HV and MN plans for random queries and for each view's own
    expression are warmed before every edit."""
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=25, max_depth=4)
    system = MaterializedViewSystem(encode_tree(tree))
    for index in range(4):
        system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
    for index in range(2):
        system.register_view(
            f"b{index}", _branching_view(rng, system.document.tree.root.label)
        )
    editor = DocumentEditor(system)
    queries = [random_pattern(rng, max_nodes=4) for _ in range(3)]
    for step in range(4):
        warmed = queries + [view.pattern for view in system.materialized_views()]
        for pattern in warmed:
            for strategy in ("HV", "MN"):
                system.try_answer(pattern, strategy)
        nodes = list(system.document.tree.iter_nodes())
        if step == 3:
            # A label no random tree holds is outside the schema: the
            # document is re-encoded and every view is spliced over the
            # root's range.
            parent = rng.choice(nodes)
            assert editor.insert_subtree(parent.dewey, XMLNode("z")).full_reencode
        elif rng.random() < 0.6 or len(nodes) < 4:
            parent = rng.choice(nodes)
            child = XMLNode(rng.choice("abcd"))
            if rng.random() < 0.4:
                child.new_child(rng.choice("abcd"))
            editor.insert_subtree(parent.dewey, child)
        else:
            victim = rng.choice([n for n in nodes if n.parent is not None])
            editor.delete_subtree(victim.dewey)
        for view in system.materialized_views():
            assert _stored_payloads(
                system, view.view_id
            ) == _expected_payloads(system, view), view.to_xpath()
        _assert_fragment_trees_match_payloads(system)
        _assert_cached_plans_fresh(system)
        query = random_pattern(rng, max_nodes=4)
        outcome = system.try_answer(query)
        if outcome is not None:
            assert outcome.codes == system.direct_codes(query)


def _admitted_subtree(rng: random.Random, schema, parent: XMLNode) -> XMLNode | None:
    """A one- or two-node subtree the schema admits under ``parent``
    (labels it already admits there), or None when it admits none."""
    if not parent.children:
        return None
    root = XMLNode(rng.choice(parent.children).label)
    grandchildren = sorted({
        grandchild.label
        for sibling in parent.children
        if sibling.label == root.label
        for grandchild in sibling.children
    })
    if grandchildren and rng.random() < 0.5:
        root.new_child(rng.choice(grandchildren))
    for node in root.iter_subtree():
        for child in node.children:
            schema.child_position(node.label, child.label)
    return root


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_delta_edits_keep_every_surviving_code(seed):
    """Schema-admitted inserts and deletes never renumber: every node
    that survives an edit keeps its ``dewey`` and ``dewey_packed``, and
    an inserted root sorts after all its existing siblings.  Keeping a
    cached plan across an edit rests on this."""
    rng = random.Random(seed)
    system = MaterializedViewSystem(encode_tree(random_tree(rng, max_nodes=25)))
    editor = DocumentEditor(system)
    tree = system.document.tree
    for _ in range(6):
        codes = {
            node: (node.dewey, node.dewey_packed) for node in tree.iter_nodes()
        }
        nodes = list(codes)
        parents = [node for node in nodes if node.children]
        if not parents:
            break
        inserted = None
        if rng.random() < 0.6 or len(nodes) < 4:
            parent = rng.choice(parents)
            inserted = _admitted_subtree(rng, system.document.schema, parent)
            report = editor.insert_subtree(parent.dewey, inserted)
            assert not report.full_reencode
        else:
            victim = rng.choice([node for node in nodes if node.parent is not None])
            editor.delete_subtree(victim.dewey)
        for node in tree.iter_nodes():
            if node in codes:
                assert (node.dewey, node.dewey_packed) == codes[node]
        if inserted is not None:
            for sibling in inserted.parent.children[:-1]:
                assert sibling.dewey < inserted.dewey
                assert sibling.dewey_packed < inserted.dewey_packed


def test_edit_pairs_leave_the_tracked_object_count_bounded():
    """Delete/re-insert pairs on a small XMark document, every fragment
    decoded first: after pair N the collector tracks no more objects
    than after pair N/3, give or take a small fixed bound, so retired
    path nodes, their fragments and the subtree lengths carried from
    fragment to fragment do not pile up."""
    system = MaterializedViewSystem(generate_xmark_document(scale=0.05, seed=42))
    system.register_views(dict(SEED_VIEWS))
    generator = QueryGenerator(system.document.schema, PROCESSING_CONFIG, seed=42)
    patterns = generate_positive(generator, system.document.tree, 30)
    system.register_views(
        {f"G{index}": pattern for index, pattern in enumerate(patterns)}
    )
    for view in system.materialized_views():
        for fragment in system.fragments.fragments(view.view_id):
            fragment.root
    editor = DocumentEditor(system)
    sites = [(site.parent, site) for site in _edit_sites(system, 4, seed=5)]
    pairs = 30
    counts: list[int] = []
    for index in range(pairs):
        parent, node = sites[index % len(sites)]
        twin = _clone(node)
        editor.delete_subtree(node.dewey)
        editor.insert_subtree(parent.dewey, twin)
        sites[index % len(sites)] = (parent, twin)
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert counts[-1] - counts[pairs // 3 - 1] <= 50, counts
