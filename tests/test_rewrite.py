"""Tests for refinement, the holistic twig join and rewriting."""

import pytest

from repro.core import MaterializedViewSystem, View
from repro.core.leaf_cover import coverage_units
from repro.core.refine import compensating_pattern, refine_unit
from repro.core.twig_join import anchor_instantiations
from repro.storage import FragmentStore
from repro.xmltree import build_tree, encode_tree
from repro.xpath import Axis, parse_xpath


def _system(spec, views):
    doc = encode_tree(build_tree(spec))
    system = MaterializedViewSystem(doc)
    for view_id, expression in views.items():
        assert system.register_view(view_id, expression)
    return system


class TestCompensatingPattern:
    def test_anchor_at_answer_keeps_ret(self):
        query = parse_xpath("//a/b[c]")
        view = View.from_xpath("V", "//a/b")
        unit = coverage_units(view, query)[0]
        pattern = compensating_pattern(unit, query)
        assert pattern.root.label == "b"
        assert pattern.ret is pattern.root
        assert pattern.root.axis is Axis.CHILD

    def test_anchor_above_answer_marks_ret_below(self):
        query = parse_xpath("//a/b/c")
        view = View.from_xpath("V", "//a/b")
        unit = coverage_units(view, query)[0]
        pattern = compensating_pattern(unit, query)
        assert pattern.root.label == "b"
        assert pattern.ret.label == "c"


class TestRefine:
    def _fragments(self, spec, view_expr):
        doc = encode_tree(build_tree(spec))
        from repro.matching import evaluate

        view = View.from_xpath("V", view_expr)
        store = FragmentStore(doc)
        answers = evaluate(view.pattern, doc.tree)
        store.materialize("V", [(n.dewey, n) for n in answers])
        return view, store.fragments("V")

    def test_case1_skip_when_view_implies(self):
        query = parse_xpath("//a/b[c]")
        view, fragments = self._fragments(
            ("r", [("a", [("b", ["c"]), ("b", ["d"])])]), "//a/b[c]"
        )
        unit = coverage_units(view, query)[0]
        refined = refine_unit(unit, query, fragments)
        assert refined.skipped
        assert len(refined.fragments) == len(fragments)

    def test_predicates_pushed_down(self):
        query = parse_xpath("//a/b[c]")
        view, fragments = self._fragments(
            ("r", [("a", [("b", ["c"]), ("b", ["d"])])]), "//a/b"
        )
        unit = coverage_units(view, query)[0]
        refined = refine_unit(unit, query, fragments)
        assert not refined.skipped
        assert len(fragments) == 2
        assert len(refined.fragments) == 1
        assert refined.fragments[0].root.children[0].label == "c"


class TestAnchorInstantiations:
    def _path(self, expression):
        pattern = parse_xpath(expression)
        return pattern.ret.root_path()

    def test_child_chain_unique_placement(self):
        nodes = self._path("/a/b/c")
        placements = anchor_instantiations(
            nodes, (0, 1, 2), ("a", "b", "c"), {}
        )
        assert len(placements) == 1
        assert placements[0][id(nodes[0])] == (0,)
        assert placements[0][id(nodes[2])] == (0, 1, 2)

    def test_label_mismatch_rejected(self):
        nodes = self._path("/a/b")
        assert anchor_instantiations(nodes, (0, 1), ("a", "x"), {}) == []

    def test_descendant_multiple_placements(self):
        nodes = self._path("//a//a")
        placements = anchor_instantiations(
            nodes, (0, 1, 2), ("a", "a", "a"), {}
        )
        # upper a at depth 1 or 2; anchor fixed at depth 3
        assert len(placements) == 2

    def test_wildcard_matches_any_label(self):
        nodes = self._path("/*/b")
        assert anchor_instantiations(nodes, (0, 1), ("z", "b"), {})

    def test_respects_existing_assignment(self):
        nodes = self._path("//x/a/b")
        labels = ("x", "a", "b")
        fixed = {id(nodes[1]): (0, 5)}
        assert anchor_instantiations(nodes, (0, 1, 2), labels, fixed) == []
        fixed_ok = {id(nodes[1]): (0, 1)}
        placements = anchor_instantiations(nodes, (0, 1, 2), labels, fixed_ok)
        assert len(placements) == 1
        # fixed node not re-bound
        assert id(nodes[1]) not in placements[0]

    def test_root_axis_child_pins_document_root(self):
        nodes = self._path("/a//b")
        placements = anchor_instantiations(
            nodes, (0, 1, 2), ("a", "x", "b"), {}
        )
        assert placements and all(
            p[id(nodes[0])] == (0,) for p in placements
        )


class TestJoinScenarios:
    def test_example_4_2_join_requires_shared_skeleton(self):
        """Paper Example 4.2: d-nodes under different b-parents must not
        be credited with the other branch's predicate."""
        # data: a / b1[c, d1], b2[d2]; query wants a[b[c]/d]
        spec = ("r", [("a", [("b", ["c", "d"]), ("b", ["d"])])])
        system = _system(spec, {
            "Vd": "//a/b/d",
            "Vc": "//a/b[c]/d",
        })
        query = "//a/b[c]/d"
        outcome = system.answer(query)
        truth = system.direct_codes(query)
        assert outcome.codes == truth
        assert len(outcome.codes) == 1

    def test_cross_parent_join_rejected(self):
        """Q = s[t][f]/p: t and f must hang under the *same* s."""
        spec = ("r", [
            ("s", ["t", "p"]),
            ("s", ["f", "p"]),
            ("s", ["t", "f", "p"]),
        ])
        system = _system(spec, {"V1": "//s[t]/p", "V2": "//s[f]/p"})
        query = "//s[t][f]/p"
        outcome = system.answer(query)
        assert outcome.codes == system.direct_codes(query)
        assert len(outcome.codes) == 1

    def test_empty_result_when_join_fails(self):
        spec = ("r", [("s", ["t", "p"]), ("s", ["f", "p"])])
        system = _system(spec, {"V1": "//s[t]/p", "V2": "//s[f]/p"})
        outcome = system.answer("//s[t][f]/p")
        assert outcome.codes == []

    def test_empty_result_when_refinement_empties(self):
        spec = ("r", [("s", ["t", ("p", ["x"])])])
        system = _system(spec, {"V1": "//s[t]/p"})
        outcome = system.answer("//s[t]/p[y]")
        assert outcome.codes == []

    def test_deep_anchor_chain(self):
        spec = ("r", [("a", [("a", [("b", ["c"]), "d"])])])
        system = _system(spec, {"V1": "//a/a[b]/d", "V2": "//a/a[b/c]/d"})
        query = "//a/a[b/c]/d"
        outcome = system.answer(query)
        assert outcome.codes == system.direct_codes(query)

    def test_answers_carry_fragment_subtrees(self):
        spec = ("r", [("s", ["t", ("p", ["q"])])])
        system = _system(spec, {"V1": "//s[t]/p"})
        outcome = system.answer("//s[t]/p")
        result = outcome.rewrite_result
        assert set(result.answers) == set(outcome.codes)
        answer = result.answers[outcome.codes[0]]
        assert answer.label == "p"
        assert [c.label for c in answer.children] == ["q"]


class TestDecodeStampsCodes:
    def test_codes_match_original_document(self):
        doc = encode_tree(build_tree(
            ("r", [("a", ["x", "y", ("b", ["z"]), "x"])])
        ))
        a = doc.tree.root.children[0]
        from repro.storage import decode_fragment, encode_fragment

        copy, _ = decode_fragment(
            encode_fragment(a, doc.schema), 0, a.dewey, doc.schema
        )
        assert [(n.label, n.dewey, n.dewey_packed) for n in copy.iter_subtree()] == [
            (n.label, n.dewey, n.dewey_packed) for n in a.iter_subtree()
        ]
