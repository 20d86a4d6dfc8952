"""Deep unit tests for the holistic twig join (multi-unit scenarios)."""

import random

import pytest

from repro.core import View
from repro.core.leaf_cover import coverage_units
from repro.core.refine import refine_unit
from repro.core.twig_join import join_units
from repro.matching import evaluate
from repro.storage import FragmentStore
from repro.xmltree import build_tree, encode_tree, unpack_code
from repro.xpath import parse_xpath

from conftest import random_pattern, random_tree


def _setup(spec, view_defs, query_expr):
    """Materialize views over a tree and prepare refined units."""
    doc = encode_tree(build_tree(spec))
    store = FragmentStore(doc)
    query = parse_xpath(query_expr)
    refined_units = []
    for view_id, expression in view_defs.items():
        view = View.from_xpath(view_id, expression)
        answers = evaluate(view.pattern, doc.tree)
        store.materialize(view_id, [(n.dewey, n) for n in answers])
        units = coverage_units(view, query)
        assert units, (view_id, expression)
        for unit in units:
            refined_units.append(
                refine_unit(unit, query, store.fragments(view_id))
            )
    return doc, query, refined_units


class TestTwoUnitJoin:
    def test_join_on_shared_parent(self):
        spec = ("r", [
            ("s", ["t", "p"]),          # t but no f
            ("s", ["f", "p"]),          # f but no t
            ("s", ["t", "f", "p"]),     # both
        ])
        doc, query, units = _setup(
            spec,
            {"VT": "//s[t]/p", "VF": "//s[f]/p"},
            "//s[t][f]/p",
        )
        delta = next(u for u in units if u.unit.provides_delta)
        surviving = join_units(units, query, doc.fst, delta)
        assert len(surviving) == 1
        # the surviving root is under the third s (packed codes come back)
        root_code = unpack_code(surviving[0])
        assert doc.node_by_code(root_code).parent.children[0].label == "t"

    def test_join_rejects_different_parents(self):
        spec = ("r", [("s", ["t", "p"]), ("s", ["f", "p"])])
        doc, query, units = _setup(
            spec, {"VT": "//s[t]/p", "VF": "//s[f]/p"}, "//s[t][f]/p"
        )
        delta = next(u for u in units if u.unit.provides_delta)
        assert join_units(units, query, doc.fst, delta) == []

    def test_join_across_depths_with_descendant_axis(self):
        # s at two depths; query //s anchors must align per instance.
        spec = ("r", [
            ("s", ["t", "p", ("s", ["f", "p"])]),
        ])
        doc, query, units = _setup(
            spec, {"VT": "//s[t]/p", "VF": "//s[f]/p"}, "//s[t][f]/p"
        )
        delta = next(u for u in units if u.unit.provides_delta)
        # No single s has both t and f children.
        assert join_units(units, query, doc.fst, delta) == []

    def test_anchor_shared_between_units_forces_equality(self):
        """Two views returning the same query node: roots must coincide."""
        spec = ("r", [("s", ["t", "f", "p", "p"]), ("s", ["t", "p"])])
        doc, query, units = _setup(
            spec, {"VT": "//s[t]/p", "VF": "//s[f]/p"}, "//s[t][f]/p"
        )
        delta = next(u for u in units if u.unit.provides_delta)
        surviving = join_units(units, query, doc.fst, delta)
        # both p's under the first s qualify
        assert len(surviving) == 2
        for code in surviving:
            assert doc.fst.decode_packed(code)[-1] == "p"


class TestThreeUnitJoin:
    def test_triple_branch(self):
        spec = ("r", [
            ("s", ["a", "b", "c", "p"]),
            ("s", ["a", "b", "p"]),
            ("s", ["a", "c", "p"]),
        ])
        doc, query, units = _setup(
            spec,
            {"VA": "//s[a]/p", "VB": "//s[b]/p", "VC": "//s[c]/p"},
            "//s[a][b][c]/p",
        )
        delta = next(u for u in units if u.unit.provides_delta)
        surviving = join_units(units, query, doc.fst, delta)
        assert len(surviving) == 1


class TestUpperSkeletonVerification:
    def test_label_path_must_match(self):
        """Example 4.2's essence: same-label roots under structurally
        different ancestors must not join."""
        spec = ("r", [
            ("a", [("b", ["c", "d"])]),
            ("x", [("b", ["d"])]),   # b under x, not a
        ])
        doc, query, units = _setup(
            spec, {"VD": "//a/b/d", "VC": "//a/b[c]/d"}, "//a/b[c]/d"
        )
        delta = next(u for u in units if u.unit.provides_delta)
        surviving = join_units(units, query, doc.fst, delta)
        assert len(surviving) == 1
        assert doc.fst.decode_packed(surviving[0])[:2] == ("r", "a")

    def test_root_axis_pins_document_root(self):
        spec = ("a", [("a", ["b"]), "b"])
        doc, query, units = _setup(
            spec, {"V": "//a/b"}, "/a/b"
        )
        delta = units[0]
        surviving = join_units(units, query, doc.fst, delta)
        # only the document root's own b child
        assert surviving == [doc.tree.root.children[1].dewey_packed]


class TestJoinAgainstTruth:
    @pytest.mark.parametrize("seed", range(12))
    def test_single_unit_join_equals_pattern_semantics(self, seed):
        """A single equivalent view joined alone must reproduce the
        query's own answers (join = upper-skeleton check only)."""
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=25)
        doc = encode_tree(tree)
        query = random_pattern(rng, max_nodes=4)
        store = FragmentStore(doc)
        view = View("V", query)
        answers = evaluate(view.pattern, tree)
        store.materialize("V", [(n.dewey, n) for n in answers])
        units = [
            unit
            for unit in coverage_units(view, query)
            if unit.anchor is query.ret
        ]
        if not units:
            return
        refined = refine_unit(units[0], query, store.fragments("V"))
        surviving = set(join_units([refined], query, doc.fst, refined))
        truth_roots = {n.dewey_packed for n in answers}
        # anchored at RET(Q) with an equivalent view, the join must keep
        # exactly the true answers
        assert surviving == truth_roots
