"""Tests for the XMark-like generator and YFilter-like query generator."""

import pytest

from repro.matching import evaluate
from repro.workload import (
    QueryGenConfig,
    QueryGenerator,
    XMARK_REGIONS,
    generate_positive,
    generate_xmark,
    generate_xmark_document,
)
from repro.xmltree import DocumentSchema, serialize, parse_xml
from repro.xpath import Axis, parse_xpath


class TestXMarkGenerator:
    def test_deterministic(self):
        first = generate_xmark(scale=0.1, seed=5)
        second = generate_xmark(scale=0.1, seed=5)
        assert first.root.structurally_equal(second.root)

    def test_different_seeds_differ(self):
        first = generate_xmark(scale=0.1, seed=1)
        second = generate_xmark(scale=0.1, seed=2)
        assert not first.root.structurally_equal(second.root)

    def test_scale_grows_document(self):
        small = generate_xmark(scale=0.1).size()
        large = generate_xmark(scale=1.0).size()
        assert large > small * 3

    def test_skeleton_structure(self):
        tree = generate_xmark(scale=0.1)
        assert tree.root.label == "site"
        top = [child.label for child in tree.root.children]
        assert top == [
            "regions", "categories", "catgraph", "people",
            "open_auctions", "closed_auctions",
        ]
        regions = tree.root.children[0]
        assert tuple(c.label for c in regions.children) == XMARK_REGIONS

    def test_recursive_parlist_present(self):
        tree = generate_xmark(scale=1.0, seed=42)
        nested = evaluate(parse_xpath("//parlist//parlist"), tree)
        assert nested  # recursion actually exercised

    def test_attributes_present(self):
        tree = generate_xmark(scale=0.1)
        items = evaluate(parse_xpath("//item[@id]"), tree)
        assert items == evaluate(parse_xpath("//item"), tree)

    def test_serializes_and_reparses(self):
        tree = generate_xmark(scale=0.05)
        again = parse_xml(serialize(tree))
        assert again.root.structurally_equal(tree.root)

    def test_encoded_document(self):
        doc = generate_xmark_document(scale=0.05)
        for node in doc.tree.iter_nodes():
            assert node.dewey is not None
            assert doc.fst.decode(node.dewey) == node.label_path()


class TestQueryGenerator:
    def _doc(self):
        return generate_xmark_document(scale=0.2, seed=9)

    def test_deterministic_stream(self):
        doc = self._doc()
        first = QueryGenerator(doc.schema, seed=3).generate_many(20)
        second = QueryGenerator(doc.schema, seed=3).generate_many(20)
        assert [p.to_xpath() for p in first] == [p.to_xpath() for p in second]

    def test_respects_max_depth(self):
        doc = self._doc()
        config = QueryGenConfig(max_depth=3, num_nestedpath=0)
        generator = QueryGenerator(doc.schema, config, seed=1)
        for pattern in generator.generate_many(50):
            spine = pattern.ret.root_path()
            assert len(spine) <= 3

    def test_zero_probabilities(self):
        doc = self._doc()
        config = QueryGenConfig(prob_wild=0.0, prob_desc=0.0, num_nestedpath=0)
        generator = QueryGenerator(doc.schema, config, seed=2)
        for pattern in generator.generate_many(40):
            assert not pattern.has_wildcard()
            assert not pattern.has_descendant_axis()
            assert pattern.root.axis is Axis.CHILD

    def test_high_probabilities(self):
        doc = self._doc()
        config = QueryGenConfig(prob_wild=1.0, prob_desc=1.0, num_nestedpath=0)
        generator = QueryGenerator(doc.schema, config, seed=2)
        sample = generator.generate_many(20)
        assert all(p.has_wildcard() for p in sample)
        assert all(p.has_descendant_axis() for p in sample)

    def test_nested_paths_add_branches(self):
        doc = self._doc()
        config = QueryGenConfig(num_nestedpath=2, max_depth=4)
        generator = QueryGenerator(doc.schema, config, seed=4)
        branched = sum(
            1 for p in generator.generate_many(50) if not p.is_path()
        )
        assert branched > 10

    def test_attribute_predicates(self):
        doc = self._doc()
        config = QueryGenConfig(num_pred=1, attributes=("id",))
        generator = QueryGenerator(doc.schema, config, seed=5)
        with_attrs = sum(
            1
            for p in generator.generate_many(30)
            if any(n.constraints for n in p.iter_nodes())
        )
        assert with_attrs == 30

    def test_generate_positive_all_nonempty(self):
        doc = self._doc()
        generator = QueryGenerator(doc.schema, seed=6)
        queries = generate_positive(generator, doc.tree, 25)
        assert len(queries) == 25
        for pattern in queries:
            assert evaluate(pattern, doc.tree)

    def test_generate_positive_budget(self):
        schema = DocumentSchema("site", {"site": ["x"], "x": []})
        from repro.xmltree import build_tree

        tree = build_tree(("site", []))  # 'x' never matches
        config = QueryGenConfig(prob_wild=0.0, prob_desc=0.0, num_nestedpath=0,
                                max_depth=2)
        generator = QueryGenerator(schema, config, seed=0)
        with pytest.raises(RuntimeError):
            generate_positive(generator, tree, 5, max_attempts_factor=2)


_GENERATE_VIEWS = """
from repro.bench import PROCESSING_CONFIG
from repro.workload import QueryGenerator, generate_positive
from repro.workload.xmark import generate_xmark_document

document = generate_xmark_document(scale=0.05, seed=42)
generator = QueryGenerator(document.schema, PROCESSING_CONFIG, seed=42)
for pattern in generate_positive(generator, document.tree, 50):
    print(pattern.to_xpath())
"""


def test_generated_views_independent_of_hash_seed():
    """The descendant closure used to depend on the iteration order of
    a frozenset of labels, so the same generator seed produced other
    views under some ``PYTHONHASHSEED`` values (35 among them)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "35"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _GENERATE_VIEWS],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 50
    assert outputs[0] == outputs[1]
