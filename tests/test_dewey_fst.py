"""Tests for extended Dewey encoding, schema and FST decoding."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError, SchemaError
from repro.xmltree import (
    DocumentSchema,
    FiniteStateTransducer,
    build_tree,
    common_prefix,
    descendant_range_key,
    encode_tree,
    format_code,
    is_ancestor,
    is_ancestor_or_self,
    is_parent,
    is_prefix,
    parse_code,
)
from repro.xmltree.dewey import assign_child_component, compare_codes

from conftest import LABELS, random_tree


class TestAssignment:
    def test_paper_figure2_components(self, book_doc):
        """Siblings t,a,a,s,s under book get 0,1,4,5,8 (paper Fig. 2)."""
        codes = [child.dewey for child in book_doc.tree.root.children]
        assert codes == [(0, 0), (0, 1), (0, 4), (0, 5), (0, 8)]

    def test_components_strictly_increase(self, book_doc):
        for node in book_doc.tree.iter_nodes():
            components = [child.dewey[-1] for child in node.children]
            assert components == sorted(components)
            assert len(set(components)) == len(components)

    def test_residue_identifies_label(self, book_doc):
        schema = book_doc.schema
        for node in book_doc.tree.iter_nodes():
            for child in node.children:
                fanout = schema.fanout(node.label)
                residue = child.dewey[-1] % fanout
                assert schema.child_at(node.label, residue) == child.label

    def test_assign_child_component_first_child(self):
        schema = DocumentSchema("r", {"r": ["a", "b", "c"]})
        assert assign_child_component(schema, "r", "a", None) == 0
        assert assign_child_component(schema, "r", "b", None) == 1
        assert assign_child_component(schema, "r", "c", None) == 2

    def test_assign_child_component_after_sibling(self):
        schema = DocumentSchema("r", {"r": ["a", "b", "c"]})
        # previous component 1 (a 'b'); next 'a' must be smallest > 1 ≡ 0 (mod 3)
        assert assign_child_component(schema, "r", "a", 1) == 3
        assert assign_child_component(schema, "r", "c", 1) == 2
        assert assign_child_component(schema, "r", "b", 1) == 4


class TestCodeMath:
    def test_format_and_parse_roundtrip(self):
        code = (0, 8, 6)
        assert format_code(code) == "0.8.6"
        assert parse_code("0.8.6") == code

    @given(st.lists(st.integers(min_value=0, max_value=10**12),
                    min_size=1, max_size=12).map(tuple))
    def test_format_parse_roundtrip_property(self, code):
        text = format_code(code)
        assert text == ".".join(str(component) for component in code)
        assert parse_code(text) == code

    def test_parse_rejects_garbage(self):
        with pytest.raises(EncodingError):
            parse_code("")
        with pytest.raises(EncodingError):
            parse_code("0.x.1")

    def test_prefix_relations(self):
        assert is_prefix((0, 8), (0, 8, 6))
        assert is_prefix((0, 8), (0, 8))
        assert not is_prefix((0, 8, 6), (0, 8))
        assert is_ancestor((0,), (0, 1))
        assert not is_ancestor((0, 1), (0, 1))
        assert is_ancestor_or_self((0, 1), (0, 1))
        assert is_parent((0, 8), (0, 8, 6))
        assert not is_parent((0,), (0, 8, 6))

    def test_common_prefix_is_lca(self):
        # Paper: 0.8.6.0 and 0.8.6.1 share 0.8.6.
        assert common_prefix((0, 8, 6, 0), (0, 8, 6, 1)) == (0, 8, 6)
        assert common_prefix((0, 1), (0, 2)) == (0,)
        assert common_prefix((1,), (2,)) == ()

    def test_compare_codes_orders_ancestors_first(self):
        assert compare_codes((0, 8), (0, 8, 6)) == -1
        assert compare_codes((0, 8, 6), (0, 8)) == 1
        assert compare_codes((0, 8), (0, 8)) == 0

    def test_descendant_range(self):
        low, high = descendant_range_key((0, 8))
        inside = [(0, 8), (0, 8, 0), (0, 8, 6, 3)]
        outside = [(0, 7, 9), (0, 9), (1,), (0,)]
        for code in inside:
            assert low <= code < high
        for code in outside:
            assert not (low <= code < high)

    def test_descendant_range_rejects_empty(self):
        with pytest.raises(EncodingError):
            descendant_range_key(())

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6),
           st.lists(st.integers(0, 50), min_size=1, max_size=6))
    def test_tuple_order_matches_document_containment(self, a, b):
        """Prefixes sort into their descendant range; non-descendants out."""
        a, b = tuple(a), tuple(b)
        low, high = descendant_range_key(a)
        assert (low <= b < high) == is_prefix(a, b)


class TestSchema:
    def test_from_tree_orders_by_first_appearance(self):
        tree = build_tree(("r", ["x", "y", "x", "z"]))
        schema = DocumentSchema.from_tree(tree)
        assert schema.child_labels("r") == ("x", "y", "z")

    def test_rejects_duplicate_child_labels(self):
        with pytest.raises(SchemaError):
            DocumentSchema("r", {"r": ["a", "a"]})

    def test_missing_label_raises(self):
        schema = DocumentSchema("r", {"r": ["a"]})
        with pytest.raises(SchemaError):
            schema.child_labels("missing")
        with pytest.raises(SchemaError):
            schema.child_position("r", "zzz")

    def test_child_at_bounds(self):
        schema = DocumentSchema("r", {"r": ["a"], "a": []})
        with pytest.raises(SchemaError):
            schema.child_at("a", 0)
        with pytest.raises(SchemaError):
            schema.child_at("r", 5)

    def test_fanout_minimum_one(self):
        schema = DocumentSchema("r", {"r": []})
        assert schema.fanout("r") == 1

    def test_dict_roundtrip(self):
        schema = DocumentSchema("r", {"r": ["a", "b"], "a": ["c"]})
        again = DocumentSchema.from_dict(schema.to_dict())
        assert schema == again

    def test_labels_includes_leaves(self):
        schema = DocumentSchema("r", {"r": ["a", "b"]})
        assert schema.labels() >= {"r", "a", "b"}


class TestFST:
    def test_paper_example_2_1(self, book_doc):
        """0.8.6 decodes to b/s/s (paper Example 2.1)."""
        fst = book_doc.fst
        # In our book fixture s3 sits at 0.8.5 (sibling layout differs
        # slightly); check the invariant on the real nodes instead.
        for node in book_doc.tree.iter_nodes():
            assert fst.decode(node.dewey) == node.label_path()

    def test_decode_caches_prefixes(self, book_doc):
        fst = FiniteStateTransducer(book_doc.schema)
        deep = max(book_doc.tree.iter_nodes(), key=lambda n: len(n.dewey))
        fst.decode(deep.dewey)
        # Every prefix must now be cached and still correct.
        for depth in range(1, len(deep.dewey) + 1):
            assert fst.decode(deep.dewey[:depth])[-1:] == (
                book_doc.tree.node_at(deep.dewey[:depth]).label,
            )

    def test_label_of(self, book_doc):
        for node in book_doc.tree.iter_nodes():
            assert book_doc.fst.label_of(node.dewey) == node.label

    def test_empty_code_rejected(self, book_doc):
        with pytest.raises(EncodingError):
            book_doc.fst.decode(())

    def test_undecodable_code_rejected(self):
        schema = DocumentSchema("r", {"r": []})
        fst = FiniteStateTransducer(schema)
        with pytest.raises(EncodingError):
            fst.decode((0, 1))

    def test_transitions_table(self, book_doc):
        table = book_doc.fst.transitions()
        assert table["b"] == ("t", "a", "s")
        assert table["s"] == ("t", "p", "s", "f")
        assert "t" not in table  # childless labels omitted

    def test_clear_cache(self, book_doc):
        fst = book_doc.fst
        fst.decode((0, 8))
        fst.clear_cache()
        assert fst.decode((0, 8)) == ("b", "s")


class TestEncodeRandomTrees:
    @pytest.mark.parametrize("seed", range(8))
    def test_fst_decodes_every_node(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=60)
        doc = encode_tree(tree)
        for node in tree.iter_nodes():
            assert doc.fst.decode(node.dewey) == node.label_path()

    @pytest.mark.parametrize("seed", range(4))
    def test_codes_unique_and_prefix_consistent(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=60)
        doc = encode_tree(tree)
        codes = [node.dewey for node in tree.iter_nodes()]
        assert len(set(codes)) == len(codes)
        for node in tree.iter_nodes():
            for child in node.children:
                assert is_parent(node.dewey, child.dewey)
        del doc

    def test_node_by_code_index(self, book_doc):
        for node in book_doc.tree.iter_nodes():
            assert book_doc.node_by_code(node.dewey) is node
        assert book_doc.node_by_code((9, 9)) is None
