"""Tests for tree/path pattern data structures."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PatternError
from repro.xpath import (
    Axis,
    PathPattern,
    Step,
    decompose,
    normalize,
    parse_xpath,
    str_text,
    str_tokens,
)
from repro.workload import QueryGenConfig, QueryGenerator, generate_xmark_document
from repro.xpath.pattern import PatternNode, TreePattern

from conftest import random_pattern


class TestTreePattern:
    def test_answer_must_belong(self):
        root = PatternNode("a")
        stranger = PatternNode("b")
        with pytest.raises(PatternError):
            TreePattern(root, stranger)

    def test_size_leaves_depth(self):
        pattern = parse_xpath("/a[b/d][c]/e")
        assert pattern.size() == 5
        assert sorted(n.label for n in pattern.leaves()) == ["c", "d", "e"]
        assert pattern.depth() == 3

    def test_is_path(self):
        assert parse_xpath("/a/b//c").is_path()
        assert not parse_xpath("/a[b]/c").is_path()

    def test_feature_flags(self):
        assert parse_xpath("/a/*").has_wildcard()
        assert not parse_xpath("/a/b").has_wildcard()
        assert parse_xpath("/a//b").has_descendant_axis()
        assert not parse_xpath("/a/b").has_descendant_axis()

    def test_built_pattern_is_frozen_and_keeps_ret(self):
        """A shared pattern cannot be changed through any entry point,
        so a later parse still equals the first one."""
        pattern = parse_xpath("/a[b]/c")
        baseline = pattern.canonical_string()
        assert pattern.ret.label == "c"
        for node in pattern.iter_nodes():
            assert isinstance(node.children, tuple)
            with pytest.raises(PatternError):
                node.add_child(PatternNode("z"))
            with pytest.raises(PatternError):
                node.new_child("z", Axis.DESCENDANT)
            for name, value in (
                ("label", "z"),
                ("axis", Axis.DESCENDANT),
                ("parent", None),
                ("children", ()),
                ("constraints", ()),
            ):
                with pytest.raises(PatternError):
                    setattr(node, name, value)
                with pytest.raises(PatternError):
                    delattr(node, name)
        for name, value in (
            ("root", PatternNode("z")),
            ("ret", pattern.root),
            ("_canonical", ""),
        ):
            with pytest.raises(PatternError):
                setattr(pattern, name, value)
        # A frozen node cannot be grafted under a node being built.
        with pytest.raises(PatternError):
            PatternNode("z").add_child(pattern.root)
        assert pattern.canonical_string() == baseline
        assert pattern.ret.label == "c"
        assert parse_xpath("/a[b]/c") == pattern
        # Derived patterns are new objects; the source stays as built.
        without = pattern.without([pattern.root.children[0]])
        assert without == parse_xpath("/a/c")
        assert without.ret is not pattern.ret
        assert pattern.canonical_string() == baseline

    def test_without_rejects_the_answer_branch(self):
        pattern = parse_xpath("/a[b]/c")
        with pytest.raises(PatternError):
            pattern.without([pattern.ret])
        with pytest.raises(PatternError):
            pattern.without([pattern.root])

    def test_equality_is_unordered(self):
        assert parse_xpath("/a[b][c]/d") == parse_xpath("/a[c][b]/d")

    def test_equality_distinguishes_answer_node(self):
        first = parse_xpath("/a/b")
        second = parse_xpath("/a[b]")  # answer = a
        assert first != second

    def test_equality_distinguishes_axes(self):
        assert parse_xpath("/a/b") != parse_xpath("/a//b")
        assert parse_xpath("/a/b") != parse_xpath("//a/b")

    def test_hashable(self):
        patterns = {parse_xpath("/a/b"), parse_xpath("/a/b"), parse_xpath("/a//b")}
        assert len(patterns) == 2

    def test_subtree_at_reroots(self):
        pattern = parse_xpath("/a/b[c]/d")
        b = pattern.ret.parent
        sub = pattern.subtree_at(b)
        assert sub.root.label == "b"
        assert sub.root.axis is Axis.CHILD
        assert sub.ret is sub.root
        assert sorted(n.label for n in sub.iter_nodes()) == ["b", "c", "d"]

    def test_subtree_at_with_ret(self):
        pattern = parse_xpath("/a/b[c]/d")
        b = pattern.ret.parent
        sub = pattern.subtree_at(b, ret=pattern.ret)
        assert sub.ret.label == "d"

    def test_subtree_at_rejects_outside_ret(self):
        pattern = parse_xpath("/a/b[c]/d")
        b = pattern.ret.parent
        with pytest.raises(PatternError):
            pattern.subtree_at(b, ret=pattern.root)

    def test_to_xpath_marks_answer(self):
        pattern = parse_xpath("/a[b]")
        assert "{a}" in pattern.to_xpath(mark_answer=True)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_roundtrip_through_xpath(self, seed):
        rng = random.Random(seed)
        pattern = random_pattern(rng, max_nodes=6)
        # Skip patterns whose answer node is internal with children:
        # rendering keeps it the spine tail, so they still round-trip.
        reparsed = parse_xpath(pattern.to_xpath())
        assert reparsed == pattern


class TestPathPattern:
    def test_requires_steps(self):
        with pytest.raises(PatternError):
            PathPattern(())

    def test_sequence_protocol(self):
        path = PathPattern((
            Step(Axis.CHILD, "a"),
            Step(Axis.DESCENDANT, "b"),
        ))
        assert len(path) == 2
        assert path[1].label == "b"
        assert [step.label for step in path] == ["a", "b"]
        assert path.length == 2
        assert path.leaf_label() == "b"

    def test_to_xpath(self):
        path = PathPattern((
            Step(Axis.CHILD, "a"),
            Step(Axis.DESCENDANT, "b"),
            Step(Axis.CHILD, "*"),
        ))
        assert path.to_xpath() == "/a//b/*"

    def test_tree_conversion_roundtrip(self):
        pattern = parse_xpath("/a//b/c")
        path = pattern.to_path_pattern()
        assert path.to_tree_pattern() == pattern

    def test_tree_conversion_rejects_branches(self):
        with pytest.raises(PatternError):
            parse_xpath("/a[b]/c").to_path_pattern()

    def test_hash_and_equality(self):
        first = parse_xpath("/a/b").to_path_pattern()
        second = parse_xpath("/a/b").to_path_pattern()
        third = parse_xpath("/a//b").to_path_pattern()
        assert first == second and hash(first) == hash(second)
        assert first != third


class TestDecompose:
    def test_paper_example(self):
        """D(b[ //f//i ]/t) style decomposition from Section III-A."""
        query = parse_xpath("s[f//i][t]/p")
        paths = [p.to_xpath() for p in decompose(query)]
        assert paths == ["//s/f//i", "//s/t", "//s/p"]

    def test_single_path(self):
        query = parse_xpath("/a/b")
        assert [p.to_xpath() for p in decompose(query)] == ["/a/b"]

    def test_duplicates_removed(self):
        query = parse_xpath("/a[b][b]/c")
        paths = [p.to_xpath() for p in decompose(query)]
        assert paths == ["/a/b", "/a/c"]

    def test_cardinality_matches_leaves(self):
        query = parse_xpath("/a[b/c][d]/e[f]")
        assert len(decompose(query)) == len(query.leaves()) == 3


class TestNormalize:
    def test_paper_example_3_3(self):
        """s/*//t normalizes to s//*/t."""
        path = parse_xpath("/s/*//t").to_path_pattern()
        assert normalize(path).to_xpath() == "/s//*/t"

    def test_already_normalized_unchanged(self):
        path = parse_xpath("/s//*/t").to_path_pattern()
        assert normalize(path) == path

    def test_no_wildcards_untouched(self):
        path = parse_xpath("/a//b/c").to_path_pattern()
        assert normalize(path) == path

    def test_long_run_collapses_to_one_descendant(self):
        path = parse_xpath("/a/*//*/*//b").to_path_pattern()
        assert normalize(path).to_xpath() == "/a//*/*/*/b"

    def test_multiple_runs_normalized_independently(self):
        path = parse_xpath("/a/*//b/*//c").to_path_pattern()
        assert normalize(path).to_xpath() == "/a//*/b//*/c"

    def test_run_at_tail(self):
        path = parse_xpath("/a/*//*").to_path_pattern()
        assert normalize(path).to_xpath() == "/a//*/*"

    def test_run_at_head(self):
        path = parse_xpath("//*/*/a").to_path_pattern()
        assert normalize(path).to_xpath() == "//*/*/a"
        path2 = parse_xpath("/*//*/a").to_path_pattern()
        assert normalize(path2).to_xpath() == "//*/*/a"

    def test_child_only_run_untouched(self):
        path = parse_xpath("/a/*/*/b").to_path_pattern()
        assert normalize(path) == path

    def test_idempotent(self):
        for expr in ["/a/*//t", "/a//*/*//b", "//*//*", "/a/b"]:
            path = parse_xpath(expr).to_path_pattern()
            once = normalize(path)
            assert normalize(once) == once

    def test_normalization_preserves_equivalence(self):
        """N(P) ≡ P via the exact containment test."""
        from repro.matching import equivalent

        for expr in ["/a/*//t", "/s/*//t", "/a//*/*//b", "/a/*//b/*//c"]:
            path = parse_xpath(expr).to_path_pattern()
            assert equivalent(
                path.to_tree_pattern(), normalize(path).to_tree_pattern()
            )

    def test_equivalent_forms_share_normal_form(self):
        """Proposition 3.2 on a family of equivalent spellings."""
        spellings = ["/s/*//t", "/s//*/t", "/s/*//t"]
        normals = {
            normalize(parse_xpath(e).to_path_pattern()) for e in spellings
        }
        assert len(normals) == 1


class TestStrTransform:
    def test_paper_rules(self):
        """Omit '/', replace '//' with '#'."""
        path = parse_xpath("/b//s/p").to_path_pattern()
        assert str_tokens(path) == ("b", "#", "s", "p")
        assert str_text(path) == "b#sp"

    def test_leading_descendant(self):
        path = parse_xpath("//b/s").to_path_pattern()
        assert str_tokens(path) == ("#", "b", "s")

    def test_wildcards_kept(self):
        path = parse_xpath("/a/*//*").to_path_pattern()
        assert str_tokens(path) == ("a", "*", "#", "*")


# ----------------------------------------------------------------------
# frozen, pre-canonicalised patterns
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _xmark_schema():
    return generate_xmark_document(scale=0.05, seed=9).schema


def _reference_canonical(node, ret):
    """The canonical form recomputed from scratch (sorted children,
    answer node marked), independent of the one stored at build."""
    marker = "!" if node is ret else ""
    constraints = ",".join(sorted(str(c) for c in node.constraints))
    children = sorted(_reference_canonical(c, ret) for c in node.children)
    return (
        f"{node.axis.value}{node.label}{marker}"
        f"[{constraints}]({';'.join(children)})"
    )


def _unfrozen_rebuild(pattern):
    """Copy the tree into builder nodes that no TreePattern wraps."""
    answer = []

    def build(node):
        clone = PatternNode(node.label, node.axis, node.constraints)
        if node is pattern.ret:
            answer.append(clone)
        for child in node.children:
            clone.add_child(build(child))
        return clone

    return build(pattern.root), answer[0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_parsed_generator_patterns_are_shared_and_canonical(seed, attrs):
    config = QueryGenConfig(
        num_nestedpath=2, attributes=("id",) if attrs else ()
    )
    generated = QueryGenerator(_xmark_schema(), config, seed=seed).generate()
    text = generated.to_xpath()
    parsed = parse_xpath(text)
    assert parse_xpath(text) is parsed
    assert parsed == generated
    root, ret = _unfrozen_rebuild(parsed)
    assert type(root) is PatternNode  # not frozen: no TreePattern built
    with pytest.raises(PatternError):
        parsed.root.new_child("z")
    assert parsed.canonical_string() == _reference_canonical(root, ret)
    assert parse_xpath(text).canonical_string() == parsed.canonical_string()
