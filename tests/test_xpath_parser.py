"""Tests for the XPath fragment parser."""

import pytest

from repro.errors import PatternError, XPathSyntaxError
from repro.xpath import Axis, parse_path, parse_xpath
from repro.xpath.pattern import PatternNode


class TestMainPath:
    def test_absolute_child_path(self):
        pattern = parse_xpath("/a/b/c")
        labels = [n.label for n in pattern.ret.root_path()]
        axes = [n.axis for n in pattern.ret.root_path()]
        assert labels == ["a", "b", "c"]
        assert axes == [Axis.CHILD, Axis.CHILD, Axis.CHILD]
        assert pattern.ret.label == "c"

    def test_descendant_axes(self):
        pattern = parse_xpath("//a//b/c")
        axes = [n.axis for n in pattern.ret.root_path()]
        assert axes == [Axis.DESCENDANT, Axis.DESCENDANT, Axis.CHILD]

    def test_bare_expression_means_descendant_root(self):
        """Paper style: 's[t]/p' is anchored anywhere, i.e. //s[t]/p."""
        pattern = parse_xpath("s[t]/p")
        assert pattern.root.axis is Axis.DESCENDANT
        assert pattern == parse_xpath("//s[t]/p")

    def test_wildcard_steps(self):
        pattern = parse_xpath("/a/*/b")
        middle = pattern.ret.parent
        assert middle.is_wildcard

    def test_answer_node_is_path_tail(self):
        pattern = parse_xpath("/a[b]/c[d]")
        assert pattern.ret.label == "c"

    def test_whitespace_tolerated(self):
        assert parse_xpath(" /a [ b ] / c ") == parse_xpath("/a[b]/c")


class TestPredicates:
    def test_simple_branch(self):
        pattern = parse_xpath("/a[b]/c")
        a = pattern.root
        assert sorted(child.label for child in a.children) == ["b", "c"]

    def test_branch_path(self):
        pattern = parse_xpath("/a[b/d]/c")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert [c.label for c in b.children] == ["d"]

    def test_dot_slash_spelling(self):
        assert parse_xpath("/a[./b/d]/c") == parse_xpath("/a[b/d]/c")

    def test_dot_descendant_spelling(self):
        pattern = parse_xpath("/a[.//b]/c")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert b.axis is Axis.DESCENDANT

    def test_slash_spellings_inside_predicate(self):
        assert parse_xpath("/a[//b]/c") == parse_xpath("/a[.//b]/c")
        assert parse_xpath("/a[/b]/c") == parse_xpath("/a[b]/c")

    def test_nested_predicates(self):
        pattern = parse_xpath("/a[b[c]/d]/e")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert sorted(child.label for child in b.children) == ["c", "d"]

    def test_multiple_predicates(self):
        pattern = parse_xpath("/a[b][c][d]/e")
        assert sorted(c.label for c in pattern.root.children) == list("bcde")

    def test_wildcard_in_predicate(self):
        pattern = parse_xpath("/a[*//d]/e")
        star = next(c for c in pattern.root.children if c.is_wildcard)
        assert star.children[0].label == "d"
        assert star.children[0].axis is Axis.DESCENDANT


class TestAttributePredicates:
    def test_existence(self):
        pattern = parse_xpath("//item[@id]/name")
        item = pattern.root
        assert item.constraints[0].name == "id"
        assert item.constraints[0].op is None

    def test_equality_string(self):
        pattern = parse_xpath("//item[@id='x7']/name")
        constraint = pattern.root.constraints[0]
        assert (constraint.op, constraint.value) == ("=", "x7")

    def test_comparison_number(self):
        pattern = parse_xpath("//person[@age>=30]")
        constraint = pattern.root.constraints[0]
        assert (constraint.op, constraint.value) == (">=", "30")

    def test_double_quoted_literal(self):
        pattern = parse_xpath('//a[@k="v"]')
        assert pattern.root.constraints[0].value == "v"

    def test_mixed_structural_and_attribute(self):
        pattern = parse_xpath("//a[@id][b]/c")
        assert len(pattern.root.constraints) == 1
        assert sorted(c.label for c in pattern.root.children) == ["b", "c"]


class TestErrors:
    @pytest.mark.parametrize(
        "expression",
        [
            "",
            "/",
            "//",
            "/a[",
            "/a]",
            "/a[]",
            "/a[b",
            "/a[@]",
            "/a[@k=]",
            "/a[@k='x]",
            "/a/b[.]",
            "/a/../b",
            "/a/b trailing",
            "/a[b]extra",
        ],
    )
    def test_syntax_errors(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)


class TestParsePath:
    def test_accepts_plain_path(self):
        pattern = parse_path("//a/b//c")
        assert pattern.is_path()

    def test_rejects_branches(self):
        with pytest.raises(XPathSyntaxError):
            parse_path("//a[b]/c")

    def test_rejects_attribute_predicates(self):
        with pytest.raises(XPathSyntaxError):
            parse_path("//a[@id]/c")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "expression",
        [
            "/a/b/c",
            "//a//b",
            "/a[b]/c",
            "/a[b/d][.//e]/c",
            "//a[*[d]]/e",
            "//item[@id='1'][name]/description",
            "s[f//i][t]/p",
        ],
    )
    def test_to_xpath_reparses_identically(self, expression):
        pattern = parse_xpath(expression)
        assert parse_xpath(pattern.to_xpath()) == pattern


class TestParseCache:
    """parse_xpath memoizes on the expression string and hands every
    caller the same frozen pattern — no caller can change it, so a
    later parse of the same expression always equals the first."""

    def test_cached_parse_is_one_shared_instance(self):
        from repro.xpath.parser import parse_cache_clear, parse_cache_info

        parse_cache_clear()
        first = parse_xpath("s[f//i][t]/p")
        hits = parse_cache_info().hits
        second = parse_xpath("s[f//i][t]/p")
        assert parse_cache_info().hits == hits + 1
        assert first is second
        assert first.canonical_string() is second.canonical_string()

    def test_caller_mutation_does_not_poison_cache(self):
        baseline = parse_xpath("//a[b]/c")
        key = baseline.canonical_string()
        shared = parse_xpath("//a[b]/c")
        with pytest.raises(PatternError):
            shared.ret.new_child("z", Axis.CHILD)
        with pytest.raises(PatternError):
            shared.ret.add_child(PatternNode("z"))
        with pytest.raises(PatternError):
            shared.root.label = "z"
        # Deliberate writes to frozen slots: each must raise.
        with pytest.raises(PatternError):
            shared.ret.constraints = ()  # xmvrlint: disable=L2
        with pytest.raises(PatternError):
            shared.ret = shared.root  # xmvrlint: disable=L2
        fresh = parse_xpath("//a[b]/c")
        assert fresh is baseline
        assert fresh.canonical_string() == key
        assert fresh.ret.is_leaf()

    def test_syntax_errors_are_not_cached(self):
        for _ in range(2):  # identical failures on repeat calls
            with pytest.raises(XPathSyntaxError):
                parse_xpath("//a[")
