"""Tests for homomorphism, evaluation, containment and minimization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import (
    branch_maps_into,
    contains,
    equivalent,
    evaluate,
    evaluate_boolean,
    evaluate_relative,
    feasible_anchors,
    feasible_pairs,
    has_homomorphism,
    minimize,
    satisfies_relative,
    subtree_maps_to,
    wildcard_run_bound,
)
from repro.xmltree import build_tree, encode_tree
from repro.xpath import parse_xpath

from conftest import brute_force_answers, random_pattern, random_tree


class TestHomomorphism:
    @pytest.mark.parametrize(
        "general,specific,expected",
        [
            # identical patterns
            ("/a/b", "/a/b", True),
            # child vs descendant
            ("/a//b", "/a/b", True),
            ("/a/b", "/a//b", False),
            # wildcard direction
            ("/a/*", "/a/b", True),
            ("/a/b", "/a/*", False),
            ("/a/*", "/a/*", True),
            # // maps across a longer chain
            ("/a//b", "/a/x/b", True),
            ("/a//b", "/a/x/y/b", True),
            # branch absorption
            ("//a[b]", "//a[b][c]", True),
            ("//a[b][c]", "//a[b]", False),
            # roots
            ("//b", "/a/b", True),
            ("/b", "//a/b", False),
            ("//a", "/a", True),
            ("/a", "//a", False),
            # deep branches
            ("//a[b]/c", "//a[b/d]/c", True),
            ("//a[b/d]/c", "//a[b]/c", False),
            # descendant branch
            ("//a[.//d]", "//a[b/d]", True),
            ("//a[b/d]", "//a[.//d]", False),
        ],
    )
    def test_directional_cases(self, general, specific, expected):
        assert has_homomorphism(
            parse_xpath(general), parse_xpath(specific)
        ) is expected

    def test_attribute_constraints_direction(self):
        weaker = parse_xpath("//a/b")
        stronger = parse_xpath("//a[@id='1']/b")
        assert has_homomorphism(weaker, stronger)
        assert not has_homomorphism(stronger, weaker)

    def test_attribute_constraints_exact_match(self):
        first = parse_xpath("//a[@id='1']/b")
        second = parse_xpath("//a[@id='2']/b")
        assert not has_homomorphism(first, second)
        assert has_homomorphism(first, parse_xpath("//a[@id='1']/b"))

    def test_feasible_anchors_simple(self):
        view = parse_xpath("s[t]/p")
        query = parse_xpath("s[f//i][t]/p")
        anchors = feasible_anchors(view, query)
        assert [node.label for node in anchors] == ["p"]

    def test_feasible_anchors_multiple(self):
        view = parse_xpath("//a")
        query = parse_xpath("//a/a/b")
        anchors = feasible_anchors(view, query)
        assert sorted(node.label for node in anchors) == ["a", "a"]

    def test_feasible_pairs_upward_consistency(self):
        # The view's b must map under an a that also hosts the c branch.
        view = parse_xpath("//a[c]/b")
        query = parse_xpath("//x[a/b]/a[c]/b")
        anchors = feasible_anchors(view, query)
        # only the b under a[c] qualifies
        assert len(anchors) == 1
        assert anchors[0].parent.children[0].label in ("c", "b")

    def test_feasible_pairs_cover_all_nodes(self):
        view = parse_xpath("//a/b")
        query = parse_xpath("//a/b")
        pairs = feasible_pairs(view, query)
        assert all(len(targets) == 1 for targets in pairs.values())

    def test_no_homomorphism_empty_anchors(self):
        view = parse_xpath("/x/y")
        query = parse_xpath("/a/b")
        assert feasible_anchors(view, query) == []


class TestBranchMapsInto:
    def test_child_branch_needs_child_edge(self):
        query = parse_xpath("//a[b]/c")
        view = parse_xpath("//a[.//b]/c")
        branch = next(c for c in query.root.children if c.label == "b")
        # query /b cannot be implied by view //b
        assert not branch_maps_into(branch, view.root)

    def test_descendant_branch_accepts_deeper(self):
        query = parse_xpath("//a[.//d]/c")
        view = parse_xpath("//a[b/d]/c")
        branch = next(c for c in query.root.children if c.label == "d")
        assert branch_maps_into(branch, view.root)

    def test_whole_branch_required(self):
        query = parse_xpath("//a[b[c][d]]/e")
        view = parse_xpath("//a[b[c]]/e")
        branch = next(c for c in query.root.children if c.label == "b")
        assert not branch_maps_into(branch, view.root)

    def test_subtree_maps_to(self):
        general = parse_xpath("//a[b]").root
        specific = parse_xpath("//a[b][c]").root
        assert subtree_maps_to(general, specific)
        assert not subtree_maps_to(specific, general)


class TestEvaluate:
    def test_simple_answers(self):
        tree = build_tree(("r", [("a", [("b", ["c"]), "d"]), ("a", ["d"])]))
        answers = evaluate(parse_xpath("//a[b/c]/d"), tree)
        assert len(answers) == 1
        assert next(iter(answers)).label == "d"

    def test_absolute_root_restricts(self):
        tree = build_tree(("r", [("r", ["x"])]))
        assert len(evaluate(parse_xpath("/r"), tree)) == 1
        assert len(evaluate(parse_xpath("//r"), tree)) == 2

    def test_wildcard(self):
        tree = build_tree(("r", ["a", "b"]))
        assert len(evaluate(parse_xpath("/r/*"), tree)) == 2

    def test_attribute_filtering(self):
        tree = build_tree(("r", ["a", "a"]))
        tree.root.children[0].attributes["id"] = "1"
        assert len(evaluate(parse_xpath("//a[@id]"), tree)) == 1
        assert len(evaluate(parse_xpath("//a[@id='1']"), tree)) == 1
        assert len(evaluate(parse_xpath("//a[@id='2']"), tree)) == 0

    def test_numeric_attribute_comparison(self):
        tree = build_tree(("r", ["a", "a"]))
        tree.root.children[0].attributes["n"] = "5"
        tree.root.children[1].attributes["n"] = "11"
        assert len(evaluate(parse_xpath("//a[@n>=10]"), tree)) == 1

    def test_boolean_evaluation(self):
        tree = build_tree(("r", [("a", ["b"])]))
        assert evaluate_boolean(parse_xpath("//a/b"), tree)
        assert not evaluate_boolean(parse_xpath("//a/c"), tree)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=18, max_depth=4)
        pattern = random_pattern(rng, max_nodes=4)
        assert evaluate(pattern, tree) == brute_force_answers(pattern, tree)

    def test_relative_evaluation(self):
        tree = build_tree(("r", [("a", [("b", ["c"]), "d"])]))
        a = tree.root.children[0]
        sub = parse_xpath("//a[b/c]/d").subtree_at(parse_xpath("//a[b/c]/d").root)
        # anchored at the concrete a node
        assert satisfies_relative(sub, a)
        answers = evaluate_relative(sub, a)
        assert {n.label for n in answers} == {"a"}

    def test_relative_respects_anchor_label(self):
        tree = build_tree(("r", [("a", ["b"])]))
        pattern = parse_xpath("//x[b]").subtree_at(parse_xpath("//x[b]").root)
        assert not satisfies_relative(pattern, tree.root.children[0])


class TestContainment:
    @pytest.mark.parametrize(
        "containee,container,expected",
        [
            ("/a/b", "/a/b", True),
            ("/a/b", "/a//b", True),
            ("/a//b", "/a/b", False),
            ("/a/b", "//b", True),
            ("/a/*/b", "/a//b", True),
            ("//a[b][c]", "//a[b]", True),
            ("//a[b]", "//a[b][c]", False),
            ("//a", "/a", False),
            ("/a", "//a", True),
            ("/a/b/c", "/a/*/c", True),
            ("/a/*/c", "/a/b/c", False),
        ],
    )
    def test_classic_cases(self, containee, container, expected):
        assert contains(
            parse_xpath(containee), parse_xpath(container)
        ) is expected

    def test_containment_without_structural_hom_is_detected(self):
        """Homomorphism is sound: hom ⇒ containment (checked on random
        pattern pairs via the exact canonical-model test)."""
        rng = random.Random(3)
        checked = 0
        for _ in range(120):
            first = random_pattern(rng, max_nodes=4)
            second = random_pattern(rng, max_nodes=4)
            if has_homomorphism(second, first):
                checked += 1
                assert contains(first, second), (
                    first.to_xpath(), second.to_xpath()
                )
        assert checked > 5

    def test_wildcard_run_bound(self):
        assert wildcard_run_bound(parse_xpath("/a/b")) == 1
        assert wildcard_run_bound(parse_xpath("/a/*/*/b")) == 3
        assert wildcard_run_bound(parse_xpath("/a[*/*]/*")) == 3

    def test_equivalent(self):
        assert equivalent(parse_xpath("/s/*//t"), parse_xpath("/s//*/t"))
        assert not equivalent(parse_xpath("/a/b"), parse_xpath("/a//b"))


class TestMinimize:
    def test_removes_absorbed_branch(self):
        pattern = parse_xpath("//a[b][b/c]/d")
        minimized = minimize(pattern)
        # [b] is implied by [b/c]
        assert minimized.size() == 4

    def test_keeps_distinct_branches(self):
        pattern = parse_xpath("//a[b][c]/d")
        assert minimize(pattern).size() == pattern.size()

    def test_descendant_branch_absorption(self):
        pattern = parse_xpath("//a[.//c][b/c]/d")
        minimized = minimize(pattern)
        assert minimized.size() == 4

    def test_never_removes_answer_spine(self):
        pattern = parse_xpath("//a[b]/b")  # branch b duplicates spine b
        minimized = minimize(pattern)
        assert minimized.ret.label == "b"
        assert minimized == parse_xpath("//a/b")

    def test_minimization_preserves_equivalence(self):
        for expr in ["//a[b][b/c]/d", "//a[.//c][b/c]/d", "//a[b][b]/c"]:
            pattern = parse_xpath(expr)
            minimized = minimize(pattern)
            assert equivalent(pattern, minimized)

    def test_minimized_copy_leaves_input(self):
        pattern = parse_xpath("//a[b][b/c]/d")
        size = pattern.size()
        minimized = minimize(pattern)
        assert minimized is not pattern
        assert minimized.size() == size - 1
        assert pattern.size() == size
        assert parse_xpath("//a[b][b/c]/d") is pattern

    def test_idempotent(self):
        pattern = minimize(parse_xpath("//a[b][b/c][b/c/d]/e"))
        again = minimize(pattern)
        assert again is pattern


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_hypothesis_evaluator_vs_brute_force(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=14, max_depth=4)
    pattern = random_pattern(rng, max_nodes=4)
    assert evaluate(pattern, tree) == brute_force_answers(pattern, tree)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_hypothesis_hom_soundness(seed):
    """hom(P→Q) implies Q ⊑ P (exact containment check)."""
    rng = random.Random(seed)
    general = random_pattern(rng, max_nodes=4)
    specific = random_pattern(rng, max_nodes=4)
    if has_homomorphism(general, specific):
        assert contains(specific, general)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_hypothesis_path_hom_completeness(seed):
    """For *wildcard-free* path containers, hom is complete (the regime
    of Theorem 3.1 / Miklau-Suciu): containment implies homomorphism.
    Wildcards break completeness even for paths — see
    ``test_known_wildcard_incompleteness``."""
    rng = random.Random(seed)
    container = random_pattern(rng, max_nodes=3, wildcards=False)
    containee = random_pattern(rng, max_nodes=3)
    if not container.is_path():
        return
    if contains(containee, container):
        assert has_homomorphism(container, containee), (
            container.to_xpath(), containee.to_xpath()
        )


@pytest.mark.parametrize(
    "containee,container",
    [
        # all-wildcard containers mean "depth ≥ k"
        ("//d/*", "/*"),
        ("/a//b", "/*/*"),
        # a /-* branch is implied by any descendant
        ("/b[.//b]", "/b[*]"),
        ("/b//c", "/b/*"),
    ],
)
def test_known_wildcard_incompleteness(containee, container):
    """Documented corners where containment holds with no homomorphism
    (wildcard degeneracies).  The VFILTER invariant is stated against
    homomorphism — the relation the whole pipeline uses — so these do
    not affect the system; they are pinned here so a future 'fix' to the
    homomorphism cannot silently change semantics."""
    assert contains(parse_xpath(containee), parse_xpath(container))
    assert not has_homomorphism(
        parse_xpath(container), parse_xpath(containee)
    )
