"""Tests for the beyond-the-paper extensions: cost-based selection,
maximal contained rewriting, and VFILTER attribute pruning."""

import random

import pytest

from repro import MaterializedViewSystem, encode_tree
from repro.core import (
    VFilter,
    View,
    maximal_contained_rewriting,
    select_cost_based,
)
from repro.errors import ViewNotAnswerableError
from repro.matching import has_homomorphism
from repro.xmltree import build_tree
from repro.xpath import parse_xpath

from conftest import random_pattern, random_tree


def _sizes(mapping):
    return mapping.__getitem__


class TestCostBasedSelection:
    def test_answers_query(self):
        query = parse_xpath("//a[b][c]/e")
        views = [
            View.from_xpath("V0", "//a[b]/e"),
            View.from_xpath("V1", "//a[c]/e"),
        ]
        selection = select_cost_based(
            views, query, _sizes({"V0": 100, "V1": 100})
        )
        assert sorted(selection.view_ids) == ["V0", "V1"]

    def test_prefers_cheap_combination_over_single_huge_view(self):
        query = parse_xpath("//a[b][c]/e")
        views = [
            View.from_xpath("big", "//a[b][c]/e"),
            View.from_xpath("s1", "//a[b]/e"),
            View.from_xpath("s2", "//a[c]/e"),
        ]
        sizes = {"big": 10_000_000, "s1": 10, "s2": 10}
        selection = select_cost_based(views, query, _sizes(sizes))
        assert sorted(selection.view_ids) == ["s1", "s2"]

    def test_prefers_single_view_when_cheap(self):
        query = parse_xpath("//a[b][c]/e")
        views = [
            View.from_xpath("big", "//a[b][c]/e"),
            View.from_xpath("s1", "//a[b]/e"),
            View.from_xpath("s2", "//a[c]/e"),
        ]
        sizes = {"big": 10, "s1": 10, "s2": 10}
        selection = select_cost_based(views, query, _sizes(sizes))
        assert selection.view_ids == ["big"]

    def test_ensures_delta(self):
        query = parse_xpath("//a[b]/c")
        views = [
            View.from_xpath("pred", "//a[c]/b"),  # covers b, no delta
            View.from_xpath("delta", "//a/c"),
        ]
        selection = select_cost_based(
            views, query, _sizes({"pred": 1, "delta": 1000})
        )
        assert "delta" in selection.view_ids

    def test_unanswerable(self):
        query = parse_xpath("//a[b]/c")
        with pytest.raises(ViewNotAnswerableError):
            select_cost_based(
                [View.from_xpath("V", "//x/y")], query, _sizes({"V": 1})
            )

    def test_redundancy_removed(self):
        query = parse_xpath("//a[b]/c")
        views = [
            View.from_xpath("exact", "//a[b]/c"),
            View.from_xpath("loose", "//a/c"),
        ]
        selection = select_cost_based(
            views, query, _sizes({"exact": 10, "loose": 5})
        )
        assert selection.view_ids == ["exact"]

    @pytest.mark.parametrize("seed", range(10))
    def test_end_to_end_correct(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=25)
        system = MaterializedViewSystem(encode_tree(tree))
        for index in range(6):
            system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
        query = random_pattern(rng, max_nodes=4)
        try:
            selection = select_cost_based(
                system.materialized_views(),
                query,
                system.fragments.fragment_bytes,
            )
        except ViewNotAnswerableError:
            return
        from repro.core.rewrite import rewrite

        result = rewrite(
            selection,
            query,
            system.fragments,
            system.document.fst,
        )
        assert list(result.codes) == system.direct_codes(query)


class TestMaximalContainedRewriting:
    def _system(self):
        tree = build_tree(
            ("r", [
                ("a", [("b", ["c"]), "d"]),
                ("a", ["d"]),
                ("a", [("b", []), "d"]),
            ])
        )
        return MaterializedViewSystem(encode_tree(tree))

    def test_contained_view_contributes(self):
        system = self._system()
        # view more restrictive than the query: all its answers qualify
        system.register_view("V", "//a[b/c]/d")
        query = parse_xpath("//a[b]/d")
        result = maximal_contained_rewriting(
            system.materialized_views(), query,
            system.fragments, system.document.fst,
        )
        truth = set(system.direct_codes(query))
        assert set(result.codes) <= truth
        assert result.codes  # the a[b/c] answer is certain
        assert not result.is_exact

    def test_equivalent_view_gives_exact(self):
        system = self._system()
        system.register_view("V", "//a[b]/d")
        query = parse_xpath("//a[b]/d")
        result = maximal_contained_rewriting(
            system.materialized_views(), query,
            system.fragments, system.document.fst,
        )
        assert result.is_exact
        assert result.codes == system.direct_codes(query)

    def test_more_general_view_compensated(self):
        system = self._system()
        system.register_view("V", "//a/d")  # more general than the query
        query = parse_xpath("//a[b]/d")
        result = maximal_contained_rewriting(
            system.materialized_views(), query,
            system.fragments, system.document.fst,
        )
        # single-view equivalent rewriting applies: [b] is checkable? No —
        # b is NOT under d, so V alone cannot answer; no contribution.
        assert result.codes == []

    def test_union_of_contributions(self):
        system = self._system()
        system.register_view("V1", "//a[b/c]/d")
        system.register_view("V2", "//a[b]/d")  # equivalent -> exact
        query = parse_xpath("//a[b]/d")
        result = maximal_contained_rewriting(
            system.materialized_views(), query,
            system.fragments, system.document.fst,
        )
        assert result.is_exact
        assert result.codes == system.direct_codes(query)

    @pytest.mark.parametrize("seed", range(15))
    def test_always_contained_property(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=25)
        system = MaterializedViewSystem(encode_tree(tree))
        for index in range(6):
            system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
        query = random_pattern(rng, max_nodes=4)
        result = maximal_contained_rewriting(
            system.materialized_views(), query,
            system.fragments, system.document.fst,
        )
        truth = set(system.direct_codes(query))
        assert set(result.codes) <= truth
        if result.is_exact:
            assert set(result.codes) == truth


class TestAttributePruning:
    def test_prunes_constrained_views(self):
        vfilter = VFilter(attribute_pruning=True)
        vfilter.add_views([
            View.from_xpath("plain", "//a/b"),
            View.from_xpath("constrained", "//a[@id='1']/b"),
        ])
        result = vfilter.filter(parse_xpath("//a/b"))
        assert result.candidates == ("plain",)

    def test_keeps_views_with_matching_constraints(self):
        vfilter = VFilter(attribute_pruning=True)
        vfilter.add_views([
            View.from_xpath("constrained", "//a[@id='1']/b"),
        ])
        result = vfilter.filter(parse_xpath("//a[@id='1'][c]/b"))
        assert result.candidates == ("constrained",)

    def test_disabled_keeps_everything_structural(self):
        vfilter = VFilter(attribute_pruning=False)
        vfilter.add_views([
            View.from_xpath("constrained", "//a[@id='1']/b"),
        ])
        result = vfilter.filter(parse_xpath("//a/b"))
        assert result.candidates == ("constrained",)

    @pytest.mark.parametrize("seed", range(8))
    def test_pruning_soundness_random(self, seed):
        """Pruning never drops a view with a homomorphism to the query."""
        rng = random.Random(seed)
        views = []
        for index in range(12):
            pattern = random_pattern(rng, max_nodes=4)
            views.append(View(f"v{index}", pattern))
        vfilter = VFilter(attribute_pruning=True)
        vfilter.add_views(views)
        for _ in range(4):
            query = random_pattern(rng, max_nodes=5)
            candidates = set(vfilter.filter(query).candidates)
            for view in views:
                if has_homomorphism(view.pattern, query):
                    assert view.view_id in candidates
