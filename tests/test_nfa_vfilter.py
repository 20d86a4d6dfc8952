"""Tests for the VFILTER NFA and Algorithm 1."""

import random

import pytest

from repro.core import AcceptEntry, PathNFA, VFilter, View
from repro.matching import has_homomorphism
from repro.storage import KVStore
from repro.xpath import normalize, parse_path, parse_xpath, str_tokens

from conftest import random_pattern


def _tokens(expression):
    return str_tokens(normalize(parse_path(expression).to_path_pattern()))


def _nfa_with(*expressions):
    nfa = PathNFA()
    for index, expression in enumerate(expressions):
        path = normalize(parse_path(expression).to_path_pattern())
        nfa.insert(path, AcceptEntry(f"v{index}", 0, path.length))
    return nfa


def _accepts(nfa, expression):
    return bool(nfa.read(_tokens(expression)))


class TestNFAFragmentSemantics:
    """Each case checks the NFA against path-pattern containment."""

    @pytest.mark.parametrize(
        "view_path,probe,expected",
        [
            # /l fragment
            ("/a/b", "/a/b", True),
            ("/a/b", "/a//b", False),
            ("/a/b", "/a/*", False),   # wildcard probe more general
            ("/a/b", "/a/c", False),
            # /* fragment
            ("/a/*", "/a/b", True),
            ("/a/*", "/a/*", True),
            # a trailing wildcard is gap-like: /a/* ≡ /a//* contains
            # every probe guaranteeing a descendant under a
            ("/a/*", "/a//b", True),
            # but an *interior* /-wildcard stays exact-depth
            ("/a/*/x", "/a//b/x", False),
            # //l fragment
            ("/a//b", "/a/b", True),
            ("/a//b", "/a//b", True),
            ("/a//b", "/a/x/b", True),
            ("/a//b", "/a//x//b", True),
            ("/a//b", "/a/x/y/b", True),
            ("/a//b", "/a//x", False),
            ("/a//b", "/a/*", False),
            # //* fragment
            ("/a//*", "/a/b", True),
            ("/a//*", "/a//b", True),
            ("/a//*", "/a/*", True),
            ("/a//*", "/a//*", True),
            # root axis
            ("//a", "/a", True),
            ("//a", "/x/a", True),
            ("/a", "//a", False),
            # prefix extension: view contains longer query paths
            ("//b", "//b/c/d", True),
            ("/a/b", "/a/b//c", True),
            ("/a/b", "/a//b/c", False),
            # no cross-contamination between / and // exits
            ("/a/b", "/x//a/b", False),
        ],
    )
    def test_acceptance(self, view_path, probe, expected):
        nfa = _nfa_with(view_path)
        assert _accepts(nfa, probe) is expected

    def test_mixed_axes_no_false_suffix_sharing(self):
        """/l/x and //l/y must not leak into each other (the trap fixed
        during construction: //l/x ⋢ /l/x)."""
        nfa = _nfa_with("/a/l/x", "/a//l/y")
        assert _accepts(nfa, "/a/l/x")
        assert _accepts(nfa, "/a//l/y")
        assert _accepts(nfa, "/a/l/y")      # /a/l/y ⊑ /a//l/y
        assert not _accepts(nfa, "/a//l/x")  # ⋢ /a/l/x

    def test_prefix_sharing_reduces_states(self):
        shared = _nfa_with("/a/b/c", "/a/b/d", "/a/b//e")
        separate = sum(
            _nfa_with(expr).state_count - 1
            for expr in ("/a/b/c", "/a/b/d", "/a/b//e")
        )
        assert shared.state_count - 1 < separate

    def test_reachable_states_example(self):
        nfa = _nfa_with("/s/p")
        states = nfa.reachable_states(("s", "p"))
        assert states & set(nfa.accepting_states())

    def test_stored_bytes_grows_with_content(self):
        small = _nfa_with("/a/b")
        large = _nfa_with("/a/b", "/c/d//e", "/f/*/g")
        assert large.stored_bytes() > small.stored_bytes()

    def test_transition_count_tracked(self):
        nfa = _nfa_with("/a//b")
        assert nfa.transition_count >= 4


class TestVFilterAlgorithm1:
    def _views(self):
        return [
            View.from_xpath("V1", "s[t]/p"),
            View.from_xpath("V2", "s[.//f]/p"),
            View.from_xpath("V3", "s//*/t"),
            View.from_xpath("V4", "s[p]/f"),
        ]

    def test_candidates_paper_style(self):
        vfilter = VFilter()
        vfilter.add_views(self._views())
        result = vfilter.filter(parse_xpath("s[f//i][t]/p"))
        assert result.candidates == ("V1", "V2", "V4")

    def test_lists_sorted_by_length_descending(self):
        vfilter = VFilter()
        vfilter.add_views(
            [
                View.from_xpath("short", "//p"),
                View.from_xpath("long", "s/p"),
            ]
        )
        result = vfilter.filter(parse_xpath("s[t]/p"))
        path = next(p for p in result.query_paths if p.leaf_label() == "p")
        entries = result.lists[path]
        assert entries[0][0] == "long"
        assert entries[0][1] > entries[1][1]

    def test_lists_exclude_filtered_views(self):
        vfilter = VFilter()
        vfilter.add_views(
            [
                View.from_xpath("keep", "s/p"),
                # 'drop' has path //s/zzz never matched -> filtered; its
                # //s/p path must not appear in the lists.
                View.from_xpath("drop", "s[zzz]/p"),
            ]
        )
        result = vfilter.filter(parse_xpath("s[t]/p"))
        assert result.candidates == ("keep",)
        for entries in result.lists.values():
            assert all(view_id != "drop" for view_id, _ in entries)

    def test_view_path_not_double_counted(self):
        """A single view path matching two query paths must not make the
        view a candidate (NUM counts distinct view paths)."""
        vfilter = VFilter()
        vfilter.add_views([View.from_xpath("W", "a[b]/c")])  # D = {a/b, a/c}
        # both query paths (a/b twice) match only view path a/b
        result = vfilter.filter(parse_xpath("a[b]/b"))
        assert result.candidates == ()

    def test_duplicate_view_id_rejected(self):
        vfilter = VFilter()
        vfilter.add_view(View.from_xpath("V", "//a"))
        with pytest.raises(ValueError):
            vfilter.add_view(View.from_xpath("V", "//b"))

    def test_normalization_eliminates_false_negatives(self):
        """Example 3.2/3.3: s/*//t ≡ s//*/t must be accepted."""
        vfilter = VFilter()
        vfilter.add_views([View.from_xpath("W", "//s//*/t")])
        assert vfilter.filter(parse_xpath("//s/*//t")).candidates == ("W",)
        vfilter2 = VFilter()
        vfilter2.add_views([View.from_xpath("W", "//s/*//t")])
        assert vfilter2.filter(parse_xpath("//s//*/t")).candidates == ("W",)

    @pytest.mark.parametrize("seed", range(12))
    def test_no_false_negatives_random(self, seed):
        """Soundness: every view with a homomorphism to the query
        survives filtering."""
        rng = random.Random(seed)
        views = [
            View(f"v{i}", random_pattern(rng, max_nodes=4)) for i in range(15)
        ]
        vfilter = VFilter()
        vfilter.add_views(views)
        for _ in range(6):
            query = random_pattern(rng, max_nodes=5)
            candidates = set(vfilter.filter(query).candidates)
            for view in views:
                if has_homomorphism(view.pattern, query):
                    assert view.view_id in candidates, (
                        view.to_xpath(), query.to_xpath()
                    )

    def test_save_to_kvstore(self):
        vfilter = VFilter()
        vfilter.add_views(self._views())
        store = KVStore()
        written = vfilter.save(store)
        assert written > 0
        assert written == store.stored_bytes
        assert len(store) == vfilter.nfa.state_count + vfilter.view_count

    def test_save_load_roundtrip(self):
        vfilter = VFilter()
        vfilter.add_views(self._views())
        store = KVStore()
        vfilter.save(store)
        loaded = VFilter.load(store)
        query = parse_xpath("s[f//i][t]/p")
        original = vfilter.filter(query)
        recovered = loaded.filter(query)
        assert recovered.candidates == original.candidates
        assert recovered.lists == original.lists
        assert loaded.view("V1").to_xpath() == vfilter.view("V1").to_xpath()

    def test_loaded_filter_accepts_new_views(self):
        vfilter = VFilter()
        vfilter.add_views(self._views())
        store = KVStore()
        vfilter.save(store)
        loaded = VFilter.load(store)
        loaded.add_view(View.from_xpath("extra", "//s//i"))
        result = loaded.filter(parse_xpath("//s/f/i"))
        assert "extra" in result.candidates

    def test_view_lookup(self):
        vfilter = VFilter()
        views = self._views()
        vfilter.add_views(views)
        assert vfilter.view("V1") is views[0]
        assert vfilter.view_count == 4
        assert vfilter.views() == views
