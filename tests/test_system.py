"""Integration tests for MaterializedViewSystem."""

import pytest

from repro import MaterializedViewSystem, ViewNotAnswerableError, encode_tree
from repro.storage import KVStore
from repro.xmltree import build_tree


BOOK = ("b", [
    "t", "a", "a",
    ("s", ["t", "p", ("f", ["i"])]),
    ("s", ["t", "p", "p",
           ("s", ["t", "p", ("f", ["i"]), "f"]),
           ("s", ["t", "p"]),
          ]),
])


@pytest.fixture
def system():
    doc = encode_tree(build_tree(BOOK))
    sys_ = MaterializedViewSystem(doc)
    assert sys_.register_view("V1", "s[t]/p")
    assert sys_.register_view("V4", "s[p]/f")
    assert sys_.register_view("V5", "//s//t")
    return sys_


class TestRegistration:
    def test_register_and_count(self, system):
        assert system.view_count == 3
        assert system.view("V1").to_xpath() == "//s[t]/p"

    def test_duplicate_rejected(self, system):
        with pytest.raises(ValueError):
            system.register_view("V1", "//s")

    def test_cap_excludes_view(self):
        doc = encode_tree(build_tree(BOOK))
        tiny = MaterializedViewSystem(doc, fragment_cap=8)
        assert not tiny.register_view("big", "//s")
        assert tiny.view_count == 0

    def test_register_views_bulk(self):
        doc = encode_tree(build_tree(BOOK))
        sys_ = MaterializedViewSystem(doc)
        good = sys_.register_views({"A": "//s/p", "B": "//s/t"})
        assert good == ["A", "B"]


class TestAnswering:
    @pytest.mark.parametrize("strategy", ["HV", "MV", "MN", "CB"])
    def test_all_strategies_correct(self, system, strategy):
        query = "s[f//i][t]/p"
        outcome = system.answer(query, strategy)
        assert outcome.codes == system.direct_codes(query)
        assert outcome.strategy == strategy
        assert outcome.total_seconds >= outcome.lookup_seconds >= 0

    def test_unknown_strategy(self, system):
        with pytest.raises(ValueError):
            system.answer("//s", "XX")

    def test_unanswerable_raises(self, system):
        with pytest.raises(ViewNotAnswerableError):
            system.answer("//a")  # author views not materialized

    def test_try_answer_returns_none(self, system):
        assert system.try_answer("//a") is None
        assert system.try_answer("//s/t") is not None

    def test_candidates_recorded_for_filtered_strategies(self, system):
        outcome = system.answer("s[f//i][t]/p", "HV")
        assert "V1" in outcome.candidates
        assert outcome.filter_result is not None
        mn = system.answer("s[f//i][t]/p", "MN")
        assert mn.candidates == ()
        assert mn.filter_result is None

    def test_answer_contained(self, system):
        query = "s[f//i][t]/p"
        result = system.answer_contained(query)
        truth = set(system.direct_codes(query))
        assert set(result.codes) <= truth

    def test_answer_contained_exact_with_equivalent_view(self, system):
        result = system.answer_contained("//s[t]/p")
        assert result.is_exact
        assert list(result.codes) == system.direct_codes("//s[t]/p")

    def test_pattern_object_accepted(self, system):
        from repro.xpath import parse_xpath

        pattern = parse_xpath("//s/t")
        outcome = system.answer(pattern)
        assert outcome.codes == system.direct_codes(pattern)


class TestBaselines:
    @pytest.mark.parametrize(
        "query", ["s[f//i][t]/p", "//s/t", "/b/s/s//i", "//s[p]/f"]
    )
    def test_bn_bf_match_truth(self, system, query):
        truth = system.direct_codes(query)
        assert system.answer_bn(query).codes == truth
        assert system.answer_bf(query).codes == truth

    @pytest.mark.parametrize("query", ["s[f//i][t]/p", "//s/t", "/b/s/s//i"])
    def test_tj_runs_off_packed_streams(self, system, query):
        assert system.answer_tj(query).codes == system.direct_codes(query)
        streams = system._stream_index
        assert streams is not None and streams.stored_bytes > 0
        codes = streams.all_codes()
        assert codes and all(isinstance(code, bytes) for code in codes)
        assert all(isinstance(code, bytes) for code in streams.stream("p"))

    def test_index_sizes_reported(self, system):
        sizes = system.index_sizes()
        assert sizes["BF"] >= sizes["BN"] * 0  # both present
        assert sizes["BN"] > 0 and sizes["BF"] > 0


class TestPersistentBackend:
    def test_fragments_in_kvstore(self, tmp_path):
        doc = encode_tree(build_tree(BOOK))
        path = str(tmp_path / "frags.db")
        with KVStore(path) as store:
            sys_ = MaterializedViewSystem(doc, store=store)
            sys_.register_view("V1", "s[t]/p")
            outcome = sys_.answer("//s[t]/p")
            assert outcome.codes == sys_.direct_codes("//s[t]/p")
        # fragments survive on disk
        with KVStore(path) as store:
            from repro.storage import FragmentStore

            fragments = FragmentStore(doc, store)
            assert fragments.is_materialized("V1")


class TestReopen:
    def test_reopen_answers_without_rematerializing(self, tmp_path):
        doc = encode_tree(build_tree(BOOK))
        path = str(tmp_path / "system.db")
        with KVStore(path) as store:
            original = MaterializedViewSystem(doc, store=store)
            original.register_view("V1", "s[t]/p")
            original.register_view("V4", "s[p]/f")
            truth = original.direct_codes("s[f//i][t]/p")
            original.fragments.store.flush()
        # New session: same document, state from disk only.
        doc2 = encode_tree(build_tree(BOOK))
        with KVStore(path) as store:
            reopened = MaterializedViewSystem.reopen(doc2, store)
            assert reopened.view_count == 2
            outcome = reopened.answer("s[f//i][t]/p")
            assert outcome.codes == truth
            assert sorted(outcome.view_ids) == ["V1", "V4"]

    def test_reopen_keeps_capped_views_excluded(self, tmp_path):
        doc = encode_tree(build_tree(BOOK))
        path = str(tmp_path / "system.db")
        with KVStore(path) as store:
            original = MaterializedViewSystem(doc, fragment_cap=8, store=store)
            assert not original.register_view("big", "//s")
        doc2 = encode_tree(build_tree(BOOK))
        with KVStore(path) as store:
            reopened = MaterializedViewSystem.reopen(doc2, store, fragment_cap=8)
            assert reopened.view_count == 0
            assert reopened.try_answer("//s") is None

    def test_reopen_allows_more_views(self, tmp_path):
        doc = encode_tree(build_tree(BOOK))
        path = str(tmp_path / "system.db")
        with KVStore(path) as store:
            MaterializedViewSystem(doc, store=store).register_view("V1", "s[t]/p")
        doc2 = encode_tree(build_tree(BOOK))
        with KVStore(path) as store:
            reopened = MaterializedViewSystem.reopen(doc2, store)
            reopened.register_view("V5", "//s//t")
            outcome = reopened.answer("//s/t")
            assert outcome.codes == reopened.direct_codes("//s/t")
