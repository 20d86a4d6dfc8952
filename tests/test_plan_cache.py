"""Plan cache, coverage memo and batch registration.

The invariants under test:

1. Warm (cached-plan) answers are identical to cold answers, for every
   strategy, including negative (unanswerable) outcomes.
2. ``register_view`` invalidates the plan cache, and maintenance
   inserts/deletes drop or patch the plans they flag — a warm system
   never serves answers a cold system built at the same state would
   not produce (property test interleaving all three operations).
3. The coverage memo serves repeated (view, query) pairs without
   recomputation and across strategies.
4. Batch registration produces a byte-identical fragment store to
   one-by-one registration, publishes one epoch per batch, and leaves
   the catalog consistent with the store when a view fails mid-batch.
"""

import gc
import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import MaterializedViewSystem, ViewNotAnswerableError, encode_tree, parse_xml
from repro.bench import TEST_QUERIES
from repro.core import contracts
from repro.delta.maintenance import DocumentEditor
from repro.obs import NULL_TRACE, current_trace
from repro.core.plancache import PlanCache, PlanEntry
from repro.service import build_query_mix, zipf_weights
from repro.xmltree.tree import XMLNode
from repro.xpath.parser import parse_xpath
from repro.xpath.pattern import PatternNode

from conftest import random_pattern, random_tree, xmark_twin

BOOK_XML = """
<b>
  <t/> <a/>
  <s> <t/> <p/> <f><i/></f> </s>
  <s> <t/> <p/> <p/>
    <s> <t/> <p/> <f><i/></f> </s>
    <s> <t/> <p/> </s>
  </s>
</b>
"""


def _book_system(**kwargs) -> MaterializedViewSystem:
    document = encode_tree(parse_xml(BOOK_XML))
    system = MaterializedViewSystem(document, **kwargs)
    system.register_view("V1", "s[t]/p")
    system.register_view("V4", "s[p]/f")
    return system


# ----------------------------------------------------------------------
# PlanCache unit behavior
# ----------------------------------------------------------------------
def test_plan_cache_lru_eviction():
    cache = PlanCache(maxsize=2)
    pattern = parse_xpath("//a")
    for key in ("k1", "k2", "k3"):
        cache.put(key, "HV", PlanEntry(pattern))
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get("k1", "HV") is None  # evicted (oldest)
    assert cache.get("k3", "HV") is not None


def test_plan_cache_disabled():
    cache = PlanCache(maxsize=0)
    cache.put("k", "HV", PlanEntry(parse_xpath("//a")))
    assert len(cache) == 0 and not cache.enabled


def test_plan_cache_clear_counts_invalidations():
    cache = PlanCache()
    cache.clear()  # empty clear is not an invalidation
    assert cache.stats.invalidations == 0
    cache.put("k", "HV", PlanEntry(parse_xpath("//a")))
    cache.clear()
    assert cache.stats.invalidations == 1 and len(cache) == 0


# ----------------------------------------------------------------------
# Warm answers and statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["HV", "MV", "MN", "CB"])
def test_warm_answer_equals_cold(strategy):
    system = _book_system()
    query = "s[f//i][t]/p"
    cold = system.answer(query, strategy)
    warm = system.answer(query, strategy)
    assert not cold.plan_cache_hit and warm.plan_cache_hit
    assert warm.codes == cold.codes == system.direct_codes(query)
    assert warm.view_ids == cold.view_ids
    stats = system.stats()
    assert stats["plan_cache"]["hits"] >= 1


def test_warm_codes_are_independent_copies():
    system = _book_system()
    first = system.answer("s[t]/p")
    first.codes.append((9, 9, 9))  # caller mutates its outcome
    second = system.answer("s[t]/p")
    assert (9, 9, 9) not in second.codes


def test_answer_candidates_cannot_change_the_cached_plan():
    """``candidates`` and the rewrite's ``codes`` are the plan's own
    tuples: shared by every hit without a copy, and no caller can edit
    them, through the outcome or through its intermediate results."""
    system = _book_system()
    cold = system.answer("s[f//i][t]/p")
    codes = cold.rewrite_result.codes
    with pytest.raises(AttributeError):
        cold.candidates.append("BOGUS")
    with pytest.raises(AttributeError):
        cold.filter_result.candidates.append("BOGUS")
    with pytest.raises(AttributeError):
        cold.rewrite_result.codes.append((9, 9))
    warm = system.answer("s[f//i][t]/p")
    with pytest.raises(AttributeError):
        warm.filter_result.candidates.append("BOGUS")
    with pytest.raises(AttributeError):
        warm.rewrite_result.codes.append((9, 9))
    again = system.answer("s[f//i][t]/p")
    assert warm.plan_cache_hit and again.plan_cache_hit
    assert warm.candidates is warm.filter_result.candidates
    assert "BOGUS" not in again.candidates
    assert "BOGUS" not in again.filter_result.candidates
    assert again.candidates is warm.candidates is cold.candidates
    assert again.rewrite_result.codes == codes
    assert (9, 9) not in again.codes
    assert again.codes == system.direct_codes("s[f//i][t]/p")


def test_equivalent_spellings_share_a_plan():
    system = _book_system()
    system.answer("s[t]/p")
    outcome = system.answer("//s[t]/p")  # same canonical pattern
    assert outcome.plan_cache_hit


def test_negative_outcome_is_cached_and_replayed():
    system = _book_system()
    with pytest.raises(ViewNotAnswerableError) as cold:
        system.answer("//a")
    with pytest.raises(ViewNotAnswerableError) as warm:
        system.answer("//a")
    assert str(warm.value) == str(cold.value)
    assert warm.value.uncovered == cold.value.uncovered
    assert system.stats()["plan_cache"]["hits"] == 1


def test_coverage_memo_shared_across_strategies():
    system = _book_system()
    query = "s[f//i][t]/p"
    system.answer(query, "MN")
    computed = system._memo.computed
    system.answer(query, "MV")  # same (view, query) pairs
    assert system._memo.computed == computed
    assert system._memo.served > 0


def test_plan_cache_can_be_disabled():
    system = _book_system(plan_cache_size=0)
    query = "s[f//i][t]/p"
    first = system.answer(query)
    second = system.answer(query)
    assert not first.plan_cache_hit and not second.plan_cache_hit
    assert second.codes == system.direct_codes(query)


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_register_view_invalidates_plans():
    system = _book_system()
    query = "s[f//i][t]/p"
    system.answer(query)
    system.register_view("V9", "s/f")
    outcome = system.answer(query)
    assert not outcome.plan_cache_hit  # cache was cleared
    assert outcome.codes == system.direct_codes(query)
    assert system.stats()["plan_cache"]["invalidations"] >= 1


def test_register_view_unlocks_cached_negative():
    document = encode_tree(parse_xml(BOOK_XML))
    system = MaterializedViewSystem(document)
    system.register_view("V1", "s[t]/p")
    with pytest.raises(ViewNotAnswerableError):
        system.answer("s[p]/f")
    system.register_view("V4", "s[p]/f")
    outcome = system.answer("s[p]/f")  # stale negative must not replay
    assert outcome.codes == system.direct_codes("s[p]/f")


def test_maintenance_insert_splices_cached_plan():
    system = _book_system()
    query = "s[t]/p"
    before = system.answer(query)
    editor = DocumentEditor(system)
    # Grow a new paragraph under the first section (code prefix 0.3).
    target = next(
        node for node in system.document.tree.iter_nodes() if node.label == "s"
    )
    report = editor.insert_subtree(target.dewey, XMLNode("p"))
    assert (report.plans_maintained, report.plans_spliced) == (1, 1)
    after = system.answer(query)
    assert after.plan_cache_hit
    assert after.codes == system.direct_codes(query)
    assert len(after.codes) == len(before.codes) + 1


def test_maintenance_delete_drops_cached_answers_by_range():
    system = _book_system()
    query = "s[t]/p"
    before = system.answer(query)
    target = min(code for code in before.codes)
    report = DocumentEditor(system).delete_subtree(target)
    assert (report.plans_maintained, report.plans_spliced) == (1, 1)
    after = system.answer(query)
    assert after.plan_cache_hit
    assert after.codes == system.direct_codes(query)
    assert target not in after.codes
    assert target not in after.rewrite_result.answers


# ----------------------------------------------------------------------
# Property: interleaved mutations never leave stale answers
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_interleaved_mutations_match_cold_system(seed):
    """Drive one long-lived (warm) system through an interleaving of
    answers, view registrations, inserts and deletes; after every step,
    a cold system built from the current state must agree on every
    strategy's answer (or on unanswerability)."""
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=24, max_depth=4)
    document = encode_tree(tree)
    warm = MaterializedViewSystem(document)
    editor = DocumentEditor(warm)
    for index in range(4):
        warm.register_view(f"v{index}", random_pattern(rng, max_nodes=4))
    queries = [random_pattern(rng, max_nodes=4) for _ in range(3)]

    def check_against_cold():
        cold = MaterializedViewSystem(document, plan_cache_size=0)
        for view in warm._views.values():
            cold.register_view(view.view_id, view.pattern)
        for query in queries:
            for strategy in ("HV", "MN"):
                try:
                    expected = cold.answer(query, strategy).codes
                except ViewNotAnswerableError:
                    expected = None
                try:
                    actual = warm.answer(query, strategy).codes
                except ViewNotAnswerableError:
                    actual = None
                assert actual == expected, (
                    strategy,
                    query.to_xpath(mark_answer=True),
                )

    check_against_cold()  # populate the warm cache
    next_view = 4
    for _ in range(3):
        operation = rng.choice(("register", "insert", "delete", "answer"))
        if operation == "register":
            warm.register_view(f"v{next_view}", random_pattern(rng, max_nodes=4))
            next_view += 1
        elif operation == "insert":
            nodes = list(warm.document.tree.iter_nodes())
            parent = rng.choice(nodes)
            label = rng.choice(sorted(warm.document.tree.labels()))
            editor.insert_subtree(parent.dewey, XMLNode(label))
        elif operation == "delete":
            nodes = [
                node
                for node in warm.document.tree.iter_nodes()
                if node.parent is not None
            ]
            if nodes:
                editor.delete_subtree(rng.choice(nodes).dewey)
        else:
            for query in queries:
                warm.try_answer(query)
        check_against_cold()


# ----------------------------------------------------------------------
# Batch registration
# ----------------------------------------------------------------------
BATCH_VIEWS = {
    "V1": "s[t]/p",
    "V4": "s[p]/f",
    "V5": "//s//f",
    "V6": "b/s[t]",
}


def _store_contents(system: MaterializedViewSystem) -> dict[bytes, bytes]:
    store = system.fragments.store
    return {key: store.get(key) for key in store.keys()}


def test_register_views_matches_one_by_one():
    """One batch and one call per view leave byte-identical stores,
    identical fragment codes and identical answers."""
    single = _twin_system()
    single_ids = [
        view_id
        for view_id, expression in BATCH_VIEWS.items()
        if single.register_view(view_id, expression)
    ]

    batch = _twin_system()
    batch_ids = batch.register_views(dict(BATCH_VIEWS))

    assert batch_ids == single_ids == list(BATCH_VIEWS)
    assert _store_contents(batch) == _store_contents(single)
    for view_id in BATCH_VIEWS:
        assert batch.fragments.codes(view_id) == single.fragments.codes(view_id)
    for query in ("s[f//i][t]/p", "//s//f", "b/s[t]"):
        assert (
            batch.answer(query).codes
            == single.answer(query).codes
            == batch.direct_codes(query)
        )
    assert batch.stats()["views"]["registered"] == len(BATCH_VIEWS)


def test_register_views_duplicate_id_raises_before_any_write():
    system = _twin_system()
    system.register_view("V1", "s[t]/p")
    before = _store_contents(system)
    seq = system.current_epoch().seq
    with pytest.raises(ValueError, match="duplicate view id 'V1'"):
        system.register_views({"V2": "s[p]/f", "V3": "//s//f", "V1": "s[t]/p"})
    assert _store_contents(system) == before
    assert system.current_epoch().seq == seq
    assert list(system._views) == ["V1"]


def test_register_views_failure_mid_batch_publishes_earlier_views(monkeypatch):
    """A materialize that raises mid-batch propagates as itself; the
    views before it stay cataloged, answerable and persisted, and
    nothing is registered twice."""
    system = _twin_system()
    real_materialize = system.fragments.materialize
    calls = {"n": 0}

    def flaky(view_id, entries):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("store failed mid-batch")
        return real_materialize(view_id, entries)

    monkeypatch.setattr(system.fragments, "materialize", flaky)
    seq = system.current_epoch().seq
    with pytest.raises(RuntimeError, match="mid-batch"):
        system.register_views({"V1": "s[t]/p", "V4": "s[p]/f", "V5": "//s//f"})
    assert calls["n"] == 2
    assert system.current_epoch().seq == seq + 1
    assert list(system._views) == ["V1"]
    assert [view.view_id for view in system.materialized_views()] == ["V1"]
    assert system.answer("s[t]/p").codes == system.direct_codes("s[t]/p")
    assert system.stats()["views"]["registered"] == 1

    # The catalog agrees with what a reopen reads back from the store.
    reopened = MaterializedViewSystem.reopen(
        system.document, system.fragments.store
    )
    assert list(reopened._views) == ["V1"]

    # The failed and skipped views can be registered afterwards.
    monkeypatch.setattr(system.fragments, "materialize", real_materialize)
    assert system.register_views({"V4": "s[p]/f", "V5": "//s//f"}) == [
        "V4", "V5",
    ]
    assert list(system._views) == ["V1", "V4", "V5"]


def test_register_views_publishes_one_epoch_per_batch():
    system = _twin_system()
    seq = system.current_epoch().seq
    system.register_views(dict(BATCH_VIEWS))
    assert system.current_epoch().seq == seq + 1
    # A fresh system ends with one VFILTER layer, compiled once.
    compiled = system.vfilter.compiled_stats()
    assert compiled["layers"] == 1
    assert compiled["compiled_layers"] == 1

    # A later batch adds one delta layer and one epoch; publish
    # compiles every layer.
    system.register_views({"V7": "//s/t", "V8": "//f/i"})
    assert system.current_epoch().seq == seq + 2
    compiled = system.vfilter.compiled_stats()
    assert compiled["layers"] == 2
    assert compiled["compiled_layers"] == compiled["layers"]
    assert compiled["dfa_rows"] > 0
    for query in ("//s/t", "//f/i", "s[t]/p"):
        assert system.answer(query).codes == system.direct_codes(query)


def test_one_by_one_registration_collapses_filter_layers():
    """Single registrations on a populated system each add one delta
    layer; the stack collapses before it reaches the rebuild bound."""
    from repro.core.vfilter import _REBUILD_DELTAS

    system = _twin_system()
    system.register_view("V0", "s[t]/p")
    for index in range(1, _REBUILD_DELTAS + 2):
        system.register_view(f"V{index}", "//s/p")
        assert system.vfilter.delta_count < _REBUILD_DELTAS
    assert system.vfilter.view_count == _REBUILD_DELTAS + 2
    assert system.answer("//s/p").codes == system.direct_codes("//s/p")


# ----------------------------------------------------------------------
# The serving paths on an XMark document
# ----------------------------------------------------------------------
#: Derivation stages only a plan-cache miss runs (``vfilter`` through
#: the three rewrite sub-stages).
DERIVATION_STAGES = ("vfilter", "cover", "selection", "refine", "join", "extract")


def _stage_counts(system: MaterializedViewSystem) -> dict[str, int]:
    return {
        stage: system._stage_hist.view(stage).count
        for stage in DERIVATION_STAGES
    }


def test_cold_answers_read_the_compiled_filter():
    system = xmark_twin(plan_cache_size=0)
    compiled = system.vfilter.compiled_stats()
    assert compiled["compiled_layers"] == compiled["layers"] == 1
    assert compiled["dfa_rows"] > 0
    queries = build_query_mix(system, limit=12)
    for expression in queries:
        outcome = system.answer(expression)
        assert not outcome.plan_cache_hit
        assert outcome.codes == system.direct_codes(expression), expression
    compiled = system.vfilter.compiled_stats()
    assert compiled["reads_compiled"] >= len(queries)
    # No cold answer fell back to NFA set simulation.
    assert compiled["reads_simulated"] == 0


def test_skewed_replay_hits_the_plan_cache_and_skips_derivation():
    system = xmark_twin()
    pool = [expression for expression, _ in TEST_QUERIES.values()]
    pool += [e for e in build_query_mix(system) if e not in pool][:8]
    cold: dict[str, list] = {}
    for expression in pool:
        outcome = system.answer(expression)
        assert not outcome.plan_cache_hit
        assert outcome.codes == system.direct_codes(expression), expression
        cold[expression] = outcome.codes
    derived = _stage_counts(system)
    assert all(derived.values()), derived
    computed = system._memo.computed

    rng = random.Random(43)
    replay = rng.choices(pool, weights=zipf_weights(len(pool)), k=400)
    for expression in replay:
        outcome = system.answer(expression)
        assert outcome.plan_cache_hit
        assert outcome.codes == cold[expression]
    # A warm hit re-runs none of the derivation stages.
    assert _stage_counts(system) == derived
    assert system._memo.computed == computed
    assert system.stats()["plan_cache"]["hits"] == len(replay)


def test_warm_hits_build_no_patterns_and_leave_no_cyclic_garbage(monkeypatch):
    """A warm hit reuses the shared frozen parse: it constructs no
    PatternNode and leaves nothing for the cyclic collector (a private
    copy per hit would be a parent-linked node cycle per read).  Counts,
    not timings."""
    # XMVR_CHECK=1 re-derives sampled warm plans on purpose, which builds
    # patterns; this test is about the hit path itself.
    monkeypatch.setenv("XMVR_CHECK", "0")
    system = xmark_twin()
    pool = [expression for expression, _ in TEST_QUERIES.values()]
    for expression in pool:
        system.answer(expression)
    replay = random.Random(7).choices(
        pool, weights=zipf_weights(len(pool)), k=1000
    )
    built = []
    build = PatternNode.__init__

    def counting_init(node, *args, **kwargs):
        built.append(args)
        build(node, *args, **kwargs)

    monkeypatch.setattr(PatternNode, "__init__", counting_init)
    gc.collect()
    gc.disable()
    try:
        hits = sum(system.answer(e).plan_cache_hit for e in replay)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert hits == len(replay)
    assert built == []
    assert garbage == 0


def test_warm_hits_share_the_null_scope_and_run_no_generators(monkeypatch):
    """With no trace active, every ``span()`` is one shared no-op scope,
    so a warm hit runs no generator frame (a ``@contextmanager`` span
    is one per call) and leaves no cyclic garbage.  Counts, not
    timings."""
    monkeypatch.setenv("XMVR_CHECK", "0")
    system = xmark_twin()
    pool = [expression for expression, _ in TEST_QUERIES.values()]
    for expression in pool:
        system.answer(expression)
    replay = random.Random(11).choices(
        pool, weights=zipf_weights(len(pool)), k=1000
    )
    trace = current_trace()
    assert trace is NULL_TRACE
    assert trace.span("answer", strategy="HV") is trace.span("parse")

    generator_frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            generator_frames.append(frame.f_code.co_name)

    hits = 0
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        for expression in replay:
            hits += system.answer(expression).plan_cache_hit
    finally:
        sys.setprofile(None)
        garbage = gc.collect()
        gc.enable()
    assert hits == len(replay)
    assert generator_frames == []
    assert garbage == 0


def test_sampled_warm_rederivation_reads_the_shared_parsed_pattern(
    monkeypatch,
):
    """Under XMVR_CHECK=1 a sampled warm hit re-derives its plan from
    the cached entry's pattern: the parse cache's shared frozen
    instance, which the re-derivation leaves as it was."""
    monkeypatch.setenv("XMVR_CHECK", "1")
    monkeypatch.setenv("XMVR_CHECK_SAMPLE", "1")
    checked = []
    check = contracts.check_plan_consistency

    def recording_check(system, entry, *args, **kwargs):
        checked.append(entry.pattern)
        check(system, entry, *args, **kwargs)

    monkeypatch.setattr(contracts, "check_plan_consistency", recording_check)
    system = _book_system()
    queries = ["s[f//i][t]/p", "s[t]/p", "//s/f", "//a"]  # //a: no view

    def answer_all():
        for query in queries:
            try:
                system.answer(query)
            except ViewNotAnswerableError:
                pass

    answer_all()
    assert checked == []  # cold answers derive; nothing to re-check
    keys = [parse_xpath(query).canonical_string() for query in queries]
    answer_all()
    assert len(checked) == len(queries)
    for pattern, query, key in zip(checked, queries, keys):
        assert pattern is parse_xpath(query)
        assert pattern.canonical_string() == key


def _twin_system() -> MaterializedViewSystem:
    return MaterializedViewSystem(encode_tree(parse_xml(BOOK_XML)))
