"""Runtime contract layer (repro.core.contracts).

Four angles:

* unit tests of the individual checks against hand-built good/bad
  state;
* a hypothesis property test: on generated documents, views and
  queries, no contract fires anywhere in the answering pipeline and
  answers still match ground truth — the contracts are *quiet* on a
  correct system;
* a mutation test: a system whose ``_invalidate_plans`` is a no-op
  (the exact bug lint rules L15 and L7 guard against) serves a stale
  cached plan, and the sampled plan-consistency contract catches it.
* fragment drift: a fragment tree held in memory that is not its
  payload's decode (an attribute, a code or the child order lost), or
  a spliced tree whose shared subtrees were not re-pointed at their
  new parents, fails the patched-fragments contract.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_pattern, random_tree
from repro.core import contracts
from repro.core.contracts import ContractViolation
from repro.delta import resolver
from repro.delta.maintenance import DocumentEditor
from repro.delta.resolver import PlanImpact
from repro.core.plancache import PlanUpkeep
from repro.core.selection import Selection
from repro.core.system import MaterializedViewSystem
from repro.core.vfilter import FilterResult
from repro.core.view import View
from repro.errors import ViewNotAnswerableError
from repro.storage import serialize
from repro.xmltree.builder import encode_tree
from repro.xmltree.tree import XMLNode, build_tree
from repro.xpath.parser import parse_xpath

STRATEGIES = ("HV", "MV", "MN", "CB")


@pytest.fixture(autouse=True)
def _checks_on(monkeypatch):
    monkeypatch.setenv("XMVR_CHECK", "1")
    monkeypatch.setenv("XMVR_CHECK_SAMPLE", "1")


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------
def test_enabled_reads_environment(monkeypatch):
    monkeypatch.setenv("XMVR_CHECK", "0")
    assert not contracts.enabled()
    monkeypatch.setenv("XMVR_CHECK", "1")
    assert contracts.enabled()


def test_check_flag_flips_between_answers_on_one_system(monkeypatch):
    """``XMVR_CHECK`` is read on every answer, cold and warm: setting
    and deleting it between answers on one system turns the checks on
    and off with no restart."""
    checked = []
    check = contracts.check_document_order

    def recording_check(codes, context):
        checked.append(context)
        check(codes, context)

    monkeypatch.setattr(contracts, "check_document_order", recording_check)
    doc = encode_tree(build_tree(("b", ["t", ("s", ["t", "p"])])))
    system = MaterializedViewSystem(doc)
    system.register_views({"vp": "//s/p", "vt": "//s/t"})

    monkeypatch.delenv("XMVR_CHECK")
    system.answer("//s/p")  # cold
    system.answer("//s/p")  # warm
    assert checked == []
    monkeypatch.setenv("XMVR_CHECK", "1")
    system.answer("//s/p")  # warm
    system.answer("//s/t")  # cold
    assert [context.endswith("[warm]") for context in checked] == [
        True, False
    ]
    monkeypatch.delenv("XMVR_CHECK")
    system.answer("//s/p")
    system.answer("//s/t")
    assert len(checked) == 2


def test_sample_every_parses_and_clamps(monkeypatch):
    monkeypatch.setenv("XMVR_CHECK_SAMPLE", "3")
    assert contracts.sample_every() == 3
    monkeypatch.setenv("XMVR_CHECK_SAMPLE", "0")
    assert contracts.sample_every() == 1
    monkeypatch.setenv("XMVR_CHECK_SAMPLE", "nope")
    assert contracts.sample_every() == 8


def test_document_order_accepts_sorted_unique():
    contracts.check_document_order([(1,), (1, 2), (2,)], "t")
    contracts.check_document_order([], "t")


def test_document_order_rejects_duplicates_and_inversions():
    with pytest.raises(ContractViolation, match="document-ordered"):
        contracts.check_document_order([(1,), (1,)], "t")
    with pytest.raises(ContractViolation, match="document-ordered"):
        contracts.check_document_order([(2,), (1,)], "t")


def test_selection_covers_rejects_empty_selection():
    pattern = parse_xpath("//a/b")
    with pytest.raises(ContractViolation, match="does not cover"):
        contracts.check_selection_covers(Selection([], []), pattern, "t")


def test_selection_covers_accepts_self_view():
    pattern = parse_xpath("//a/b")
    view = View.from_xpath("v", "//a/b")
    contracts.check_selection_covers(Selection([view], []), pattern, "t")


def test_selection_covers_requires_delta_provider():
    # //a[b] and //a/b share the leaf obligation {b} plus Δ; a view
    # returning only the b-leaf of //a[b]'s sibling shape cannot
    # provide Δ for a query whose answer is the a node.
    pattern = parse_xpath("//a[b]")
    view = View.from_xpath("v", "//a/b")
    with pytest.raises(ContractViolation):
        contracts.check_selection_covers(Selection([view], []), pattern, "t")


def test_vfilter_sound_flags_dropped_usable_view():
    pattern = parse_xpath("//a/b")
    view = View.from_xpath("v", "//a/b")
    empty = FilterResult(candidates=())
    with pytest.raises(ContractViolation, match="dropped view"):
        contracts.check_vfilter_sound(pattern, empty, [view], "t")
    # Listing the view as a candidate satisfies the lemma.
    contracts.check_vfilter_sound(
        pattern, FilterResult(candidates=("v",)), [view], "t"
    )


def test_vfilter_sound_allows_dropping_unusable_view():
    pattern = parse_xpath("//a/b")
    unrelated = View.from_xpath("v", "//x/y")
    contracts.check_vfilter_sound(
        pattern, FilterResult(candidates=()), [unrelated], "t"
    )


# ----------------------------------------------------------------------
# property test: contracts are quiet on a correct system
# ----------------------------------------------------------------------
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_no_contract_fires_on_generated_workloads(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=25, max_depth=5)
    document = encode_tree(tree)
    system = MaterializedViewSystem(document)
    for index in range(rng.randint(1, 6)):
        system.register_view(f"v{index}", random_pattern(rng, max_nodes=4))

    queries = [random_pattern(rng, max_nodes=4) for _ in range(4)]
    for pattern in queries:
        expected = system.direct_codes(pattern)
        for strategy in STRATEGIES:
            # Twice per strategy: the second answer exercises the warm
            # path, where XMVR_CHECK_SAMPLE=1 re-derives the plan.
            for _ in range(2):
                try:
                    outcome = system.answer(pattern, strategy)
                except ViewNotAnswerableError:
                    continue
                assert outcome.codes == expected


# ----------------------------------------------------------------------
# mutation test: broken invalidation is detected
# ----------------------------------------------------------------------
class _BrokenInvalidation(MaterializedViewSystem):
    """The bug lint rules L15 and L7 exist to prevent, injected
    deliberately."""

    def _invalidate_plans(self, affected=None, maintain=None) -> PlanUpkeep:
        return PlanUpkeep(0, 0)


def _small_system(cls):
    rng = random.Random(7)
    tree = random_tree(rng, max_nodes=20, max_depth=4)
    return cls(encode_tree(tree))


def _stale_plan_via_maintenance(cls):
    """Answer once (caching a plan), then insert a matching subtree
    through the editor.  With a broken ``_invalidate_plans`` the cached
    pre-insert plan survives the in-place document mutation."""
    doc = encode_tree(build_tree(("b", ["t", ("s", ["t", "p"])])))
    system = cls(doc)
    system.register_view("vp", "//s/p")
    first = system.answer("//s/p", "HV")
    editor = DocumentEditor(system)
    section = XMLNode("s")
    section.new_child("t")
    section.new_child("p")
    editor.insert_subtree(system.document.tree.root.dewey, section)
    return system, first


def test_noop_invalidation_caught_by_plan_consistency():
    # Registration cannot leave a stale plan any more — every published
    # epoch starts with a fresh plan cache — so the bug class L15 guards
    # against is in-place document maintenance forgetting to
    # invalidate.  Inject exactly that; the sampled warm-path
    # consistency check catches the pre-insert plan.
    system, _ = _stale_plan_via_maintenance(_BrokenInvalidation)
    with pytest.raises(ContractViolation, match="stale plan entry"):
        system.answer("//s/p", "HV")


def test_stale_answer_content_caught_by_plan_consistency(monkeypatch):
    # An edit's upkeep that keeps every flagged plan as cached: the
    # insert leaves the answer set of //b/s alone but changes the
    # content of the section it lands in.
    monkeypatch.setattr(
        resolver._Edit, "classify_plan", lambda self, entry: PlanImpact(entry)
    )
    doc = encode_tree(build_tree(("b", ["t", ("s", ["t", "p"])])))
    system = MaterializedViewSystem(doc)
    system.register_view("vs", "//b/s")
    system.answer("//b/s", "HV")
    section = system.document.tree.root.children[1]
    DocumentEditor(system).insert_subtree(section.dewey, XMLNode("t"))
    with pytest.raises(ContractViolation, match="holds content"):
        system.answer("//b/s", "HV")


def _drop_attributes(root):
    root.children[0].attributes.clear()


def _drop_a_code(root):
    root.children[-1].dewey = None


def _swap_children(root):
    root.children.reverse()


def _attach_root(root):
    root.parent = XMLNode("b")


@pytest.mark.parametrize(
    "drift", [_drop_attributes, _drop_a_code, _swap_children, _attach_root]
)
def test_drifted_fragment_tree_caught_by_patched_fragments(drift):
    # The patcher hands each re-encoded fragment a copy of the live
    # subtree; a copy that is not its payload's decode must fire.
    doc = encode_tree(build_tree(("b", ["t", ("s", ["t", "p"])])))
    section = doc.tree.root.children[1]
    section.children[0].attributes["id"] = "t1"
    system = MaterializedViewSystem(doc)
    system.register_view("vs", "//b/s")
    DocumentEditor(system).insert_subtree(section.dewey, XMLNode("t"))
    (view,) = system.materialized_views()
    (fragment,) = system.fragments.fragments("vs")
    assert fragment.built_root is not None
    contracts.check_patched_fragments(system, view, "healthy")
    drift(fragment.built_root)
    with pytest.raises(ContractViolation, match="not its payload's decode"):
        contracts.check_patched_fragments(system, view, "drifted")


def test_splice_without_re_pointing_caught_by_patched_fragments(monkeypatch):
    # A splice shares the old tree's off-path subtrees with the new one
    # and re-points them at the new path nodes; a mutant that skips
    # the re-pointing leaves children whose parent is a retired node.
    doc = encode_tree(build_tree(("b", ["t", ("s", ["t", "p", ("f", ["i"])])])))
    system = MaterializedViewSystem(doc)
    system.register_view("vs", "//b/s")
    (view,) = system.materialized_views()
    system.fragments.fragments("vs")[0].root
    section = doc.tree.root.children[1]
    editor = DocumentEditor(system)
    editor.insert_subtree(section.dewey, XMLNode("p"))
    contracts.check_patched_fragments(system, view, "healthy")
    # The editor checks every view it patched.
    monkeypatch.setenv("XMVR_CHECK", "1")
    monkeypatch.setattr(serialize, "_adopt", lambda parents: None)
    with pytest.raises(ContractViolation, match="another parent"):
        editor.insert_subtree(section.children[2].dewey, XMLNode("i"))


@pytest.mark.parametrize(
    "skipped, match",
    [
        ("delete", "1 stray key"),
        ("fragment put", "1 missing"),
        ("manifest put", "manifest"),
    ],
)
def test_write_through_drift_caught_by_patched_fragments(
    monkeypatch, skipped, match
):
    # The KV store is written through with only what a patch changed;
    # a skipped delete, fragment put or manifest put must fire.
    doc = encode_tree(build_tree(
        ("b", ["t", ("s", ["t", "p"]), ("s", ["t", "p"]), ("s", ["t", "p"])])
    ))
    system = MaterializedViewSystem(doc)
    system.register_view("vp", "//s/p")
    kv = system.fragments.store
    real_put = kv.put

    def put(key, value):
        if skipped != ("manifest put" if key.startswith(b"m:") else "fragment put"):
            real_put(key, value)

    monkeypatch.setattr(kv, "put", put)
    if skipped == "delete":
        monkeypatch.setattr(kv, "delete", lambda key: True)
    editor = DocumentEditor(system)
    first, middle = doc.tree.root.children[1:3]
    with pytest.raises(ContractViolation, match=match):
        if skipped == "delete":
            # Cuts one fragment ahead of another.
            editor.delete_subtree(middle.dewey)
        else:
            # Writes one fragment.
            editor.insert_subtree(first.dewey, XMLNode("p"))


def test_registration_is_structurally_invalidating():
    # The epoch design makes register_view immune to a broken
    # _invalidate_plans: the cached negative plan below dies with its
    # epoch, so the post-registration answer is correct even though the
    # invalidation hook is a no-op.
    system = _small_system(_BrokenInvalidation)
    with pytest.raises(ViewNotAnswerableError):
        system.answer("//a", "HV")
    system.register_view("va", "//a")
    outcome = system.answer("//a", "HV")
    assert outcome.codes == system.direct_codes("//a")


def test_healthy_system_not_flagged():
    system = _small_system(MaterializedViewSystem)
    query = "//a"
    with pytest.raises(ViewNotAnswerableError):
        system.answer(query, "HV")
    system.register_view("va", "//a")
    outcome = system.answer(query, "HV")
    assert outcome.codes == system.direct_codes(query)
    # Warm repeat passes the sampled consistency check.
    warm = system.answer(query, "HV")
    assert warm.plan_cache_hit and warm.codes == outcome.codes


def test_mutation_detection_requires_sampling(monkeypatch):
    # With checks disabled the stale plan is silently replayed — the
    # contract layer, not luck, is what catches the mutation above.
    monkeypatch.setenv("XMVR_CHECK", "0")
    system, first = _stale_plan_via_maintenance(_BrokenInvalidation)
    stale = system.answer("//s/p", "HV")
    assert stale.plan_cache_hit
    assert stale.codes == first.codes  # the pre-insert answer
    assert stale.codes != system.direct_codes("//s/p")
