"""Derived-state rules L15-L19: invalidation completeness, derivation
DAG shape, rebuild paths, hard-write scope, and annotation coverage.

Mirrors ``test_xmvrlint_concurrency.py``: true-positive fixtures
(seeded defects that must fire) and false-positive fixtures (compliant
code that must stay clean) per rule, a seeded-mutant battery against
the real annotated ``src/repro/core/system.py``, engine-enforced
suppression justifications, and the ``--graph`` DOT/JSON round trip.
"""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import engine
from repro.analysis.engine import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    all_rules,
    build_project_context,
    lint_paths,
)
from repro.analysis.lintcli import (
    graph_payload,
    main as lint_main,
    render_graph_dot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SYSTEM_PY = REPO_ROOT / "src" / "repro" / "core" / "system.py"


def _lint_snippet(tmp_path: Path, relpath: str, source: str, select=None):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], all_rules(select), root=tmp_path)


def _rules_hit(violations):
    return {violation.rule for violation in violations}


# ----------------------------------------------------------------------
# L15 — invalidation completeness
# ----------------------------------------------------------------------
L15_MISSING_PATCH = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows; rebuild=refresh)
            self._summary = None

        def add(self, row):
            self.rows.append(row)

        def refresh(self):
            self._summary = len(self.rows)
"""

L15_INLINE_PATCH = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows; rebuild=refresh)
            self._summary = None

        def add(self, row):
            self.rows.append(row)
            self._summary = None

        def refresh(self):
            self._summary = len(self.rows)
"""

L15_HELPER_PATCH = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows; rebuild=refresh)
            self._summary = None

        def _invalidate(self):
            self._summary = None

        def add(self, row):
            self.rows.append(row)
            self._invalidate()

        def refresh(self):
            self._summary = len(self.rows)
"""

L15_ONE_BRANCH_MISSES = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows; rebuild=refresh)
            self._summary = None

        def add(self, row, fast=False):
            self.rows.append(row)
            if fast:
                return
            self._summary = None

        def refresh(self):
            self._summary = len(self.rows)
"""

L15_RAISING_EXIT_EXEMPT = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows; rebuild=refresh)
            self._summary = None

        def add(self, row):
            self.rows.append(row)
            raise RuntimeError("encode failed")

        def refresh(self):
            self._summary = len(self.rows)
"""

L15_WEAK_EDGE_EXEMPT = """
    class Table:
        def __init__(self):
            self.rows = []  #: state: hard
            #: state: soft(derived-from=rows?; rebuild=refresh)
            self._summary = None

        def add(self, row):
            self.rows.append(row)

        def refresh(self):
            self._summary = len(self.rows)
"""


def test_l15_fires_on_missing_invalidation(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L15_MISSING_PATCH, ["L15"]
    )
    assert _rules_hit(violations) == {"L15"}
    assert "neither invalidated nor patched" in violations[0].message


def test_l15_accepts_inline_patch(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L15_INLINE_PATCH, ["L15"]
    ) == []


def test_l15_credits_interprocedural_patch_helper(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L15_HELPER_PATCH, ["L15"]
    ) == []


def test_l15_fires_when_one_exit_path_misses(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L15_ONE_BRANCH_MISSES, ["L15"]
    )
    assert _rules_hit(violations) == {"L15"}


def test_l15_exempts_raising_exits(tmp_path):
    # Mutate-then-raise is L7's jurisdiction, not L15's.
    assert _lint_snippet(
        tmp_path, "core/t.py", L15_RAISING_EXIT_EXEMPT, ["L15"]
    ) == []


def test_l15_exempts_weak_edges(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L15_WEAK_EDGE_EXEMPT, ["L15"]
    ) == []


# Document surgery on a subscript receiver: the call keeps its method
# name in the IR, so `nodes[0].detach()` writes the document exactly
# like `first = nodes[0]; first.detach()` does.
L15_SUBSCRIPT_SURGERY = """
    class MaterializedViewSystem:
        def __init__(self, document):
            self.document = document  #: state: hard
            #: state: soft(derived-from=document; rebuild=answer)
            self._plans = {{}}

        def _invalidate_plans(self):
            self._plans = {{}}


    class DocumentEditor:
        def __init__(self, system):
            self.system = system  #: state: hard

        def drop_first(self, nodes):
            {surgery}
            return nodes
"""


@pytest.mark.parametrize(
    "surgery",
    ["nodes[0].detach()", "nodes[0].parent.add_child(nodes[1])",
     "first = nodes[0]; first.detach()"],
    ids=["subscript", "subscript-chain", "bound-local"],
)
def test_l15_sees_document_surgery_on_any_receiver(tmp_path, surgery):
    source = L15_SUBSCRIPT_SURGERY.format(surgery=surgery)
    violations = _lint_snippet(
        tmp_path, "repro/delta/maintenance.py", source, ["L15", "L7"]
    )
    assert _rules_hit(violations) == {"L15"}
    assert "DocumentEditor.drop_first" in violations[0].message
    patched = source.replace(
        "return nodes", "self.system._invalidate_plans()\n            return nodes"
    )
    assert _lint_snippet(
        tmp_path, "repro/delta/maintenance.py", patched, ["L15", "L7"]
    ) == []


# ----------------------------------------------------------------------
# L16 — derivation shape: acyclicity and hard provenance
# ----------------------------------------------------------------------
L16_CYCLE = """
    class Thing:
        def __init__(self):
            #: state: soft(derived-from=_b; rebuild=fill)
            self._a = None
            #: state: soft(derived-from=_a; rebuild=fill)
            self._b = None

        def fill(self):
            self._a = 1
            self._b = 2
"""

L16_HARD_DERIVED = """
    class Thing:
        def __init__(self):
            self._a = 1  #: state: hard
            #: state: hard(derived-from=_a)
            self._b = 2
"""

L16_COUNTER_SOURCE = """
    class Thing:
        def __init__(self):
            self._hits = 0  #: state: counter
            #: state: soft(derived-from=_hits; rebuild=fill)
            self._cache = None

        def fill(self):
            self._cache = self._hits
"""

L16_UNRESOLVED_SOURCE = """
    class Thing:
        def __init__(self):
            #: state: soft(derived-from=_no_such_field; rebuild=fill)
            self._cache = None

        def fill(self):
            self._cache = 1
"""

L16_VALID_CHAIN = """
    class Thing:
        def __init__(self):
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base; rebuild=fill)
            self._mid = None
            #: state: soft(derived-from=_mid; rebuild=fill)
            self._top = None

        def fill(self):
            self._mid = len(self._base)
            self._top = self._mid * 2
"""


def test_l16_fires_on_cycle(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L16_CYCLE, ["L16"])
    assert _rules_hit(violations) == {"L16"}
    assert any("cycle" in v.message for v in violations)


def test_l16_fires_on_derived_hard_state(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L16_HARD_DERIVED, ["L16"]
    )
    assert _rules_hit(violations) == {"L16"}


def test_l16_fires_on_counter_source(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L16_COUNTER_SOURCE, ["L16"]
    )
    assert _rules_hit(violations) == {"L16"}
    assert "counter" in violations[0].message


def test_l16_fires_on_unresolvable_source(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L16_UNRESOLVED_SOURCE, ["L16"]
    )
    assert _rules_hit(violations) == {"L16"}


def test_l16_accepts_acyclic_chain(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L16_VALID_CHAIN, ["L16"]
    ) == []


# ----------------------------------------------------------------------
# L17 — rebuild-path existence
# ----------------------------------------------------------------------
L17_NO_REBUILD = """
    class Thing:
        def __init__(self):
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base)
            self._cache = None
"""

L17_MISSING_REBUILD = """
    class Thing:
        def __init__(self):
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base; rebuild=_no_such_fn)
            self._cache = None
"""

L17_UNREACHABLE_REBUILD = """
    class Thing:
        def __init__(self):
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base; rebuild=_fill)
            self._cache = None

        def _fill(self):
            self._cache = len(self._base)
"""

L17_REACHABLE_REBUILD = """
    class Thing:
        def __init__(self):
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base; rebuild=_fill)
            self._cache = None

        def _fill(self):
            self._cache = len(self._base)

        def lookup(self):
            if self._cache is None:
                self._fill()
            return self._cache
"""

L17_REBUILD_BY_RECONSTRUCTION = """
    class Index:
        def __init__(self, tree):
            self.tree = tree  #: state: hard
            #: state: soft(derived-from=tree; rebuild=__init__)
            self._by_label = {}
"""


def test_l17_fires_on_missing_rebuild_declaration(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L17_NO_REBUILD, ["L17"])
    assert _rules_hit(violations) == {"L17"}


def test_l17_fires_on_unresolvable_rebuild(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L17_MISSING_REBUILD, ["L17"]
    )
    assert _rules_hit(violations) == {"L17"}


def test_l17_fires_on_unreachable_rebuild(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L17_UNREACHABLE_REBUILD, ["L17"]
    )
    assert _rules_hit(violations) == {"L17"}
    assert "unreachable" in violations[0].message


def test_l17_accepts_reachable_rebuild(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L17_REACHABLE_REBUILD, ["L17"]
    ) == []


def test_l17_accepts_rebuild_by_reconstruction(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L17_REBUILD_BY_RECONSTRUCTION, ["L17"]
    ) == []


# ----------------------------------------------------------------------
# L18 — hard-state write scope
# ----------------------------------------------------------------------
L18_UNSCOPED_WRITE = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        def poke(self, doc):
            self._doc = doc
"""

L18_MUTATOR_WRITE = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        #: state: mutator
        def replace(self, doc):
            self._doc = doc
"""

L18_HELPER_UNDER_MUTATOR = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        def _rebind(self, doc):
            self._doc = doc

        #: state: mutator
        def replace(self, doc):
            self._rebind(doc)
"""

L18_LIFECYCLE_WRITE = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        def close(self):
            self._doc = None
"""


def test_l18_fires_on_unscoped_hard_write(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L18_UNSCOPED_WRITE, ["L18"]
    )
    assert _rules_hit(violations) == {"L18"}
    assert "mutator" in violations[0].message


def test_l18_accepts_declared_mutator(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L18_MUTATOR_WRITE, ["L18"]
    ) == []


def test_l18_accepts_helper_reachable_from_mutator(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L18_HELPER_UNDER_MUTATOR, ["L18"]
    ) == []


def test_l18_accepts_lifecycle_writes(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L18_LIFECYCLE_WRITE, ["L18"]
    ) == []


# ----------------------------------------------------------------------
# L19 — annotation coverage on annotated classes
# ----------------------------------------------------------------------
L19_UNANNOTATED_ATTR = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        def stash(self):
            self._scratch = {}
"""

L19_FULLY_ANNOTATED = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard
            self._hits = 0  #: state: counter

        def bump(self):
            self._hits += 1
"""

L19_SUBSCRIPT_EXEMPT = """
    class Thing:
        def __init__(self):
            self._doc = {}  #: state: hard

        #: state: mutator
        def put(self, key, value):
            self._doc[key] = value
"""

L19_UNANNOTATED_CLASS_IGNORED = """
    class Plain:
        def __init__(self):
            self._anything = 1

        def poke(self):
            self._other = 2
"""


def test_l19_fires_on_unannotated_attribute(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/t.py", L19_UNANNOTATED_ATTR, ["L19"]
    )
    assert _rules_hit(violations) == {"L19"}
    assert "_scratch" in violations[0].message


def test_l19_accepts_fully_annotated_class(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L19_FULLY_ANNOTATED, ["L19"]
    ) == []


def test_l19_exempts_subscript_stores(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L19_SUBSCRIPT_EXEMPT, ["L19"]
    ) == []


def test_l19_ignores_classes_without_state_annotations(tmp_path):
    # Opt-in: only classes that declare state are held to coverage.
    assert _lint_snippet(
        tmp_path, "core/t.py", L19_UNANNOTATED_CLASS_IGNORED, ["L19"]
    ) == []


# ----------------------------------------------------------------------
# seeded mutants against the real annotated system.py
# ----------------------------------------------------------------------
SYSTEM_MUTANTS = {
    "L15": """\
    def mutant_poke(self, child):
        self.document.root = child
""",
    "L16": """\
    def mutant_derived(self):
        #: state: soft(derived-from=_plan_stats_base; rebuild=stats)
        self._mutant_cache = {}
""",
    "L17": """\
    def mutant_soft(self):
        #: state: soft(derived-from=document; rebuild=_no_such_rebuild)
        self._mutant_cache = {}
""",
    "L18": """\
    def mutant_rebind(self, doc):
        self.document = doc
""",
    "L19": """\
    def mutant_stash(self):
        self._scratch = {}
""",
}


def _lint_package_copy(tmp_path: Path, extra: str = ""):
    # The derivation DAG spans files (rebuild targets live in
    # maintenance.py / leaf_cover.py), so the mutant battery copies the
    # whole package, not just system.py.
    shutil.copytree(SYSTEM_PY.parent.parent, tmp_path / "repro")
    source = SYSTEM_PY.read_text(encoding="utf-8")
    target = tmp_path / "repro" / "core" / "system.py"
    target.write_text(source + "\n" + extra, encoding="utf-8")
    return lint_paths([tmp_path], all_rules(["L15-L19"]), root=tmp_path)


def _lint_system_copy(tmp_path: Path, extra: str):
    original_lines = SYSTEM_PY.read_text(encoding="utf-8").count("\n")
    return [
        v
        for v in _lint_package_copy(tmp_path, extra)
        if v.path.endswith("system.py") and v.line > original_lines
    ]


def test_unmutated_system_copy_is_clean(tmp_path):
    violations = _lint_package_copy(tmp_path)
    assert violations == [], engine.render_human(violations)


@pytest.mark.parametrize("rule_id", sorted(SYSTEM_MUTANTS))
def test_seeded_mutant_is_caught(tmp_path, rule_id):
    seeded = _lint_system_copy(tmp_path, SYSTEM_MUTANTS[rule_id])
    assert rule_id in _rules_hit(seeded), (
        f"{rule_id} missed its seeded mutant"
    )


# ----------------------------------------------------------------------
# suppression pragmas require a justification for L15-L19
# ----------------------------------------------------------------------
SUPPRESS_TEMPLATE = """
    class Thing:
        def __init__(self):
            self._doc = None  #: state: hard

        def stash(self):
            self._scratch = {{}}  {pragma}
"""


def test_bare_pragma_does_not_suppress_state_rules(tmp_path):
    violations = _lint_snippet(
        tmp_path,
        "core/t.py",
        SUPPRESS_TEMPLATE.format(pragma="# xmvrlint: disable=L19"),
        ["L19"],
    )
    assert _rules_hit(violations) == {"L19"}


def test_justified_pragma_suppresses_state_rules(tmp_path):
    assert _lint_snippet(
        tmp_path,
        "core/t.py",
        SUPPRESS_TEMPLATE.format(
            pragma="# xmvrlint: disable=L19 -- scratch, never read back"
        ),
        ["L19"],
    ) == []


L15_HELPER_MUTATES = """
    class XMVRSystem:
        def __init__(self):
            self._views = {{}}  #: state: hard
            #: state: soft(derived-from=_views; rebuild=answer)
            self._plans = {{}}

        def _stash(self, view):
            self._views[view.view_id] = view

        def adopt(self, view):
            self._stash(view)  {pragma}
"""


def test_l15_pragma_on_the_reported_line_needs_a_justification(tmp_path):
    # L15 reports the line where the source is written (here: the call
    # into the mutating helper); a pragma there suppresses it only with
    # a `-- reason`.
    bare = L15_HELPER_MUTATES.format(pragma="# xmvrlint: disable=L15")
    violations = _lint_snippet(tmp_path, "core/system.py", bare, ["L15"])
    assert _rules_hit(violations) == {"L15"}
    justified = L15_HELPER_MUTATES.format(
        pragma="# xmvrlint: disable=L15 -- adopted views are never planned"
    )
    assert _lint_snippet(
        tmp_path, "core/system.py", justified, ["L15"]
    ) == []


# ----------------------------------------------------------------------
# --graph: derivation DAG + lock graph, DOT and JSON (satellite 1)
# ----------------------------------------------------------------------
GRAPH_SNIPPET = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            self._base = []  #: state: hard
            #: state: soft(derived-from=_base; rebuild=_fill)
            self._cache = None
            #: state: soft(derived-from=_base?; rebuild=_fill)
            self._hint = None

        def _fill(self):
            self._cache = len(self._base)

        def lookup(self):
            if self._cache is None:
                self._fill()
            return self._cache
"""


def _graph_for_snippet(tmp_path):
    target = tmp_path / "core" / "t.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(GRAPH_SNIPPET), encoding="utf-8")
    pctx = build_project_context([target], root=tmp_path)
    return graph_payload(pctx)


def test_graph_payload_round_trips_through_json(tmp_path):
    payload = _graph_for_snippet(tmp_path)
    assert json.loads(json.dumps(payload)) == payload
    derivation = payload["derivation"]
    nodes = {node["id"]: node["kind"] for node in derivation["nodes"]}
    assert nodes["Thing._base"] == "hard"
    assert nodes["Thing._cache"] == "soft"
    edges = {
        (edge["source"], edge["target"]): edge["weak"]
        for edge in derivation["edges"]
    }
    assert edges[("Thing._base", "Thing._cache")] is False
    assert edges[("Thing._base", "Thing._hint")] is True


def test_graph_dot_renders_every_edge(tmp_path):
    payload = _graph_for_snippet(tmp_path)
    dot = render_graph_dot(payload)
    assert dot.startswith("digraph xmvr_state {")
    assert '"Thing._base" [shape=box];' in dot
    assert '"Thing._cache" [shape=ellipse];' in dot
    assert '"Thing._base" -> "Thing._cache";' in dot
    # Weak edges render dashed.
    assert '"Thing._base" -> "Thing._hint" [style=dashed];' in dot
    derivation = payload["derivation"]
    assert dot.count("->") == len(derivation["edges"]) + len(
        payload["locks"]["edges"]
    )


def test_graph_cli_emits_parseable_json(tmp_path, capsys):
    target = tmp_path / "core" / "t.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(GRAPH_SNIPPET), encoding="utf-8")
    assert lint_main(["--graph", "json", "--no-cache", str(target)]) == (
        EXIT_CLEAN
    )
    payload = json.loads(capsys.readouterr().out)
    assert {"derivation", "locks"} <= set(payload)


def test_repo_graph_matches_committed_snapshot():
    # The committed DOT rendering must stay in sync with the tree:
    # regenerate with
    #   python -m repro lint --graph dot src/ > docs/derivation-graph.dot
    committed = (REPO_ROOT / "docs" / "derivation-graph.dot").read_text(
        encoding="utf-8"
    )
    src = REPO_ROOT / "src"
    pctx = build_project_context([src], root=REPO_ROOT)
    assert render_graph_dot(graph_payload(pctx)) == committed


# ----------------------------------------------------------------------
# --baseline-strict: stale entries fail the run (satellite 2)
# ----------------------------------------------------------------------
def test_baseline_strict_rejects_stale_entries(tmp_path, capsys):
    dirty = tmp_path / "core" / "d.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    baseline = tmp_path / "baseline.json"
    assert lint_main(
        [str(dirty), "--no-cache", "--write-baseline", str(baseline)]
    ) == EXIT_CLEAN
    # Baseline matches the tree: strict passes.
    assert lint_main(
        [
            str(dirty), "--no-cache",
            "--baseline", str(baseline), "--baseline-strict",
        ]
    ) == EXIT_CLEAN
    # The violation is fixed but the baseline still holds its slot:
    # strict must fail so the stale budget cannot mask a regression.
    dirty.write_text("def remark(p) -> None:\n    pass\n", encoding="utf-8")
    assert lint_main(
        [
            str(dirty), "--no-cache",
            "--baseline", str(baseline), "--baseline-strict",
        ]
    ) == EXIT_ERROR
    assert "stale baseline" in capsys.readouterr().err
    # Without --baseline-strict the stale entry is still tolerated.
    assert lint_main(
        [str(dirty), "--no-cache", "--baseline", str(baseline)]
    ) == EXIT_CLEAN


def test_baseline_strict_keeps_reporting_new_violations(tmp_path, capsys):
    dirty = tmp_path / "core" / "d.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    baseline = tmp_path / "baseline.json"
    assert lint_main(
        [str(dirty), "--no-cache", "--write-baseline", str(baseline)]
    ) == EXIT_CLEAN
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n"
        "def remark2(p):\n    p.ret.axis = None\n",
        encoding="utf-8",
    )
    assert lint_main(
        [
            str(dirty), "--no-cache",
            "--baseline", str(baseline), "--baseline-strict",
        ]
    ) == EXIT_VIOLATIONS
    capsys.readouterr()
