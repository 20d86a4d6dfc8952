"""Unit tests for the whole-program analysis framework behind rules
L7-L19: the mini-IR and freshness analysis (``analysis/dataflow.py``),
call-graph construction and layering (``analysis/callgraph.py``), and
the interprocedural effect/guarantee/window fixpoints
(``analysis/effects.py``).
"""

import ast
import pickle
import textwrap

from repro.analysis.callgraph import build_project, layer_of
from repro.analysis.concurrency import analyze_concurrency
from repro.analysis.dataflow import (
    attr_chain,
    fresh_locals,
    module_name_for,
    solve_fixpoint,
    summarize_module,
)
from repro.analysis.effects import Effect, analyze, classify


def _fn(source: str) -> ast.FunctionDef:
    module = ast.parse(textwrap.dedent(source))
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    raise AssertionError("no function in snippet")


def _project(files: dict):
    summaries = {}
    for relpath, source in files.items():
        tree = ast.parse(textwrap.dedent(source))
        summaries[relpath] = summarize_module(tree, relpath)
    return build_project(summaries)


def _facts(files: dict):
    return analyze(_project(files))


# ----------------------------------------------------------------------
# dataflow: attr chains, freshness, summaries
# ----------------------------------------------------------------------
def test_attr_chain_resolution():
    expr = ast.parse("self.system.vfilter", mode="eval").body
    assert attr_chain(expr) == ("self", "system", "vfilter")
    call = ast.parse("f(x).y", mode="eval").body
    assert attr_chain(call) is None


def test_fresh_locals_constructor_and_literal():
    function = _fn(
        """
        def build(cls, path):
            system = cls(path)
            names = []
            table = {}
            return system, names, table
        """
    )
    assert {"system", "names", "table"} <= fresh_locals(function)


def test_fresh_locals_excludes_params_and_tainted_rebinding():
    function = _fn(
        """
        def build(self, seed):
            fresh = []
            fresh = seed
            return fresh
        """
    )
    names = fresh_locals(function)
    assert "seed" not in names
    assert "fresh" not in names  # rebound to a non-fresh value


def test_fresh_locals_excludes_loop_targets():
    function = _fn(
        """
        def walk(self, views):
            for view in views:
                view.tag = 1
        """
    )
    assert "view" not in fresh_locals(function)


def test_module_name_for_drops_src_and_init():
    assert module_name_for("src/repro/core/system.py") == "repro.core.system"
    assert module_name_for("src/repro/xpath/__init__.py") == "repro.xpath"
    assert module_name_for("core/maintenance.py") == "core.maintenance"


def test_summarize_module_records_functions_imports_classes():
    tree = ast.parse(
        textwrap.dedent(
            """
            import json
            from repro.xpath import pattern as pat

            class Store:
                def put(self, key):
                    self._data[key] = 1

            def top(value):
                return value
            """
        )
    )
    summary = summarize_module(tree, "src/repro/storage/kv.py")
    assert summary.module == "repro.storage.kv"
    assert "Store" in summary.class_names
    names = {fn.name for fn in summary.functions}
    assert {"put", "top"} <= names
    targets = {imp.target for imp in summary.imports}
    assert "json" in targets
    assert any(target.startswith("repro.xpath") for target in targets)


def test_function_summaries_pickle_roundtrip():
    # The fact cache persists summaries with pickle; the IR must survive.
    tree = ast.parse(
        textwrap.dedent(
            """
            class XMVRSystem:
                def register(self, view):
                    self._views[view.view_id] = view
                    try:
                        self._persist(view)
                    finally:
                        self._invalidate_plans()
            """
        )
    )
    summary = summarize_module(tree, "core/system.py")
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.module == summary.module
    assert [fn.name for fn in clone.functions] == ["register"]


def test_solve_fixpoint_transitive_reachability():
    edges = {"a": ["b"], "b": ["c"], "c": [], "d": ["a"]}

    def transfer(node, lookup):
        reached = set(edges[node])
        for successor in edges[node]:
            reached |= lookup(successor)
        return frozenset(reached)

    solution = solve_fixpoint(list(edges), frozenset(), transfer)
    assert solution["d"] == {"a", "b", "c"}
    assert solution["c"] == frozenset()


# ----------------------------------------------------------------------
# callgraph: layering and call resolution
# ----------------------------------------------------------------------
def test_layer_of_ranks():
    assert layer_of("repro.obs.registry") == ("obs", 1)
    assert layer_of("repro.xmltree.tree") == ("xmltree", 2)
    assert layer_of("repro.core.system") == ("core", 6)
    assert layer_of("repro.analysis.engine") == ("analysis", 7)
    assert layer_of("repro.workload.gen") == ("workload", 7)
    assert layer_of("repro.bench.run") == ("bench", 8)
    assert layer_of("outside.package") is None


def test_resolve_self_method_call():
    project = _project(
        {
            "core/system.py": """
                class XMVRSystem:
                    def _admit(self, view):
                        return view

                    def register(self, view):
                        return self._admit(view)
            """
        }
    )
    callees = {
        callee for _, callee in project.callees("core.system:XMVRSystem.register")
    }
    assert "core.system:XMVRSystem._admit" in callees


def test_resolve_imported_module_alias():
    project = _project(
        {
            "core/system.py": """
                from core import helpers

                def run(value):
                    return helpers.tidy(value)
            """,
            "core/helpers.py": """
                def tidy(value):
                    return value
            """,
        }
    )
    callees = {callee for _, callee in project.callees("core.system:run")}
    assert "core.helpers:tidy" in callees


def test_resolve_from_import_of_function():
    project = _project(
        {
            "core/system.py": """
                from core.helpers import tidy

                def run(value):
                    return tidy(value)
            """,
            "core/helpers.py": """
                def tidy(value):
                    return value
            """,
        }
    )
    callees = {callee for _, callee in project.callees("core.system:run")}
    assert "core.helpers:tidy" in callees


def test_unresolved_external_calls_have_no_edges():
    project = _project(
        {
            "core/system.py": """
                import json

                def run(value):
                    return json.dumps(value)
            """
        }
    )
    assert list(project.callees("core.system:run")) == []


POOL_PROJECT = {
    "core/pool.py": """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def submit(self, job):
                with self._lock:
                    return job

            def clone(self) -> "Pool":
                return Pool()

        def make_pool() -> "Pool":
            return Pool()
    """,
}


def _owner_project(body: str):
    owner = textwrap.dedent(
        """
        import threading
        from core.pool import Pool, make_pool

        class Owner:
            def __init__(self):
                self._lock = threading.Lock()
                self.built = Pool()
                self.made = make_pool()
                self.swapped = Pool()

            def swap(self, pool):
                self.swapped = pool

            def run(self, pool, job):
                with self._lock:
        """
    )
    return _project(
        {**POOL_PROJECT, "core/owner.py": owner + textwrap.indent(body, " " * 12)}
    )


def _lock_edges(project):
    facts = analyze_concurrency(project)
    return {
        (f"{a[0]}.{a[1]}", f"{b[0]}.{b[1]}") for a, b in facts.edges
    }


def test_untyped_receiver_does_not_resolve_by_method_name():
    # ``pool`` is a parameter of unknown type: that Pool is the only
    # project class defining ``submit`` says nothing about the receiver.
    project = _owner_project("return pool.submit(job)")
    assert list(project.callees("core.owner:Owner.run")) == []
    assert ("Owner._lock", "Pool._lock") not in _lock_edges(project)


def test_dynamic_receiver_keeps_the_method_name_and_never_resolves():
    # A method called on a subscript or a call result keeps its name
    # (so name-keyed tables such as document surgery still see it) but
    # is never resolved, though Pool alone defines ``submit``.
    project = _owner_project(
        "pools[0].submit(job)\nmake_pool().submit(job)\nreturn hooks[0](job)"
    )
    calls = {
        call.chain
        for step in project.functions["core.owner:Owner.run"].iter_steps()
        for call in step.calls
    }
    assert {("<dynamic>", "submit"), ("<dynamic>",)} <= calls
    callees = {callee for _, callee in project.callees("core.owner:Owner.run")}
    assert callees == {"core.pool:make_pool"}


def test_resolve_holders_built_by_project_constructors():
    for body in (
        "return self.built.submit(job)",  # field: constructor in __init__
        "return self.made.submit(job)",  # field: annotated factory
        "local = Pool()\nreturn local.submit(job)",  # local: constructor
        # local: a factory method on a typed holder
        "first = Pool()\nlocal = first.clone()\nreturn local.submit(job)",
    ):
        project = _owner_project(body)
        callees = {callee for _, callee in project.callees("core.owner:Owner.run")}
        assert "core.pool:Pool.submit" in callees, body
        assert ("Owner._lock", "Pool._lock") in _lock_edges(project), body


def test_rebound_holder_is_not_typed():
    for body in (
        "local = Pool()\nlocal = pool.clone()\nreturn local.submit(job)",
        "local = Pool()\nlocal = pool\nreturn local.submit(job)",
        "local = Pool()\nlocal = self.built\nreturn local.submit(job)",
        "local = Pool()\nfor local in pool:\n    pass\nreturn local.submit(job)",
        "local = Pool()\nwith pool as local:\n    return local.submit(job)",
        # rebound to a parameter in another method of the class
        "return self.swapped.submit(job)",
    ):
        project = _owner_project(body)
        callees = {callee for _, callee in project.callees("core.owner:Owner.run")}
        assert "core.pool:Pool.submit" not in callees, body


# ----------------------------------------------------------------------
# effects: lattice, classification, fixpoints
# ----------------------------------------------------------------------
def test_effect_classification():
    assert classify(Effect()) == "pure"
    assert classify(Effect(reads=True)) == "reads-state"
    assert classify(Effect(mutates=True, reads=True)) == "mutates-state"
    assert Effect().cache_safe
    assert Effect(reads=True).cache_safe
    assert not Effect(clock=True).cache_safe
    assert not Effect(io=True).cache_safe


def test_effects_propagate_through_calls():
    facts = _facts(
        {
            "core/system.py": """
                import time

                class XMVRSystem:
                    def _stamp(self):
                        return time.time()

                    def _canon(self, query):
                        return "/".join(sorted(query))

                    def timed(self):
                        return self._stamp()
            """
        }
    )
    assert facts.effect_of("core.system:XMVRSystem._stamp").clock
    # The clock effect flows to the caller through the fixpoint.
    assert facts.effect_of("core.system:XMVRSystem.timed").clock
    assert facts.effect_of("core.system:XMVRSystem._canon").cache_safe


def test_memo_attribute_writes_are_not_mutations():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def lookup(self, key):
                        self._stats_hits = self._stats_hits + 1
                        return self._cache_entries.get(key)
            """
        }
    )
    effect = facts.effect_of("core.system:XMVRSystem.lookup")
    assert not effect.mutates
    assert classify(effect) == "reads-state"


def test_guaranteed_set_closes_over_helpers():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def _admit(self, view):
                        self._views[view.view_id] = view
                        self._invalidate_plans()

                    def register(self, view):
                        self._admit(view)
                        return view
            """
        }
    )
    assert "core.system:XMVRSystem._admit" in facts.guaranteed
    assert "core.system:XMVRSystem.register" in facts.guaranteed


def test_mutates_answering_is_reachability_closed():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def _low(self):
                        self._materialized.append(1)

                    def _mid(self):
                        self._low()

                    def refresh(self):
                        self._mid()
            """
        }
    )
    for name in ("_low", "_mid", "refresh"):
        assert f"core.system:XMVRSystem.{name}" in facts.mutates_answering
    assert "core.system:XMVRSystem.refresh" not in facts.guaranteed


def test_windows_detects_raise_in_the_mutated_region():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def tag(self, view):
                        self._views[view.view_id] = view
                        if not view.ok:
                            raise ValueError("bad")
                        self._invalidate_plans()
            """
        }
    )
    windows = facts.windows("core.system:XMVRSystem.tag")
    assert len(windows) == 1


def test_windows_clean_when_invalidation_comes_first():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def tag(self, view):
                        self._invalidate_plans()
                        self._views[view.view_id] = view
                        if not view.ok:
                            raise ValueError("bad")
            """
        }
    )
    assert facts.windows("core.system:XMVRSystem.tag") == []


def test_entry_points_cover_watched_classes_and_maintenance():
    facts = _facts(
        {
            "core/system.py": """
                class XMVRSystem:
                    def answer(self, query):
                        return query

                    def _private(self):
                        return None
            """,
            "core/maintenance.py": """
                def rebuild(system):
                    return system
            """,
            "core/other.py": """
                def helper(value):
                    return value
            """,
        }
    )
    names = {fqname for fqname, _ in facts.entry_points()}
    assert "core.system:XMVRSystem.answer" in names
    assert "core.maintenance:rebuild" in names
    assert "core.system:XMVRSystem._private" not in names
    assert "core.other:helper" not in names
