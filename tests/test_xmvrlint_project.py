"""Whole-program rules L7-L9 (and the retired rule L6's fixtures as
L15 twins) plus the engine features that ship with them: the fact
cache, `--baseline` ratchet files, SARIF output, `--explain`,
rule-range selection, and lintcli edge cases.

Every rule gets true-positive fixtures (seeded defects that must fire)
and false-positive fixtures (compliant code that must stay clean —
each one a pattern the analysis could naively flag).
"""

import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import engine
from repro.analysis.engine import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    LintError,
    all_rules,
    apply_baseline,
    baseline_counts,
    lint_paths,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.analysis.lintcli import explain_rule, main as lint_main


def _lint_snippet(tmp_path: Path, relpath: str, source: str, select=None):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], all_rules(select), root=tmp_path)


def _lint_tree(tmp_path: Path, files: dict, select=None):
    """Write several files, then lint the whole tree as one project."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], all_rules(select), root=tmp_path)


def _rules_hit(violations):
    return {violation.rule for violation in violations}


# ----------------------------------------------------------------------
# interprocedural invalidation: the retired rule L6's fixtures as L15
# twins
# ----------------------------------------------------------------------
# L6 (whole program) is retired: its fixtures now carry the `#: state:`
# annotations the real system declares (the plans are soft state
# derived from the view pool), and L15 must give the verdict L6 gave.
# The test names keep the `l6` of the rule whose fixtures they port.
L6_HELPER_MUTATES = """
    class XMVRSystem:
        def __init__(self):
            self._views = {}  #: state: hard
            #: state: soft(derived-from=_views; rebuild=answer)
            self._plans = {}

        def _invalidate_plans(self):
            self._plans = {}

        def _stash(self, view):
            self._views[view.view_id] = view

        def adopt(self, view):
            self._stash(view)
            return view
"""

L6_TWO_HOPS = """
    class MaterializedViewSystem:
        def __init__(self):
            self._materialized = []  #: state: hard
            #: state: soft(derived-from=_materialized; rebuild=answer)
            self._plans = {}

        def _invalidate_plans(self):
            self._plans = {}

        def _low(self):
            self._materialized.append(1)

        def _mid(self):
            self._low()

        def refresh(self):
            self._mid()
"""

L6_MAINTENANCE_ENTRY = """
    class XMVRSystem:
        def __init__(self):
            self._views = {}  #: state: hard
            #: state: soft(derived-from=_views; rebuild=answer)
            self._plans = {}

        def _invalidate_plans(self):
            self._plans = {}


    def rebuild(system, views):
        for view in views:
            system._views[view.view_id] = view
        return system
"""

L6_FRESH_REOPEN = """
    class MaterializedViewSystem:
        def __init__(self, path):
            self._views = {}  #: state: hard
            self._materialized = []  #: state: hard
            #: state: soft(derived-from=_views, _materialized; rebuild=answer)
            self._plans = {}

        def _invalidate_plans(self):
            self._plans = {}

        @classmethod
        def reopen(cls, path):
            system = cls(path)
            system._views["x"] = 1
            system._materialized.append(2)
            return system
"""

L6_GUARANTEED_CHAIN = """
    class XMVRSystem:
        def __init__(self):
            self._views = {}  #: state: hard
            self.fragments = {}  #: state: hard
            #: state: soft(derived-from=_views, fragments; rebuild=answer)
            self._plans = {}

        def _invalidate_plans(self):
            self._plans = {}

        def _admit(self, view):
            self._views[view.view_id] = view
            self._invalidate_plans()
            return True

        def register(self, view):
            self.fragments.materialize(view.view_id, [])
            return self._admit(view)
"""

L6_READ_ONLY_ENTRY = """
    class XMVRSystem:
        def __init__(self):
            self._views = {}  #: state: hard
            #: state: soft(derived-from=_views; rebuild=answer)
            self._plans = {}

        def describe(self, view_id):
            return self._views[view_id].pattern
"""


def test_l6_fires_when_private_helper_mutates(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L6_HELPER_MUTATES, ["L15"]
    )
    assert _rules_hit(violations) == {"L15"}
    assert "XMVRSystem.adopt" in violations[0].message


def test_l6_traces_mutation_two_calls_deep(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L6_TWO_HOPS, ["L15"]
    )
    assert _rules_hit(violations) == {"L15"}
    # Only the public entry point is reported, not the private hops.
    assert len(violations) == 1
    assert "refresh" in violations[0].message


def test_l6_watches_maintenance_module_functions(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/maintenance.py", L6_MAINTENANCE_ENTRY, ["L15"]
    )
    assert _rules_hit(violations) == {"L15"}
    assert "rebuild" in violations[0].message


def test_l6_accepts_mutation_of_freshly_built_system(tmp_path):
    # The reopen pattern: every write lands on an object this function
    # just constructed, so live answering state is untouched.
    assert (
        _lint_snippet(tmp_path, "core/system.py", L6_FRESH_REOPEN, ["L15"])
        == []
    )


def test_l6_accepts_guarantee_through_helper(tmp_path):
    assert (
        _lint_snippet(
            tmp_path, "core/system.py", L6_GUARANTEED_CHAIN, ["L15"]
        )
        == []
    )


def test_l6_accepts_read_only_entry_points(tmp_path):
    assert (
        _lint_snippet(
            tmp_path, "core/system.py", L6_READ_ONLY_ENTRY, ["L15"]
        )
        == []
    )


# ----------------------------------------------------------------------
# L7 — exception safety (mutate-then-raise windows)
# ----------------------------------------------------------------------
L7_RAISE_AFTER_MUTATE = """
    class XMVRSystem:
        def tag(self, view):
            self._views[view.view_id] = view
            if not view.ok:
                raise ValueError("bad view")
            self._invalidate_plans()
"""

L7_RAISING_CALLEE = """
    class XMVRSystem:
        def _persist(self, view):
            raise OSError("disk full")

        def register(self, view):
            self._views[view.view_id] = view
            self._persist(view)
            self._invalidate_plans()
"""

L7_INVALIDATE_FIRST = """
    class XMVRSystem:
        def tag(self, view):
            self._invalidate_plans()
            self._views[view.view_id] = view
            if not view.ok:
                raise ValueError("bad view")
"""

L7_HANDLER_INVALIDATES = """
    class XMVRSystem:
        def _persist(self, view):
            raise OSError("disk full")

        def register(self, view):
            self._views[view.view_id] = view
            try:
                self._persist(view)
            except Exception:
                self._invalidate_plans()
                raise
            self._invalidate_plans()
"""

L7_RAISE_BEFORE_MUTATE = """
    class XMVRSystem:
        def tag(self, view):
            if not view.ok:
                raise ValueError("bad view")
            self._views[view.view_id] = view
            self._invalidate_plans()
"""


def test_l7_fires_on_raise_between_mutation_and_invalidate(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L7_RAISE_AFTER_MUTATE, ["L7"]
    )
    assert _rules_hit(violations) == {"L7"}
    assert "stale plan cache" in violations[0].message


def test_l7_fires_on_raising_callee_in_the_window(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L7_RAISING_CALLEE, ["L7"]
    )
    assert _rules_hit(violations) == {"L7"}


def test_l7_accepts_invalidate_first(tmp_path):
    # Monotone invalidation: the cache refills only via answer(), so
    # dropping plans *before* mutating closes every window.
    assert (
        _lint_snippet(tmp_path, "core/system.py", L7_INVALIDATE_FIRST, ["L7"])
        == []
    )


def test_l7_accepts_handler_that_invalidates_before_reraising(tmp_path):
    assert (
        _lint_snippet(
            tmp_path, "core/system.py", L7_HANDLER_INVALIDATES, ["L7"]
        )
        == []
    )


def test_l7_accepts_guard_raise_before_any_mutation(tmp_path):
    assert (
        _lint_snippet(
            tmp_path, "core/system.py", L7_RAISE_BEFORE_MUTATE, ["L7"]
        )
        == []
    )


# ----------------------------------------------------------------------
# L8 — purity of cache-key inputs
# ----------------------------------------------------------------------
L8_CLOCK_KEY = """
    import time

    class XMVRSystem:
        def _stamp(self):
            return time.time()

        def answer(self, query):
            query_key = self._stamp()
            return self._plan_cache.get(query_key, "MVS")
"""

L8_MUTATING_PRODUCER = """
    class XMVRSystem:
        def _bump(self, query):
            self._views["last"] = query
            return str(query)

        def answer(self, query):
            key = self._bump(query)
            return self._plan_cache.get(key, "MVS")
"""

L8_PURE_PRODUCER = """
    class XMVRSystem:
        def _canon(self, query):
            return "/".join(sorted(query))

        def answer(self, query):
            key = self._canon(query)
            return self._plan_cache.get(key, "MVS")
"""

L8_READS_STATE_PRODUCER = """
    class XMVRSystem:
        def _labelled(self, query):
            return self._prefix + query

        def answer(self, query):
            key = self._labelled(query)
            return self._plan_cache.get(key, "MVS")
"""

L8_SUBSCRIPT_MUTATING_PRODUCER = """
    class XMVRSystem:
        def _bump(self, query):
            self._queues[0].append(query)
            return str(query)

        def answer(self, query):
            key = self._bump(query)
            return self._plan_cache.get(key, "MVS")
"""


def test_l8_fires_on_clock_derived_key(tmp_path):
    violations = _lint_snippet(tmp_path, "core/system.py", L8_CLOCK_KEY, ["L8"])
    assert _rules_hit(violations) == {"L8"}
    assert "_stamp" in violations[0].message


def test_l8_fires_on_mutating_key_producer(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L8_MUTATING_PRODUCER, ["L8"]
    )
    assert _rules_hit(violations) == {"L8"}


def test_l8_fires_on_producer_mutating_through_a_subscript(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/system.py", L8_SUBSCRIPT_MUTATING_PRODUCER, ["L8"]
    )
    assert _rules_hit(violations) == {"L8"}
    assert "_bump" in violations[0].message


def test_l8_accepts_pure_key_producer(tmp_path):
    assert (
        _lint_snippet(tmp_path, "core/system.py", L8_PURE_PRODUCER, ["L8"])
        == []
    )


def test_l8_accepts_reads_state_key_producer(tmp_path):
    # Reading live state is fine — only mutation, I/O and the clock
    # break key determinism.
    assert (
        _lint_snippet(
            tmp_path, "core/system.py", L8_READS_STATE_PRODUCER, ["L8"]
        )
        == []
    )


def test_l8_covers_memo_intern_sink(tmp_path):
    source = """
        import time

        class XMVRSystem:
            def _stamp(self):
                return time.time()

            def warm(self, pattern):
                key = self._stamp()
                return self._memo.intern(key, pattern)
    """
    violations = _lint_snippet(tmp_path, "core/system.py", source, ["L8"])
    assert _rules_hit(violations) == {"L8"}


def test_l8_covers_memo_evict_views_sink(tmp_path):
    # Carry-over eviction keys select which memo entries survive an
    # epoch — an impure producer must be flagged like any cache key.
    source = """
        import time

        class XMVRSystem:
            def _touched(self):
                return [str(time.time())]

            def refresh(self):
                gone = self._touched()
                return self._memo.evict_views(gone)
    """
    violations = _lint_snippet(tmp_path, "core/system.py", source, ["L8"])
    assert _rules_hit(violations) == {"L8"}
    assert "_touched" in violations[0].message


def test_l8_accepts_pure_evict_views_producer(tmp_path):
    source = """
        class XMVRSystem:
            def _touched(self, edits):
                return sorted(set(edits))

            def refresh(self, edits):
                gone = self._touched(edits)
                return self._memo.evict_views(gone)
    """
    assert _lint_snippet(tmp_path, "core/system.py", source, ["L8"]) == []


# ----------------------------------------------------------------------
# L9 — import layering
# ----------------------------------------------------------------------
def test_l9_fires_on_upward_import(tmp_path):
    violations = _lint_tree(
        tmp_path,
        {
            "xpath/helper.py": """
                from core.system import XMVRSystem

                def shortcut(q):
                    return XMVRSystem.answer_static(q)
            """,
            "core/system.py": """
                class XMVRSystem:
                    pass
            """,
        },
        ["L9"],
    )
    assert _rules_hit(violations) == {"L9"}
    assert violations[0].path.endswith("xpath/helper.py")


def test_l9_fires_on_sideways_import(tmp_path):
    violations = _lint_tree(
        tmp_path,
        {
            "analysis/tool.py": "import workload.gen\n",
            "workload/gen.py": "SEED = 7\n",
        },
        ["L9"],
    )
    assert _rules_hit(violations) == {"L9"}


def test_l9_accepts_downward_imports(tmp_path):
    assert (
        _lint_tree(
            tmp_path,
            {
                "core/system.py": """
                    from xpath.pattern import TreePattern
                    import storage.kv
                """,
                "xpath/pattern.py": "class TreePattern:\n    pass\n",
                "storage/kv.py": "KV = {}\n",
            },
            ["L9"],
        )
        == []
    )


def test_l9_exempts_shell_modules_and_external_imports(tmp_path):
    assert (
        _lint_tree(
            tmp_path,
            {
                # cli wires all layers together — exempt.
                "cli.py": "import core.system\nimport bench.run\n",
                "core/system.py": "import json\nimport collections\n",
                "bench/run.py": "X = 1\n",
            },
            ["L9"],
        )
        == []
    )


# ----------------------------------------------------------------------
# per-file fact cache
# ----------------------------------------------------------------------
def _write_tree(tmp_path: Path, count: int = 6) -> Path:
    root = tmp_path / "proj"
    (root / "core").mkdir(parents=True)
    for index in range(count):
        (root / "core" / f"mod{index}.py").write_text(
            "def helper(value: int) -> int:\n    return value + 1\n",
            encoding="utf-8",
        )
    return root


def test_cache_skips_recompute_on_warm_run(tmp_path, monkeypatch):
    root = _write_tree(tmp_path)
    cache = tmp_path / "cache"
    calls = []
    original = engine._compute_file_facts

    def counting(path, repo_root):
        calls.append(path)
        return original(path, repo_root)

    monkeypatch.setattr(engine, "_compute_file_facts", counting)
    cold = lint_paths([root], all_rules(), root=root, cache_dir=cache)
    assert len(calls) == 6
    calls.clear()
    warm = lint_paths([root], all_rules(), root=root, cache_dir=cache)
    assert calls == []  # every file served from the cache
    assert warm == cold


def test_cache_recomputes_only_edited_file(tmp_path, monkeypatch):
    root = _write_tree(tmp_path)
    cache = tmp_path / "cache"
    lint_paths([root], all_rules(), root=root, cache_dir=cache)

    calls = []
    original = engine._compute_file_facts

    def counting(path, repo_root):
        calls.append(Path(path).name)
        return original(path, repo_root)

    monkeypatch.setattr(engine, "_compute_file_facts", counting)
    target = root / "core" / "mod3.py"
    target.write_text("def helper(value):\n    return value\n", "utf-8")
    violations = lint_paths([root], all_rules(), root=root, cache_dir=cache)
    assert calls == ["mod3.py"]
    # ...and the edit's new violation (L5: missing annotations) surfaces.
    assert "L5" in _rules_hit(violations)


def test_cache_cold_vs_warm_timing(tmp_path):
    root = _write_tree(tmp_path, count=12)
    cache = tmp_path / "cache"
    start = time.perf_counter()
    lint_paths([root], all_rules(), root=root, cache_dir=cache)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    lint_paths([root], all_rules(), root=root, cache_dir=cache)
    warm = time.perf_counter() - start
    # The CI budget for a warm re-lint of all of src/ is 2 s; a dozen
    # trivial files must come in far under that.
    assert warm < 2.0, f"warm lint too slow: cold={cold:.3f}s warm={warm:.3f}s"


def test_cache_survives_corrupt_entries(tmp_path):
    root = _write_tree(tmp_path, count=2)
    cache = tmp_path / "cache"
    baseline = lint_paths([root], all_rules(), root=root, cache_dir=cache)
    for entry in cache.iterdir():
        entry.write_bytes(b"not a pickle")
    # Corrupt cache entries must be recomputed, not crash the lint.
    assert (
        lint_paths([root], all_rules(), root=root, cache_dir=cache)
        == baseline
    )


def test_cache_ignores_suppressed_rule_changes_via_content_hash(tmp_path):
    # A suppression edit changes the file content, hence the cache key;
    # the stale record must not leak the old verdict.
    root = tmp_path / "proj"
    (root / "core").mkdir(parents=True)
    target = root / "core" / "bad.py"
    target.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    cache = tmp_path / "cache"
    first = lint_paths([target], all_rules(["L2"]), root=root, cache_dir=cache)
    assert _rules_hit(first) == {"L2"}
    target.write_text(
        "def remark(p):\n"
        "    p.ret.axis = None  # xmvrlint: disable=L2 -- test\n",
        encoding="utf-8",
    )
    second = lint_paths(
        [target], all_rules(["L2"]), root=root, cache_dir=cache
    )
    assert second == []


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
def test_baseline_roundtrip(tmp_path):
    violations = _lint_snippet(
        tmp_path,
        "core/dirty.py",
        "def remark(p):\n    p.ret.axis = None\n    p.root.steps = ()\n",
        ["L2"],
    )
    assert len(violations) == 2
    baseline_file = tmp_path / "baseline.json"
    write_baseline(violations, baseline_file)
    counts = load_baseline(baseline_file)
    assert counts == baseline_counts(violations)
    assert apply_baseline(violations, counts) == []


def test_baseline_lets_new_violations_through(tmp_path):
    first = _lint_snippet(
        tmp_path, "core/dirty.py", "def remark(p):\n    p.ret.axis = None\n",
        ["L2"],
    )
    counts = baseline_counts(first)
    more = _lint_snippet(
        tmp_path,
        "core/dirty.py",
        "def remark(p):\n    p.ret.axis = None\n    p.root.steps = ()\n",
        ["L2"],
    )
    remaining = apply_baseline(more, counts)
    assert len(remaining) == 1  # one baselined away, the new one stays


def test_baseline_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"counts": {"x": "three"}}), encoding="utf-8")
    with pytest.raises(LintError):
        load_baseline(bad)
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(LintError):
        load_baseline(bad)


def test_cli_baseline_flow(tmp_path, capsys):
    dirty = tmp_path / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    baseline_file = tmp_path / "baseline.json"
    assert (
        lint_main(
            [str(dirty), "--select", "L2",
             "--write-baseline", str(baseline_file)]
        )
        == EXIT_CLEAN
    )
    assert (
        lint_main(
            [str(dirty), "--select", "L2", "--baseline", str(baseline_file)]
        )
        == EXIT_CLEAN
    )
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n    p.root.steps = ()\n",
        encoding="utf-8",
    )
    assert (
        lint_main(
            [str(dirty), "--select", "L2", "--baseline", str(baseline_file)]
        )
        == EXIT_VIOLATIONS
    )
    capsys.readouterr()


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_render_sarif_shape(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/dirty.py",
        "def remark(p):\n    p.ret.axis = None\n", ["L2"],
    )
    report = json.loads(render_sarif(violations, all_rules(["L2"])))
    assert report["version"] == "2.1.0"
    run = report["runs"][0]
    assert run["tool"]["driver"]["name"] == "xmvrlint"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == {"L2"}
    result = run["results"][0]
    assert result["ruleId"] == "L2"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def test_cli_sarif_output(tmp_path, capsys):
    dirty = tmp_path / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    assert (
        lint_main([str(dirty), "--select", "L2", "--format", "sarif"])
        == EXIT_VIOLATIONS
    )
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["results"][0]["ruleId"] == "L2"


# ----------------------------------------------------------------------
# --explain and rule-range selection
# ----------------------------------------------------------------------
def test_explain_returns_design_entries():
    for rule_id, marker in [
        ("L7", "exception"),
        ("L8", "purity"),
        ("L9", "layering"),
        ("L10", "lock-set"),
        ("L11", "acquisition"),
        ("L12", "pinning"),
        ("L13", "immutability"),
        ("L14", "blocking"),
        ("L15", "invalidat"),
        ("L16", "acyclic"),
        ("L17", "rebuild"),
        ("L18", "mutator"),
        ("L19", "unannotated"),
    ]:
        text = explain_rule(rule_id)
        assert text.startswith(f"**{rule_id} ")
        assert marker in text.lower()


def test_explain_unknown_rule_is_an_error():
    with pytest.raises(LintError):
        explain_rule("L99")


def test_cli_explain_exits_clean(capsys):
    assert lint_main(["--explain", "L7"]) == EXIT_CLEAN
    assert "stale" in capsys.readouterr().out.lower()


def test_rule_range_selection():
    # A range selects the registered rules inside it: the retired ids
    # L1 and L6 are skipped, not errors.
    assert [rule.rule_id for rule in all_rules(["L1-L3"])] == ["L2", "L3"]
    assert [rule.rule_id for rule in all_rules(["L5-L7"])] == ["L5", "L7"]
    assert len(all_rules(["L1-L19"])) == len(all_rules()) == 17
    # Selection order is preserved: ranges expand in place.
    assert [rule.rule_id for rule in all_rules(["L7-L9", "L2"])] == [
        "L7", "L8", "L9", "L2",
    ]
    with pytest.raises(LintError):
        all_rules(["L9-L7"])
    # A range that selects nothing, and a plain unknown id, still fail.
    with pytest.raises(LintError, match="selects no rule"):
        all_rules(["L1-L1"])
    for retired in ("L1", "L6"):
        with pytest.raises(LintError, match=f"unknown rule id.*{retired}"):
            all_rules([retired])


def test_cli_rules_flag_accepts_ranges(tmp_path, capsys):
    dirty = tmp_path / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "def remark(p):\n    p.ret.axis = None\n", encoding="utf-8"
    )
    assert lint_main([str(dirty), "--rules", "L1-L9"]) == EXIT_VIOLATIONS
    assert lint_main([str(dirty), "--rules", "L3-L4"]) == EXIT_CLEAN
    capsys.readouterr()
    assert lint_main([str(dirty), "--rules", "L1"]) == EXIT_ERROR
    assert "known: L10" in capsys.readouterr().err


# ----------------------------------------------------------------------
# lintcli edge cases
# ----------------------------------------------------------------------
def test_multi_rule_disable_file(tmp_path):
    source = """
        # xmvrlint: disable-file=L2,L4
        import random

        def remark(pattern):
            pattern.ret.axis = None
            return random.random()
    """
    assert _lint_snippet(tmp_path, "core/x.py", source, ["L2", "L4"]) == []


def test_suppression_on_decorated_def_line(tmp_path):
    # A decorated method is reported at its `def` line, not at the
    # decorator, so the pragma goes there.
    source = """
        def _wrap(fn):
            return fn

        class XMVRSystem:
            @_wrap
            def rebuild(self){pragma}
                self._views = {{}}
    """
    unsuppressed = _lint_snippet(
        tmp_path, "core/x.py", source.format(pragma=":"), ["L5"]
    )
    assert _rules_hit(unsuppressed) == {"L5"}
    suppressed = source.format(
        pragma=":  # xmvrlint: disable=L5 -- fixture method"
    )
    assert _lint_snippet(tmp_path, "core/x.py", suppressed, ["L5"]) == []


def test_unparsable_file_in_clean_directory_is_exit_2(tmp_path, capsys):
    root = tmp_path / "core"
    root.mkdir()
    (root / "clean.py").write_text("X = 1\n", encoding="utf-8")
    (root / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    assert lint_main([str(root)]) == EXIT_ERROR
    capsys.readouterr()


def test_fix_on_clean_file_changes_nothing(tmp_path, capsys):
    target = tmp_path / "storage" / "ok.py"
    target.parent.mkdir(parents=True)
    source = "def reset(store: dict) -> None:\n    store.clear()\n"
    target.write_text(source, encoding="utf-8")
    assert lint_main([str(target), "--select", "L5", "--fix"]) == EXIT_CLEAN
    assert target.read_text(encoding="utf-8") == source


# ----------------------------------------------------------------------
# the repo itself is clean under the full rule set
# ----------------------------------------------------------------------
def test_repo_is_clean_under_whole_program_rules():
    # The full per-file + whole-program rule set (dataflow L7-L9,
    # concurrency L10-L14, derived-state L15-L19): the real tree must
    # stay clean with zero unjustified suppressions.
    src = Path(__file__).resolve().parent.parent / "src"
    violations = lint_paths(
        [src], all_rules(["L1-L19"]), root=src.parent
    )
    assert violations == [], engine.render_human(violations)
