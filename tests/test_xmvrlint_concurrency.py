"""Concurrency rules L10-L14: lock-set races, lock-order cycles,
epoch pinning, snapshot immutability, and blocking-under-lock.

Every rule gets true-positive fixtures (seeded defects that must fire)
and false-positive fixtures (compliant code that must stay clean).
On top of the synthetic fixtures, a seeded-mutant battery copies the
real, annotated ``src/repro/core/system.py`` into a temp tree, appends
one violating method per rule, and asserts the rule catches exactly
that bug — proof the annotations and the analysis line up on the tree
they were written for.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import engine
from repro.analysis.engine import all_rules, lint_paths

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
# L10 — lock-set consistency (guarded-by)
# ----------------------------------------------------------------------
L10_UNLOCKED_READ = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def peek(self):
            return self._count
"""

L10_WRONG_LOCK_WRITE = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            self._other = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def bump(self):
            with self._other:
                self._count = 5
"""

L10_LOCKED_ACCESS = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            with self._lock:
                return self._count
"""

L10_HELPER_UNDER_LOCK = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def _bump_locked(self):
            self._count += 1

        def bump(self):
            with self._lock:
                self._bump_locked()
"""

L10_HELPER_ESCAPES_LOCK = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def _bump_locked(self):
            self._count += 1

        def bump(self):
            with self._lock:
                self._bump_locked()

        def sneak(self):
            self._bump_locked()
"""

L10_WRITES_MODE = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock (writes)
            self._hits = 0

        def peek(self):
            return self._hits

        def bump(self):
            self._hits += 1
"""


def test_l10_fires_on_unlocked_read(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/thing.py", L10_UNLOCKED_READ, ["L10"]
    )
    assert _rules_hit(violations) == {"L10"}
    assert "_lock" in violations[0].message


def test_l10_fires_on_write_under_wrong_lock(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/thing.py", L10_WRONG_LOCK_WRITE, ["L10"]
    )
    assert _rules_hit(violations) == {"L10"}
    assert "write" in violations[0].message


def test_l10_accepts_locked_access(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/thing.py", L10_LOCKED_ACCESS, ["L10"]
    ) == []


def test_l10_accepts_helper_called_only_under_lock(tmp_path):
    # Interprocedural: the helper never takes the lock itself, but the
    # entry-locks fixpoint proves every caller holds it.
    assert _lint_snippet(
        tmp_path, "core/thing.py", L10_HELPER_UNDER_LOCK, ["L10"]
    ) == []


def test_l10_fires_when_one_caller_escapes_the_lock(tmp_path):
    # One unlocked call site drains the intersection: the helper's
    # unguarded mutation is now reachable without the lock.
    violations = _lint_snippet(
        tmp_path, "core/thing.py", L10_HELPER_ESCAPES_LOCK, ["L10"]
    )
    assert _rules_hit(violations) == {"L10"}


def test_l10_writes_mode_allows_lock_free_reads(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/thing.py", L10_WRITES_MODE, ["L10"]
    )
    # The unlocked read is by design; only the unlocked write fires.
    assert len(violations) == 1
    assert "write" in violations[0].message


def test_l10_exempts_init_construction(tmp_path):
    # Writes in __init__ happen before the object is shared.
    assert _lint_snippet(
        tmp_path, "core/thing.py", L10_UNLOCKED_READ.replace(
            "def peek(self):\n            return self._count",
            "def noop(self):\n            pass",
        ), ["L10"]
    ) == []


# ----------------------------------------------------------------------
# L11 — lock-order acquisition graph
# ----------------------------------------------------------------------
L11_CYCLE = """
    import threading

    class Thing:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def forwards(self):
            with self._a:
                with self._b:
                    pass

        def backwards(self):
            with self._b:
                with self._a:
                    pass
"""

L11_CONSISTENT = """
    import threading

    class Thing:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def one(self):
            with self._a:
                with self._b:
                    pass

        def two(self):
            with self._a:
                with self._b:
                    pass
"""

L11_REACQUIRE = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()

        def outer(self):
            with self._lock:
                with self._lock:
                    pass
"""

L11_RLOCK_REACQUIRE = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.RLock()

        def outer(self):
            with self._lock:
                with self._lock:
                    pass
"""

L11_CYCLE_THROUGH_CALL = """
    import threading

    class Thing:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def _take_a(self):
            with self._a:
                pass

        def forwards(self):
            with self._a:
                with self._b:
                    pass

        def backwards(self):
            with self._b:
                self._take_a()
"""


def test_l11_fires_on_lock_order_cycle(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L11_CYCLE, ["L11"])
    assert _rules_hit(violations) == {"L11"}
    assert "cycle" in violations[0].message


def test_l11_accepts_consistent_order(tmp_path):
    assert _lint_snippet(tmp_path, "core/t.py", L11_CONSISTENT, ["L11"]) == []


def test_l11_fires_on_nonreentrant_reacquire(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L11_REACQUIRE, ["L11"])
    assert _rules_hit(violations) == {"L11"}


def test_l11_accepts_rlock_reacquire(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L11_RLOCK_REACQUIRE, ["L11"]
    ) == []


def test_l11_sees_cycle_through_a_call(tmp_path):
    # backwards() holds _b and calls a helper that acquires _a: the
    # transitive-acquires fixpoint must close the b -> a edge.
    violations = _lint_snippet(
        tmp_path, "core/t.py", L11_CYCLE_THROUGH_CALL, ["L11"]
    )
    assert _rules_hit(violations) == {"L11"}


# ----------------------------------------------------------------------
# L12 — epoch pinning (read-once snapshots)
# ----------------------------------------------------------------------
L12_DOUBLE_READ = """
    import threading

    class System:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock (writes, pin-once)
            self._epoch = object()

        def torn(self):
            first = self._epoch
            second = self._epoch
            return first is second
"""

L12_LOOP_READ = """
    import threading

    class System:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock (writes, pin-once)
            self._epoch = object()

        def spin(self):
            for _ in range(3):
                print(self._epoch)
"""

L12_SINGLE_PIN = """
    import threading

    class System:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock (writes, pin-once)
            self._epoch = object()

        def pinned(self):
            epoch = self._epoch
            for _ in range(3):
                print(epoch)
            return epoch
"""

L12_READS_UNDER_LOCK = """
    import threading

    class System:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock (writes, pin-once)
            self._epoch = object()

        def swap(self):
            with self._lock:
                if self._epoch is not None:
                    print(self._epoch)
"""


def test_l12_fires_on_double_read(tmp_path):
    violations = _lint_snippet(tmp_path, "core/s.py", L12_DOUBLE_READ, ["L12"])
    assert _rules_hit(violations) == {"L12"}
    assert "2 times" in violations[0].message


def test_l12_fires_on_read_inside_loop(tmp_path):
    violations = _lint_snippet(tmp_path, "core/s.py", L12_LOOP_READ, ["L12"])
    assert _rules_hit(violations) == {"L12"}
    assert "loop" in violations[0].message


def test_l12_accepts_single_pin(tmp_path):
    assert _lint_snippet(tmp_path, "core/s.py", L12_SINGLE_PIN, ["L12"]) == []


def test_l12_accepts_repeated_reads_under_the_lock(tmp_path):
    # Under the writer lock the field cannot move between reads.
    assert _lint_snippet(
        tmp_path, "core/s.py", L12_READS_UNDER_LOCK, ["L12"]
    ) == []


# ----------------------------------------------------------------------
# L13 — deep immutability of published snapshots
# ----------------------------------------------------------------------
L13_UNFROZEN = """
    from dataclasses import dataclass

    @dataclass
    class RegistryEpoch:
        views: dict
"""

L13_FROZEN = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RegistryEpoch:
        views: dict
"""

L13_SUBSCRIPT_MUTATION = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RegistryEpoch:
        views: dict

    class System:
        def __init__(self):
            self._epoch = RegistryEpoch(views={})

        def poison(self):
            self._epoch.views["x"] = None
"""

L13_MUTATOR_THROUGH_LOCAL = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RegistryEpoch:
        views: dict

    class System:
        def __init__(self):
            self._epoch = RegistryEpoch(views={})

        def poison(self):
            epoch = self._epoch
            epoch.views.clear()
"""

L13_FRESH_SWAP = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RegistryEpoch:
        views: dict

    class System:
        def __init__(self):
            self._epoch = RegistryEpoch(views={})

        def publish(self, views):
            self._epoch = RegistryEpoch(views=dict(views))
"""


def test_l13_requires_frozen_registry_epoch(tmp_path):
    violations = _lint_snippet(tmp_path, "core/s.py", L13_UNFROZEN, ["L13"])
    assert _rules_hit(violations) == {"L13"}
    assert "frozen" in violations[0].message


def test_l13_accepts_frozen_registry_epoch(tmp_path):
    assert _lint_snippet(tmp_path, "core/s.py", L13_FROZEN, ["L13"]) == []


def test_l13_fires_on_subscript_mutation(tmp_path):
    violations = _lint_snippet(
        tmp_path, "core/s.py", L13_SUBSCRIPT_MUTATION, ["L13"]
    )
    assert _rules_hit(violations) == {"L13"}


def test_l13_fires_on_mutator_through_pinned_local(tmp_path):
    # Pinning the epoch into a local must not launder the mutation.
    violations = _lint_snippet(
        tmp_path, "core/s.py", L13_MUTATOR_THROUGH_LOCAL, ["L13"]
    )
    assert _rules_hit(violations) == {"L13"}


def test_l13_accepts_fresh_epoch_swap(tmp_path):
    # Publish-by-replacement is the sanctioned update protocol.
    assert _lint_snippet(tmp_path, "core/s.py", L13_FRESH_SWAP, ["L13"]) == []


# ----------------------------------------------------------------------
# L14 — no blocking under a core lock
# ----------------------------------------------------------------------
L14_BLOCKING_IO = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()

        def slow(self):
            with self._lock:
                return open("/tmp/x").read()
"""

L14_SLEEP = """
    import threading
    import time

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()

        def nap(self):
            with self._lock:
                time.sleep(1)
"""

L14_BLOCKING_ALLOWED = """
    import threading

    class Store:
        def __init__(self):
            #: lock: blocking-allowed
            self._lock = threading.RLock()

        def load(self):
            with self._lock:
                return open("/tmp/x").read()
"""

L14_OUTSIDE_LOCK = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()

        def fine(self):
            payload = open("/tmp/x").read()
            with self._lock:
                return len(payload)
"""

L14_CONDITION_WAIT = """
    import threading

    class Gate:
        def __init__(self):
            self._gate = threading.Condition()

        def wait_idle(self):
            with self._gate:
                self._gate.wait()
"""

L14_HELPER_DYNAMIC_RECEIVER = """
    import threading

    class Log:
        def __init__(self, files):
            self._lock = threading.Lock()
            self._files = files

        def _flush(self):
            self._files[0].write(b"x")

        def append(self):
            with self._lock:
                self._flush()

        def append_unlocked(self):
            self._flush()
"""


def test_l14_fires_on_file_io_under_lock(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L14_BLOCKING_IO, ["L14"])
    assert _rules_hit(violations) == {"L14"}
    assert "block" in violations[0].message


def test_l14_fires_on_sleep_under_lock(tmp_path):
    violations = _lint_snippet(tmp_path, "core/t.py", L14_SLEEP, ["L14"])
    assert _rules_hit(violations) == {"L14"}


def test_l14_fires_on_helper_writing_through_a_subscript(tmp_path):
    # The helper's write has a subscript receiver, so it never resolves;
    # its effect is classified by method name, as a direct site is.
    violations = _lint_snippet(
        tmp_path, "core/t.py", L14_HELPER_DYNAMIC_RECEIVER, ["L14"]
    )
    assert _rules_hit(violations) == {"L14"}
    assert "'_flush()' may block" in violations[0].message


def test_l14_accepts_blocking_allowed_annotation(tmp_path):
    assert _lint_snippet(
        tmp_path, "storage/s.py", L14_BLOCKING_ALLOWED, ["L14"]
    ) == []


def test_l14_accepts_io_outside_the_lock(tmp_path):
    assert _lint_snippet(
        tmp_path, "core/t.py", L14_OUTSIDE_LOCK, ["L14"]
    ) == []


def test_l14_accepts_condition_wait_on_held_condition(tmp_path):
    # cond.wait() releases the lock it holds — the gate pattern.
    assert _lint_snippet(
        tmp_path, "service/g.py", L14_CONDITION_WAIT, ["L14"]
    ) == []


# ----------------------------------------------------------------------
# seeded mutants against the real annotated system.py
# ----------------------------------------------------------------------
SYSTEM_MUTANTS = {
    "L10": """\
    def _mutant(self):
        return self._plan_stats_base
""",
    "L11": """\
    def _mutant(self):
        with self._stats_lock:
            with self._mutate_lock:
                pass
""",
    "L12": """\
    def _mutant(self):
        first = self._epoch
        second = self._epoch
        return first is second
""",
    "L13": """\
    def _mutant(self):
        self._epoch.views["x"] = None
""",
    "L14": """\
    def _mutant(self):
        with self._stats_lock:
            open("/tmp/x").read()
""",
}


def _lint_system_copy(tmp_path: Path, extra: str = ""):
    source = SYSTEM_PY.read_text(encoding="utf-8")
    target = tmp_path / "core" / "system.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source + "\n" + extra, encoding="utf-8")
    original_lines = source.count("\n")
    violations = lint_paths([tmp_path], all_rules(["L10-L14"]), root=tmp_path)
    return [v for v in violations if v.line > original_lines]


def test_unmutated_system_copy_is_clean(tmp_path):
    source = SYSTEM_PY.read_text(encoding="utf-8")
    target = tmp_path / "core" / "system.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    violations = lint_paths([tmp_path], all_rules(["L10-L14"]), root=tmp_path)
    assert violations == [], engine.render_human(violations)


@pytest.mark.parametrize("rule_id", sorted(SYSTEM_MUTANTS))
def test_seeded_mutant_is_caught(tmp_path, rule_id):
    seeded = _lint_system_copy(tmp_path, SYSTEM_MUTANTS[rule_id])
    assert rule_id in _rules_hit(seeded), (
        f"{rule_id} missed its seeded mutant"
    )


# ----------------------------------------------------------------------
# suppression pragmas require a justification for L10-L14
# ----------------------------------------------------------------------
SUPPRESS_TEMPLATE = """
    import threading

    class Thing:
        def __init__(self):
            self._lock = threading.Lock()
            #: guarded-by: _lock
            self._count = 0

        def peek(self):
            return self._count  {pragma}
"""


def test_bare_pragma_does_not_suppress_concurrency_rules(tmp_path):
    violations = _lint_snippet(
        tmp_path,
        "core/t.py",
        SUPPRESS_TEMPLATE.format(pragma="# xmvrlint: disable=L10"),
        ["L10"],
    )
    assert _rules_hit(violations) == {"L10"}


def test_justified_pragma_suppresses(tmp_path):
    assert _lint_snippet(
        tmp_path,
        "core/t.py",
        SUPPRESS_TEMPLATE.format(
            pragma="# xmvrlint: disable=L10 -- monotonic stat, torn reads ok"
        ),
        ["L10"],
    ) == []


def test_bare_pragma_still_suppresses_per_file_rules(tmp_path):
    # The justification requirement is scoped to L10-L14; the per-file
    # rules keep their existing pragma contract.
    source = """
        class XMVRSystem:
            def rebuild(self):  # xmvrlint: disable=L5
                self._views = {}
    """
    assert _lint_snippet(tmp_path, "core/x.py", source, ["L5"]) == []


def test_disable_file_pragma_still_works_for_concurrency_rules(tmp_path):
    source = """
        # xmvrlint: disable-file=L10
        import threading

        class Thing:
            def __init__(self):
                self._lock = threading.Lock()
                #: guarded-by: _lock
                self._count = 0

            def peek(self):
                return self._count
    """
    assert _lint_snippet(tmp_path, "core/t.py", source, ["L10"]) == []
