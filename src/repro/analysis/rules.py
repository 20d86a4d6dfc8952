"""The xmvrlint rule set (L2–L5, L7–L19).

Each rule encodes one repo-specific invariant that the plan and memo
caches turned load-bearing; DESIGN.md §10 ties every rule to the mechanism it
protects.  The rules are intentionally conservative approximations —
they must never miss the failure mode they exist for, and the
suppression pragma exists for the rare justified exception.

L2–L5 are per-file AST rules.  L7–L9 are *whole-program* rules built on
the call graph (:mod:`repro.analysis.callgraph`) and the effect /
invalidation fixpoints (:mod:`repro.analysis.effects`): L7 checks
exception safety of mutation windows, L8 checks purity of everything
feeding a cache key, and L9 enforces the package layering DAG.  The
ids L1 and L6 are retired: the plan-cache invariant they checked (every
write to the document or view pool drops the cached plans) is the
``PlanCache._entries`` edge of the derivation DAG, which L15 checks on
every non-raising exit and L7 on the raising ones.

L10–L14 are the *concurrency* rules (DESIGN.md §13), built on the
lock-set / acquisition-graph facts of
:mod:`repro.analysis.concurrency`: L10 checks every access to a
``#: guarded-by:`` field holds the lock, L11 fails lock-order cycles
and non-reentrant re-acquisition, L12 enforces the pin-once epoch
discipline, L13 the deep immutability of published snapshots, and L14
forbids blocking calls under a core lock.  Line suppressions of these
five require a ``--`` justification; an unjustified pragma does not
suppress.

L15–L19 are the *derived-state ownership* rules (DESIGN.md §15), built
on the derivation DAG of :mod:`repro.analysis.statedeps` declared by
``#: state: hard | soft(derived-from=...; rebuild=...) | counter``
annotations: L15 checks every DAG edge, the plan cache's included (a
write reaching a derivation source must invalidate or patch
every strict dependent on every non-raising exit), L16 checks the DAG
shape (acyclic, hard state never derived, counters never sources), L17
that every soft field has a reachable rebuild path, L18 that hard
state is only written under ``#: state: mutator`` entry points or
lifecycle methods, and L19 that stateful classes annotate every
mutable attribute.  The same mandatory-justification suppression
policy applies.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import LAYER_RANKS, layer_of
from .dataflow import CallRef, _own_nodes, attr_chain
from .effects import _call_clock, _call_io, classify
from .engine import (
    FIX_RETURN_NONE,
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    Violation,
    register,
)

__all__ = [
    "FrozenPatternRule",
    "IdKeyEscapeRule",
    "WallClockRule",
    "PublicAnnotationsRule",
    "ExceptionSafetyRule",
    "CacheKeyPurityRule",
    "ImportLayeringRule",
    "LockSetRule",
    "LockOrderRule",
    "EpochPinningRule",
    "SnapshotImmutabilityRule",
    "BlockingUnderLockRule",
    "InvalidationCompletenessRule",
    "DerivationShapeRule",
    "RebuildPathRule",
    "HardWriteScopeRule",
    "StateCoverageRule",
]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _function_defs(tree: ast.Module) -> Iterator[tuple[ast.ClassDef | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Module-level and class-level function definitions (not nested)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, member


def _contains_id_call(node: ast.AST) -> bool:
    return any(
        isinstance(probe, ast.Call)
        and isinstance(probe.func, ast.Name)
        and probe.func.id == "id"
        for probe in ast.walk(node)
    )


# ======================================================================
# L2 — interned patterns are frozen after construction
# ======================================================================
#: Pattern-slot names unambiguous to PatternNode/TreePattern/PathPattern
#: (``label``/``parent``/``children`` are shared with XMLNode and would
#: flood the rule with false positives).
_L2_FROZEN_ATTRS = {"axis", "constraints", "ret", "steps"}
#: Construction modules allowed to write pattern slots.
_L2_ALLOWED_FILES = {"builder.py", "parser.py", "normalize.py", "pattern.py"}


@register
class FrozenPatternRule(Rule):
    """L2: no pattern-slot assignment outside the construction modules
    — CoverageMemo and the plan cache key on canonical strings and
    node identity of *interned* patterns.  At run time a built
    ``TreePattern`` is frozen (every write raises ``PatternError``,
    including to ``label``/``parent``/``children``, which this rule
    leaves out); the rule reports the same writes before they run."""

    rule_id = "L2"
    summary = (
        "PatternNode/TreePattern/PathPattern slots may only be assigned "
        "in xpath/{builder,parser,normalize,pattern}.py"
    )

    def applies_to(self, context: FileContext) -> bool:
        parts = context.parts
        return not (
            len(parts) >= 2
            and parts[-2] == "xpath"
            and parts[-1] in _L2_ALLOWED_FILES
        )

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _L2_FROZEN_ATTRS
                ):
                    yield self.violation(
                        context,
                        node,
                        f"assignment to pattern slot .{target.attr} "
                        "outside the construction modules; interned "
                        "patterns are frozen after construction",
                    )


# ======================================================================
# L3 — id()-keyed collections must not escape their strong reference
# ======================================================================
def _l3_id_keyed_construct(value: ast.AST) -> ast.AST | None:
    """A dict/set construction using ``id(...)`` in key position, if
    one occurs anywhere inside ``value``."""
    for probe in ast.walk(value):
        if isinstance(probe, ast.DictComp) and _contains_id_call(probe.key):
            return probe
        if isinstance(probe, ast.Dict) and any(
            key is not None and _contains_id_call(key) for key in probe.keys
        ):
            return probe
        if isinstance(probe, ast.SetComp) and _contains_id_call(probe.elt):
            return probe
        if isinstance(probe, ast.Set) and any(
            _contains_id_call(elt) for elt in probe.elts
        ):
            return probe
    return None


def _l3_class_retains(classdef: ast.ClassDef) -> bool:
    """The strong-reference convention: a class keeping the keyed
    objects alive declares a ``pattern`` slot/attribute or one ending
    in ``_refs`` (cf. ``leaf_cover._QueryMemo``)."""

    def retaining_name(name: str) -> bool:
        return name == "pattern" or name.endswith("_refs")

    for node in ast.walk(classdef):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    for probe in ast.walk(node.value):
                        if isinstance(probe, ast.Constant) and isinstance(
                            probe.value, str
                        ):
                            if retaining_name(probe.value):
                                return True
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and retaining_name(target.attr)
                ):
                    return True
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if retaining_name(node.target.id):
                return True
    return False


@register
class IdKeyEscapeRule(Rule):
    """L3: id()-keyed dicts/sets stored on ``self`` or returned from
    public functions dangle once the keyed objects are collected —
    unless the owning class retains a strong reference (the
    ``CoverageMemo``/``_QueryMemo`` pattern)."""

    rule_id = "L3"
    summary = (
        "id()-keyed dict/set stored on self or returned across a module "
        "boundary without a retained strong reference to the keyed "
        "objects"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        retains: dict[str, bool] = {}
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef):
                retains[node.name] = _l3_class_retains(node)
        for classdef, function in _function_defs(context.tree):
            class_retains = (
                retains.get(classdef.name, False) if classdef else False
            )
            public = not function.name.startswith("_")
            for node in _own_nodes(function):
                if isinstance(node, ast.Return) and node.value is not None:
                    if public and _l3_id_keyed_construct(node.value):
                        yield self.violation(
                            context,
                            node,
                            f"public function {function.name} returns an "
                            "id()-keyed collection; identity keys are "
                            "meaningless once the keyed objects are "
                            "garbage-collected",
                        )
                targets: list[ast.expr] = []
                value: ast.AST | None = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                for target in targets:
                    store = target
                    subscript_key: ast.AST | None = None
                    if isinstance(store, ast.Subscript):
                        subscript_key = store.slice
                        store = store.value
                    if not (
                        isinstance(store, ast.Attribute)
                        and isinstance(store.value, ast.Name)
                        and store.value.id == "self"
                    ):
                        continue
                    if class_retains:
                        continue
                    keyed = value is not None and _l3_id_keyed_construct(value)
                    by_subscript = (
                        subscript_key is not None
                        and _contains_id_call(subscript_key)
                    )
                    if keyed or by_subscript:
                        yield self.violation(
                            context,
                            node,
                            f"id()-keyed collection stored on "
                            f"self.{store.attr} without a retained "
                            "strong reference (declare a 'pattern' "
                            "slot/attribute or one ending in '_refs')",
                        )


# ======================================================================
# L4 — no wall clock / randomness in core/
# ======================================================================
_L4_BANNED_CALLS = {
    ("time", "time"),
    ("time", "clock"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
}
_L4_BANNED_FROM_TIME = frozenset(name for _, name in _L4_BANNED_CALLS)
_L4_NOW_NAMES = {"now", "utcnow", "today"}


@register
class WallClockRule(Rule):
    """L4: ``core/`` stays deterministic and benchmark-honest — no
    ``time.time()``, no ``random``, no ``datetime.now()`` outside
    ``bench/``.  Since the telemetry subsystem landed, the monotonic
    timers (``time.perf_counter``, ``time.monotonic`` and their ``_ns``
    variants) are banned too: core code measures time only through the
    injected :class:`repro.obs.Clock` (``self._clock.monotonic()``),
    so tests can substitute a manual clock and every reading lands in
    the shared metrics registry."""

    rule_id = "L4"
    summary = (
        "no time.*/random/datetime.now() in core/ outside bench/; "
        "the injected obs.Clock is the only sanctioned time source"
    )

    def applies_to(self, context: FileContext) -> bool:
        parts = context.parts
        return "core" in parts and "bench" not in parts

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.violation(
                            context, node, "import of random in core/"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        context, node, "import from random in core/"
                    )
                elif node.module == "time" and any(
                    alias.name in _L4_BANNED_FROM_TIME
                    for alias in node.names
                ):
                    yield self.violation(
                        context,
                        node,
                        "import of a time.* clock in core/ (use the "
                        "injected obs.Clock)",
                    )
            elif isinstance(node, ast.Call):
                chain = (
                    attr_chain(node.func)
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if chain is None:
                    continue
                if chain in _L4_BANNED_CALLS:
                    yield self.violation(
                        context,
                        node,
                        f"wall-clock call {'.'.join(chain)}() in core/",
                    )
                elif (
                    chain[-1] in _L4_NOW_NAMES
                    and chain[0] in ("datetime", "date")
                ):
                    yield self.violation(
                        context,
                        node,
                        f"wall-clock call {'.'.join(chain)}() in core/",
                    )


# ======================================================================
# L5 — public API annotation coverage
# ======================================================================
_L5_DIRS = {"core", "xpath", "storage", "analysis", "service"}


def _l5_is_procedure(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function provably returns nothing: no ``return``
    with a value, no ``yield`` — the ``--fix`` criterion."""
    for node in _own_nodes(function):
        if isinstance(node, ast.Return) and node.value is not None:
            return False
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return False
    return True


@register
class PublicAnnotationsRule(Rule):
    """L5: every public function in core/, xpath/, storage/ (and
    analysis/ itself) carries complete type annotations — the strict
    typing gate's precondition."""

    rule_id = "L5"
    summary = (
        "public functions in core/xpath/storage/analysis need parameter "
        "and return annotations"
    )

    def applies_to(self, context: FileContext) -> bool:
        return bool(_L5_DIRS & set(context.parts))

    def check(self, context: FileContext) -> Iterator[Violation]:
        for classdef, function in _function_defs(context.tree):
            if function.name.startswith("_"):
                continue
            if any(
                isinstance(dec, ast.Name) and dec.id == "overload"
                for dec in function.decorator_list
            ):
                continue
            arguments = function.args
            ordered = arguments.posonlyargs + arguments.args
            skip_first = classdef is not None and not any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in function.decorator_list
            )
            if skip_first and ordered and ordered[0].arg in ("self", "cls"):
                ordered = ordered[1:]
            missing = [
                arg.arg
                for arg in (
                    ordered
                    + arguments.kwonlyargs
                    + ([arguments.vararg] if arguments.vararg else [])
                    + ([arguments.kwarg] if arguments.kwarg else [])
                )
                if arg.annotation is None
            ]
            owner = f"{classdef.name}." if classdef else ""
            if missing:
                yield self.violation(
                    context,
                    function,
                    f"public function {owner}{function.name} is missing "
                    f"annotations for parameter(s): {', '.join(missing)}",
                )
            if function.returns is None:
                yield self.violation(
                    context,
                    function,
                    f"public function {owner}{function.name} is missing "
                    "a return annotation",
                    fix=(
                        FIX_RETURN_NONE
                        if _l5_is_procedure(function)
                        else None
                    ),
                )


# ======================================================================
# L7 — exception safety of mutation windows
# ======================================================================
@register
class ExceptionSafetyRule(ProjectRule):
    """L7: between the first answering-state write of an entry point
    and its ``_invalidate_plans()``, no possibly-raising call may
    execute — an escaping exception would leave the plan cache serving
    plans derived from state that no longer exists."""

    rule_id = "L7"
    summary = (
        "no possibly-raising call between an answering-state mutation "
        "and _invalidate_plans(); the error path must not leave a "
        "stale plan cache"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        facts = pctx.facts
        for fqname, function in facts.entry_points():
            owner = (
                f"{function.classname}." if function.classname else ""
            )
            relpath, _ = pctx.location_of(fqname)
            for window in facts.windows(fqname):
                yield Violation(
                    rule=self.rule_id,
                    path=relpath,
                    line=window.lineno,
                    column=0,
                    message=(
                        f"{owner}{function.name}: {window.reason} "
                        "(stale plan cache on the error path)"
                    ),
                )


# ======================================================================
# L8 — purity of cache inputs
# ======================================================================
#: Attribute names holding the plan cache / coverage memo.
_L8_CACHE_HOLDERS = {"_plan_cache", "plan_cache"}
_L8_MEMO_HOLDERS = {"_memo", "memo"}


def _l8_key_positions(call: CallRef) -> tuple[int, ...]:
    """Positional arguments of this call that become cache keys (or
    interned cache entries), per the PlanCache / CoverageMemo APIs."""
    if len(call.chain) < 2:
        return ()
    holder = call.chain[-2]
    if holder in _L8_CACHE_HOLDERS and call.name in ("get", "put"):
        return (0,)
    if holder in _L8_MEMO_HOLDERS:
        if call.name == "intern":
            return (0,)
        if call.name == "units":
            return (1,)
        if call.name == "evict_views":
            # Carry-over eviction: the view-id set selects which cached
            # entries survive an epoch; an impure producer would evict
            # the wrong views (or keep stale ones).
            return (0,)
    return ()


@register
class CacheKeyPurityRule(ProjectRule):
    """L8: whatever produces a plan-cache key or CoverageMemo entry
    must be inferred pure or reads-state — an impure producer (I/O,
    mutation, wall clock) makes the key nondeterministic, so equal
    queries stop hitting equal entries (generalizing L4)."""

    rule_id = "L8"
    summary = (
        "values flowing into plancache keys or CoverageMemo entries "
        "must come from pure/reads-state producers (no I/O, no "
        "mutation, no wall clock)"
    )

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        facts = pctx.facts
        project = pctx.project
        for fqname, function in project.iter_functions():
            module = project.module_of.get(fqname, "")
            imports = project.imports_of.get(module, {})
            relpath = pctx.relpath_by_module.get(module, module)
            # name -> producing callee chain; ambiguous rebinds drop out.
            binds: dict[str, tuple[str, ...] | None] = {}
            for step in function.iter_steps():
                for name, chain in step.binds:
                    binds[name] = (
                        chain if binds.get(name, chain) == chain else None
                    )
            for step in function.iter_steps():
                for call in step.calls:
                    for position in _l8_key_positions(call):
                        if position >= len(call.arg_chains):
                            continue
                        argument = call.arg_chains[position]
                        if argument is None:
                            continue
                        if argument[0] == "<call>":
                            producer = argument[1:]
                        elif len(argument) == 1:
                            producer = binds.get(argument[0]) or ()
                        else:
                            producer = ()
                        if not producer:
                            continue
                        probe = CallRef(chain=producer, lineno=call.lineno)
                        callee = project.resolve(fqname, probe)
                        if callee is not None:
                            effect = facts.effect_of(callee)
                            if effect.cache_safe:
                                continue
                            detail = classify(effect)
                        elif _call_io(probe, imports) or _call_clock(
                            probe, imports
                        ):
                            detail = "I/O or wall clock"
                        else:
                            continue
                        yield Violation(
                            rule=self.rule_id,
                            path=relpath,
                            line=call.lineno,
                            column=0,
                            message=(
                                f"cache input for "
                                f"{'.'.join(call.chain)}() is produced "
                                f"by '{'.'.join(producer)}()' which is "
                                f"{detail}; cache inputs must be pure "
                                "or reads-state"
                            ),
                        )


# ======================================================================
# L9 — import layering DAG
# ======================================================================
_L9_DAG = (
    "errors -> obs -> xmltree -> xpath -> matching -> storage -> "
    "core -> {analysis, workload} -> {bench, service}"
)


@register
class ImportLayeringRule(ProjectRule):
    """L9: imports must follow the layer DAG — no upward imports, no
    imports between same-rank layers.  The application shell (``cli``,
    ``__main__``) wires everything together and is exempt."""

    rule_id = "L9"
    summary = f"imports must follow the layer DAG {_L9_DAG}"

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        roots = {
            summary.module.split(".")[0]
            for summary in pctx.project.files.values()
            if summary.module
        }
        for relpath in sorted(pctx.project.files):
            summary = pctx.project.files[relpath]
            source = layer_of(summary.module)
            if source is None:
                continue
            for record in summary.imports:
                segments = record.target.split(".")
                internal = segments[0] in roots or any(
                    segment in LAYER_RANKS for segment in segments
                )
                if not internal:
                    continue
                target = layer_of(record.target)
                if target is None:
                    continue
                upward = target[1] > source[1]
                sideways = target[1] == source[1] and target[0] != source[0]
                if upward or sideways:
                    yield Violation(
                        rule=self.rule_id,
                        path=relpath,
                        line=record.lineno,
                        column=0,
                        message=(
                            f"layer '{source[0]}' imports "
                            f"{'higher' if upward else 'same-rank'} "
                            f"layer '{target[0]}' ({record.target}); "
                            f"the layer DAG is {_L9_DAG}"
                        ),
                    )


# ======================================================================
# L10–L14 — concurrency rules (lock discipline, DESIGN.md §13)
# ======================================================================
class _ConcurrencyRule(ProjectRule):
    """Shared shape of the five concurrency rules: each wraps one
    finding list of the :class:`ConcurrencyFacts` computed lazily on
    the project context."""

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        raise NotImplementedError

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        for relpath, lineno, message in self.findings(pctx):
            yield Violation(
                rule=self.rule_id,
                path=relpath,
                line=lineno,
                column=0,
                message=message,
            )


@register
class LockSetRule(_ConcurrencyRule):
    """L10: every access to a field annotated ``#: guarded-by: <lock>``
    must happen with that lock held — statically, via the entry-lock
    fixpoint (the intersection of locks held at every call site), so a
    helper only ever called under the lock needs no annotation of its
    own.  ``(writes)`` mode exempts reads (monotonic-publish fields)."""

    rule_id = "L10"
    summary = (
        "reads/writes of `#: guarded-by:` fields must hold the named "
        "lock (lock-set race detection over the call graph)"
    )
    description = (
        "Eraser/RacerD-style lock-set checking: a field annotated "
        "`#: guarded-by: <lock>` may only be accessed while its class's "
        "<lock> is held, either by an enclosing `with`, or at every "
        "call site of the enclosing function (greatest-fixpoint entry "
        "locks). `__init__` is exempt (the object is unpublished)."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.concurrency.lockset_violations()


@register
class LockOrderRule(_ConcurrencyRule):
    """L11: the global acquires-while-holding graph must be acyclic,
    and a held non-reentrant lock must never be re-acquired (that is
    not deadlock *potential*, it is deadlock)."""

    rule_id = "L11"
    summary = (
        "the lock acquisition-order graph must be acyclic and no held "
        "non-reentrant lock may be re-acquired"
    )
    description = (
        "Builds edges A -> B whenever some program point acquires lock "
        "B while holding A, directly or through a resolved call that "
        "transitively acquires B. A cycle means two threads can "
        "acquire the locks in opposite orders and deadlock; "
        "re-acquiring a held Lock/Condition self-deadlocks "
        "immediately (RLocks are reentrant and exempt)."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.concurrency.order_violations()


@register
class EpochPinningRule(_ConcurrencyRule):
    """L12: a function serving a request must read a ``pin-once``
    field (``self._epoch``) exactly once and thread the snapshot
    through — a second unlocked read may observe a different epoch and
    mix plans across registry generations."""

    rule_id = "L12"
    summary = (
        "`pin-once` snapshot fields must be read at most once per "
        "function (and never inside a loop) unless the writer lock is "
        "held"
    )
    description = (
        "Epoch-pinning discipline: fields annotated `#: guarded-by: "
        "<lock> (writes, pin-once)` are published atomically by "
        "mutators and read lock-free by request paths. Reading the "
        "field twice in one function (or once inside a loop) can "
        "observe two different epochs and produce answers mixing "
        "generations; reads under the writer lock are exempt "
        "(compare-and-publish)."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.concurrency.pin_violations()


@register
class SnapshotImmutabilityRule(_ConcurrencyRule):
    """L13: published snapshots are deeply immutable — the epoch class
    stays a frozen dataclass, and nothing mutates state reachable from
    a published epoch (its internally-synchronized plan cache is the
    one deliberate exception)."""

    rule_id = "L13"
    summary = (
        "published registry epochs must stay frozen and never be "
        "mutated through (swap a fresh epoch instead)"
    )
    description = (
        "Readers pin an epoch and use it without locks; that is only "
        "sound if nothing mutates the snapshot after publication. The "
        "rule checks RegistryEpoch remains a frozen dataclass, flags "
        "writes and mutator calls through `self._epoch` / a pinned "
        "`epoch` local (rebinding `self._epoch` itself is the publish "
        "and is allowed), and flags VFILTER mutation on receivers "
        "that are not freshly constructed."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.concurrency.snapshot_violations()


@register
class BlockingUnderLockRule(_ConcurrencyRule):
    """L14: no unbounded blocking — I/O, sleeps, queue waits, thread
    joins, lock acquisition — while holding a core lock, unless the
    lock is annotated ``#: lock: blocking-allowed``.  Uses the
    ``blocks`` rung of the effect lattice for resolved callees."""

    rule_id = "L14"
    summary = (
        "no blocking call (I/O, sleep, queue wait, join, acquire) "
        "while holding a lock not annotated blocking-allowed"
    )
    description = (
        "A blocking call under a contended lock stalls every thread "
        "that needs it; under the stats or index locks that means the "
        "whole answer path. Resolved callees use the interprocedural "
        "`blocks` effect; unresolved calls use name heuristics. "
        "`Condition.wait` on a held condition is the gate pattern "
        "(the wait releases the lock) and is exempt, as are locks "
        "annotated `#: lock: blocking-allowed`."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.concurrency.blocking_violations(pctx.facts.effects)


# ======================================================================
# L15–L19 — derived-state ownership rules (derivation DAG, DESIGN.md §15)
# ======================================================================
class _StateRule(ProjectRule):
    """Shared shape of the five derived-state rules: each wraps one
    finding list of the :class:`StateFacts` computed lazily on the
    project context."""

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        raise NotImplementedError

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        for relpath, lineno, message in self.findings(pctx):
            yield Violation(
                rule=self.rule_id,
                path=relpath,
                line=lineno,
                column=0,
                message=message,
            )


@register
class InvalidationCompletenessRule(_StateRule):
    """L15: any interprocedural write reaching a ``derived-from``
    source must, on every non-raising exit path of every public entry
    point, invalidate or patch every strict dependent of that source —
    the plan cache (``PlanCache._entries``, derived from the document)
    included."""

    rule_id = "L15"
    summary = (
        "every write reaching a `derived-from` source must invalidate "
        "or patch all strict dependents on every non-raising exit path"
    )
    description = (
        "Per strict edge of the `#: state:` derivation DAG, an "
        "abstract interpretation over the whole-program IR tracks "
        "(patched, dirty) per control path with monotone-patch "
        "semantics: one invalidation of the dependent anywhere in the "
        "call covers every source mutation of that call. Writes are "
        "resolved through aliases (self.system._node_index, a bare "
        "`document` local, container-mutator calls, document surgery); "
        "resolved callees contribute summarized facts via a fixpoint. "
        "Raising exits are exempt (L7 owns exception windows); weak "
        "`derived-from=field?` edges are exempt (refreshed by epoch "
        "swap or explicit eviction) but still drawn in --graph."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.statedeps.invalidation_violations()


@register
class DerivationShapeRule(_StateRule):
    """L16: the derivation DAG must actually be a DAG over soft state —
    acyclic, with hard state and counters never derived, counters
    never sources, and every declared source resolvable."""

    rule_id = "L16"
    summary = (
        "derivation must be acyclic; hard state and counters may not "
        "declare derived-from; counters may not be sources"
    )
    description = (
        "Hard state is the authoritative copy: deriving it from soft "
        "state would let a cache rebuild corrupt ground truth, so "
        "`#: state: hard` with derived-from is rejected outright "
        "(which also makes soft->hard edges inexpressible). A cycle "
        "means no rebuild order exists. Counters are telemetry and "
        "participate in neither direction. Unresolvable derived-from "
        "spellings are errors, not warnings: a dangling source would "
        "silently exempt the field from L15."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.statedeps.graph_violations()


@register
class RebuildPathRule(_StateRule):
    """L17: soft state must be rebuildable in practice, not just in
    principle — every soft field names a rebuild function that exists
    and is reachable from the public API or a lifecycle method."""

    rule_id = "L17"
    summary = (
        "every soft field must name a rebuild function that resolves "
        "and is reachable from a public or lifecycle entry point"
    )
    description = (
        "`soft(...; rebuild=<fn>)` is the recovery contract: after "
        "invalidation (or a crash, once the WAL lands) the field must "
        "be recomputable from its derivation sources. The rule "
        "resolves the name (same class, unique method, module-level "
        "function) and checks reachability over the call graph from "
        "public functions and lifecycle methods. `rebuild=__init__` "
        "declares rebuild-by-reconstruction (the index classes) and "
        "is always accepted."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.statedeps.rebuild_violations()


@register
class HardWriteScopeRule(_StateRule):
    """L18: hard state is written only inside lifecycle methods or
    code reachable from a ``#: state: mutator`` entry point — the
    registration/maintenance surface WAL logging will later hook."""

    rule_id = "L18"
    summary = (
        "hard fields may only be mutated in lifecycle methods or code "
        "reachable from a `#: state: mutator` entry point"
    )
    description = (
        "Durability needs a single chokepoint: if every hard-state "
        "write happens under a declared mutator entry point "
        "(register_view, insert_subtree, KVStore maintenance), WAL "
        "logging and delta maintenance can attach there and miss "
        "nothing. The rule collects every function that directly "
        "mutates a hard token (including through aliases and "
        "container-mutator calls) and requires it to be a lifecycle "
        "method or reachable from a mutator over the call graph."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.statedeps.scope_violations()


@register
class StateCoverageRule(_StateRule):
    """L19: a class that declares any state annotation must declare
    them all — an unannotated mutable attribute on a stateful class is
    invisible to the DAG and can go stale unchecked."""

    rule_id = "L19"
    summary = (
        "classes declaring `#: state:` fields must annotate every "
        "mutable instance attribute (locks exempt)"
    )
    description = (
        "The DAG is only as complete as its annotations. On any "
        "non-frozen class with at least one `#: state:` field, every "
        "plain `self.<attr> = ...` assignment site must belong to an "
        "annotated state field or a detected lock attribute; anything "
        "else is flagged so new caches cannot be added without "
        "declaring their derivation."
    )

    def findings(self, pctx: ProjectContext) -> list[tuple[str, int, str]]:
        return pctx.statedeps.coverage_violations()
