"""Function summaries and the forward-dataflow engine for xmvrlint.

This module is the substrate of the whole-program half of the linter
(rules L7-L19).  Source files are lowered once into a small, pickleable
IR — per-function :class:`Step` trees carrying the calls, state writes
and raises each statement performs — and every later analysis (call
graph, effect inference, invalidation guarantees, exception-safety
windows) runs over that IR, never over raw ASTs.  That split is what
makes the on-disk fact cache possible: a warm re-lint of an unchanged
tree deserializes summaries and re-runs only the cheap fixpoints.

Three layers live here:

* **IR + extraction** — :class:`CallRef`, :class:`WriteRef`,
  :class:`Step`, :class:`FunctionSummary`, :class:`FileSummary` and
  :func:`summarize_module`.  Extraction performs a *local freshness*
  analysis: a name every one of whose assignments is a freshly
  constructed value (a literal, a comprehension, a ``cls(...)`` or
  CamelCase constructor call) provably refers to an object created
  inside the function, so writes through it cannot stale any cache
  that predates the call.  This is the analysis that proves
  ``MaterializedViewSystem.reopen`` safe without a suppression.
* **Generic solvers** — :func:`solve_fixpoint` (chaotic-iteration
  worklist over a monotone transfer function) and :func:`reachable`
  (graph reachability), shared by the call-graph and effect passes.
* **Guarantee scan** — :func:`scan_guarantee`, the abstract
  interpretation of a statement block over the IR: does every normal
  exit path perform an "establishing" call?  Branch states merge at
  ``if``/``else``, loops are assumed to run zero times, ``finally``
  propagates, ``raise`` exits are exempt.

The answering-state tables (which classes, attributes and methods
constitute "state the plan cache depends on") also live here, next to
the predicates over the IR that read them (:func:`state_writes`,
:func:`state_call`), so every pass shares one definition without an
import cycle.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

__all__ = [
    "CallRef",
    "WriteRef",
    "ReadRef",
    "Step",
    "LockRec",
    "GuardRec",
    "ClassRec",
    "StateRec",
    "FunctionSummary",
    "ImportRec",
    "FileSummary",
    "STATE_CLASSES",
    "SYSTEM_CHAINS",
    "STATE_ATTRS",
    "DOCUMENT_ATTRS",
    "DOCUMENT_CHAINS",
    "FRAGMENT_METHODS",
    "VFILTER_METHODS",
    "LIST_METHODS",
    "DOCUMENT_METHODS",
    "ANY_RECEIVER_METHODS",
    "INVALIDATE_SEED",
    "DYNAMIC",
    "attr_chain",
    "fresh_locals",
    "summarize_module",
    "module_name_for",
    "solve_fixpoint",
    "reachable",
    "scan_guarantee",
    "state_writes",
    "state_call",
]


# ======================================================================
# answering-state tables (shared by the whole-program passes)
# ======================================================================
#: Classes whose methods are held to the invalidation discipline.
STATE_CLASSES = {"MaterializedViewSystem", "XMVRSystem", "DocumentEditor"}
#: Expressions denoting "the system object" inside those classes.
SYSTEM_CHAINS = {("self",), ("system",), ("self", "system")}
#: Expressions denoting "the encoded document".
DOCUMENT_CHAINS = {("document",)} | {
    base + ("document",) for base in SYSTEM_CHAINS
}
#: System attributes whose (re)assignment is answering-state mutation.
STATE_ATTRS = {"_views", "_materialized", "vfilter", "fragments"}
#: Document attributes whose reassignment stales every plan.
DOCUMENT_ATTRS = {"schema", "fst"}
#: Mutating methods, keyed by the attribute they are reached through.
FRAGMENT_METHODS = {"materialize", "drop"}
VFILTER_METHODS = {"add_view", "add_views"}
LIST_METHODS = {"append", "remove", "clear", "extend", "pop", "insert"}
DOCUMENT_METHODS = {"invalidate"}
#: Tree-surgery calls that mutate the base document on any receiver.
ANY_RECEIVER_METHODS = {"detach", "add_child"}
#: The call every mutation must be covered by.
INVALIDATE_SEED = "_invalidate_plans"
#: Head of the chain of a call whose callee is not a plain
#: Name/Attribute chain (see :class:`CallRef`).
DYNAMIC = "<dynamic>"


# ======================================================================
# IR
# ======================================================================
@dataclass(frozen=True, slots=True)
class CallRef:
    """One call site: the attribute chain of the callee expression.

    ``self.fragments.materialize(...)`` becomes
    ``chain=('self', 'fragments', 'materialize')``; a bare ``f(...)``
    becomes ``chain=('f',)``.  Calls whose callee is not a plain
    Name/Attribute chain get the sentinel head :data:`DYNAMIC`: a
    method called on a subscript or a call result keeps its name
    (``nodes[0].detach()`` becomes ``('<dynamic>', 'detach')``), any
    other callee is ``('<dynamic>',)``.  Such calls never resolve to a
    project function, but name-keyed tables (document surgery) still
    see them.  ``receiver_fresh`` marks calls whose receiver is a
    function-fresh local (see :func:`fresh_locals`).
    """

    chain: tuple[str, ...]
    lineno: int
    receiver_fresh: bool = False
    #: Per positional argument: its attribute chain when the argument
    #: is a plain name/attribute, ``('<call>', *chain)`` when it is
    #: itself a call, None otherwise.  Rule L8 uses this to trace what
    #: flows into plan-cache keys.
    arg_chains: tuple[tuple[str, ...] | None, ...] = ()

    @property
    def name(self) -> str:
        return self.chain[-1]

    @property
    def receiver(self) -> tuple[str, ...]:
        return self.chain[:-1]


@dataclass(frozen=True, slots=True)
class WriteRef:
    """One attribute / subscript / global write performed by a step."""

    chain: tuple[str, ...]
    lineno: int
    subscript: bool = False
    fresh: bool = False
    global_write: bool = False

    @property
    def attr(self) -> str:
        return self.chain[-1]

    @property
    def base(self) -> tuple[str, ...]:
        return self.chain[:-1]


@dataclass(frozen=True, slots=True)
class ReadRef:
    """One attribute-chain load performed by a step.

    Only *maximal* chains are recorded: ``self._epoch.plan_cache`` is
    one read of ``('self', '_epoch', 'plan_cache')``, not three nested
    reads.  The concurrency rules (L10/L12) match guarded fields
    against any position in the chain, so a read *through* a field
    still counts as a read *of* it.
    """

    chain: tuple[str, ...]
    lineno: int
    fresh: bool = False


@dataclass(frozen=True, slots=True)
class Step:
    """One abstract statement of the IR.

    ``kind`` is one of ``simple`` / ``return`` / ``raise`` / ``if`` /
    ``loop`` / ``with`` / ``try``.  ``calls`` and ``writes`` are the
    calls and writes the step's *own* eagerly-evaluated expressions
    perform (for compound statements: the test / iterable / context
    expressions, not the nested blocks).  ``has_value`` marks a
    ``return`` carrying an expression.
    """

    kind: str
    lineno: int
    calls: tuple[CallRef, ...] = ()
    writes: tuple[WriteRef, ...] = ()
    reads: tuple[ReadRef, ...] = ()
    #: Name/Attribute binds: (dotted target, callee chain) pairs, the
    #: chain ``()`` unless the value is a call's result (``x = f(...)``,
    #: ``self.x = f(...)``), so L8 can chase a cache key back to the
    #: call that produced it and call resolution can type the holder.
    binds: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: For ``with`` steps: the attribute chain of each plain
    #: Name/Attribute context expression (``with self._lock:`` →
    #: ``('self', '_lock')``).  The lock-set walker treats these as
    #: acquisitions scoped to the step's body.
    contexts: tuple[tuple[str, ...], ...] = ()
    has_value: bool = False
    body: tuple["Step", ...] = ()
    orelse: tuple["Step", ...] = ()
    handlers: tuple[tuple["Step", ...], ...] = ()
    final: tuple["Step", ...] = ()


@dataclass(frozen=True, slots=True)
class FunctionSummary:
    """Everything the whole-program passes need about one function."""

    name: str
    qualname: str
    lineno: int
    classname: str | None = None
    decorators: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    steps: tuple[Step, ...] = ()
    nested: tuple["FunctionSummary", ...] = ()
    reads_state: bool = False
    memoized: bool = False
    #: The class name a plain return annotation spells (``-> Counter``,
    #: ``-> "CompiledNFA"``), else None.
    returns: str | None = None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def iter_steps(self) -> Iterator[Step]:
        """Every step of this function, including nested blocks (but
        not nested function definitions)."""
        stack: list[Step] = list(self.steps)
        while stack:
            step = stack.pop()
            yield step
            stack.extend(step.body)
            stack.extend(step.orelse)
            stack.extend(step.final)
            for handler in step.handlers:
                stack.extend(handler)


@dataclass(frozen=True, slots=True)
class ImportRec:
    """One import binding: ``local`` name → absolute dotted ``target``."""

    local: str
    target: str
    lineno: int


@dataclass(frozen=True, slots=True)
class LockRec:
    """One ``threading.Lock/RLock/Condition`` instance attribute.

    Auto-detected from ``self.X = threading.Lock()``-style assignments;
    ``blocking_allowed`` comes from a ``#: lock: blocking-allowed``
    comment on (or just above) the declaration and exempts the lock
    from rule L14.
    """

    classname: str
    attr: str
    kind: str  # "Lock" | "RLock" | "Condition"
    blocking_allowed: bool = False
    lineno: int = 0


@dataclass(frozen=True, slots=True)
class GuardRec:
    """One ``#: guarded-by: <lock>`` field annotation.

    ``mode`` is ``"all"`` (every access must hold the lock) or
    ``"writes"`` (writes locked, lock-free reads are by design — the
    double-checked / monotonic-publish idiom).  ``pin_once`` marks
    fields under rule L12's bind-once discipline.
    """

    classname: str
    attr: str
    lock: str
    mode: str = "all"
    pin_once: bool = False
    lineno: int = 0


@dataclass(frozen=True, slots=True)
class ClassRec:
    """One class definition: name plus whether it is a frozen
    dataclass (rule L13's snapshot-immutability witness)."""

    name: str
    lineno: int
    frozen: bool = False


@dataclass(frozen=True, slots=True)
class StateRec:
    """One ``#: state:`` ownership annotation (rules L15-L19).

    ``kind`` is one of:

    * ``hard`` — primary state: config, injected collaborators, the
      base document.  Never derived from anything; mutated only inside
      designated mutator entry points (L18).
    * ``soft`` — derived state, rebuildable from its ``derived-from``
      sources via the named ``rebuild`` function.  Every write
      reaching a source must patch or invalidate it (L15).
    * ``counter`` — observational tallies / transient coordination
      flags; annotated for L19 completeness but outside the DAG.
    * ``mutator`` — a *function* annotation (the comment sits on a
      ``def`` line): this function is a sanctioned hard-state write
      scope, the surface WAL logging will later hook.  ``attr`` then
      holds the function name; ``classname`` is ``""`` for
      module-level functions.

    ``derived_from`` holds the raw source spellings: a bare field name
    (same class), ``Class.attr`` for a cross-class source, and a
    trailing ``?`` marks a *weak* edge — the dependency is documented
    (and drawn in ``--graph``) but exempt from L15's every-exit-path
    obligation, for selectively patched state like per-view memo
    eviction.
    """

    classname: str
    attr: str
    kind: str  # "hard" | "soft" | "counter" | "mutator"
    derived_from: tuple[str, ...] = ()
    rebuild: str = ""
    lineno: int = 0


@dataclass(frozen=True, slots=True)
class FileSummary:
    """Per-file facts consumed by the project-level passes."""

    relpath: str
    module: str
    imports: tuple[ImportRec, ...] = ()
    functions: tuple[FunctionSummary, ...] = ()
    class_names: tuple[str, ...] = ()
    locks: tuple[LockRec, ...] = ()
    guards: tuple[GuardRec, ...] = ()
    classes: tuple[ClassRec, ...] = ()
    states: tuple[StateRec, ...] = ()


# ======================================================================
# extraction helpers
# ======================================================================
def attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``self.system.fragments`` -> ('self', 'system', 'fragments');
    None when the expression is not a pure Name/Attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


_CAMEL = re.compile(r"^[A-Z]")


def _is_fresh_expr(value: ast.expr) -> bool:
    """Does this expression provably construct a new object?

    Literals, comprehensions and constructor calls (``cls(...)`` or a
    CamelCase callee, the project's class-naming convention) qualify.
    Anything else — attribute loads, arbitrary calls — may alias
    pre-existing state and is treated as non-fresh.
    """
    if isinstance(
        value,
        (
            ast.Constant,
            ast.List,
            ast.Tuple,
            ast.Dict,
            ast.Set,
            ast.ListComp,
            ast.SetComp,
            ast.DictComp,
            ast.GeneratorExp,
            ast.JoinedStr,
        ),
    ):
        return True
    if isinstance(value, ast.Call):
        callee = value.func
        if isinstance(callee, ast.Name):
            return callee.id == "cls" or bool(_CAMEL.match(callee.id))
        if isinstance(callee, ast.Attribute):
            return bool(_CAMEL.match(callee.attr))
    return False


def _own_nodes(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: list[ast.AST] = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def fresh_locals(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names that provably hold function-fresh objects.

    A name qualifies iff *every* binding of it in the function is a
    fresh expression (:func:`_is_fresh_expr`); parameters, loop
    targets, ``with``-as names, exception names and ``global`` /
    ``nonlocal`` declarations disqualify.  Path-insensitive and
    therefore sound: whatever the control flow, the name can only ever
    refer to an object constructed inside this call.
    """
    fresh: set[str] = set()
    tainted: set[str] = set()
    arguments = function.args
    for arg in (
        arguments.posonlyargs
        + arguments.args
        + arguments.kwonlyargs
        + ([arguments.vararg] if arguments.vararg else [])
        + ([arguments.kwarg] if arguments.kwarg else [])
    ):
        tainted.add(arg.arg)

    def bind(target: ast.expr, is_fresh: bool) -> None:
        if isinstance(target, ast.Name):
            if is_fresh and target.id not in tainted:
                fresh.add(target.id)
            else:
                tainted.add(target.id)
                fresh.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element, False)
        elif isinstance(target, ast.Starred):
            bind(target.value, False)
        # Attribute/Subscript targets bind no local name.

    for node in _own_nodes(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, _is_fresh_expr(node.value))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                bind(node.target, _is_fresh_expr(node.value))
        elif isinstance(node, ast.AugAssign):
            bind(node.target, False)
        elif isinstance(node, ast.NamedExpr):
            bind(node.target, _is_fresh_expr(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target, False)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars, False)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            tainted.add(node.name)
            fresh.discard(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                tainted.add(name)
                fresh.discard(name)
    return fresh - tainted


class _FunctionLowerer:
    """Lowers one function body to the Step IR."""

    def __init__(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        declared_globals: set[str],
    ) -> None:
        self.fresh = fresh_locals(function)
        self.declared_globals = declared_globals

    # -- expression facts ------------------------------------------------
    def _expr_calls(self, exprs: Iterable[ast.expr]) -> tuple[CallRef, ...]:
        calls: list[CallRef] = []
        for expr in exprs:
            for probe in ast.walk(expr):
                if isinstance(probe, (ast.Lambda,)):
                    continue
                if isinstance(probe, ast.Call):
                    chain = (
                        attr_chain(probe.func)
                        if isinstance(probe.func, (ast.Attribute, ast.Name))
                        else None
                    )
                    if chain is None:
                        chain = (
                            (DYNAMIC, probe.func.attr)
                            if isinstance(probe.func, ast.Attribute)
                            else (DYNAMIC,)
                        )
                    receiver_fresh = len(chain) > 1 and chain[0] in self.fresh
                    calls.append(
                        CallRef(
                            chain=chain,
                            lineno=getattr(probe, "lineno", 0),
                            receiver_fresh=receiver_fresh,
                            arg_chains=tuple(
                                self._arg_chain(arg) for arg in probe.args
                            ),
                        )
                    )
        return tuple(calls)

    def _expr_reads(self, exprs: Iterable[ast.expr]) -> tuple[ReadRef, ...]:
        """Maximal attribute-chain loads inside eager expressions."""
        reads: list[ReadRef] = []
        stack: list[ast.AST] = list(exprs)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if chain is not None and len(chain) >= 2:
                    reads.append(
                        ReadRef(
                            chain=chain,
                            lineno=getattr(node, "lineno", 0),
                            fresh=chain[0] in self.fresh,
                        )
                    )
                    continue  # maximal chain: do not record sub-chains
            stack.extend(ast.iter_child_nodes(node))
        return tuple(reads)

    @staticmethod
    def _arg_chain(arg: ast.expr) -> tuple[str, ...] | None:
        if isinstance(arg, (ast.Name, ast.Attribute)):
            return attr_chain(arg)
        if isinstance(arg, ast.Call) and isinstance(
            arg.func, (ast.Name, ast.Attribute)
        ):
            chain = attr_chain(arg.func)
            if chain is not None:
                return ("<call>",) + chain
        return None

    def _write_targets(self, stmt: ast.stmt) -> tuple[WriteRef, ...]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        writes: list[WriteRef] = []
        for target in targets:
            probe = target
            subscript = False
            if isinstance(probe, ast.Subscript):
                subscript = True
                probe = probe.value
            if isinstance(probe, ast.Attribute):
                chain = attr_chain(probe)
                if chain is not None:
                    writes.append(
                        WriteRef(
                            chain=chain,
                            lineno=stmt.lineno,
                            subscript=subscript,
                            fresh=chain[0] in self.fresh,
                        )
                    )
            elif isinstance(probe, ast.Name):
                if subscript:
                    writes.append(
                        WriteRef(
                            chain=(probe.id,),
                            lineno=stmt.lineno,
                            subscript=True,
                            fresh=probe.id in self.fresh,
                            global_write=probe.id in self.declared_globals,
                        )
                    )
                elif probe.id in self.declared_globals:
                    writes.append(
                        WriteRef(
                            chain=(probe.id,),
                            lineno=stmt.lineno,
                            global_write=True,
                        )
                    )
            elif isinstance(probe, (ast.Tuple, ast.List)):
                for element in probe.elts:
                    if isinstance(element, (ast.Attribute, ast.Name, ast.Subscript)):
                        fake = ast.Assign(targets=[element], value=ast.Constant(value=None))
                        fake.lineno = stmt.lineno
                        writes.extend(self._write_targets(fake))
        return tuple(writes)

    def _eager_exprs(self, stmt: ast.stmt) -> list[ast.expr]:
        """Expressions a statement evaluates unconditionally."""
        if isinstance(stmt, ast.Expr):
            return [stmt.value]
        if isinstance(stmt, ast.Assign):
            return [stmt.value] + [
                t.slice for t in stmt.targets if isinstance(t, ast.Subscript)
            ]
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return [stmt.value]
        if isinstance(stmt, ast.AugAssign):
            return [stmt.value]
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, ast.Assert):
            return [stmt.test]
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            return [stmt.value]
        if isinstance(stmt, ast.Raise):
            return [e for e in (stmt.exc, stmt.cause) if e is not None]
        if isinstance(stmt, ast.Delete):
            return [t.slice for t in stmt.targets if isinstance(t, ast.Subscript)]
        return []

    # -- statement lowering ----------------------------------------------
    def lower_block(self, stmts: list[ast.stmt]) -> tuple[Step, ...]:
        steps: list[Step] = []
        for stmt in stmts:
            step = self.lower_stmt(stmt)
            if step is not None:
                steps.append(step)
        return tuple(steps)

    def lower_stmt(self, stmt: ast.stmt) -> Step | None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return None
        calls = self._expr_calls(self._eager_exprs(stmt))
        writes = self._write_targets(stmt)
        reads = self._expr_reads(self._eager_exprs(stmt))
        binds = _binds(stmt)
        lineno = stmt.lineno
        if isinstance(stmt, ast.Return):
            return Step(
                kind="return",
                lineno=lineno,
                calls=calls,
                reads=reads,
                has_value=stmt.value is not None,
            )
        if isinstance(stmt, ast.Raise):
            return Step(kind="raise", lineno=lineno, calls=calls, reads=reads)
        if isinstance(stmt, ast.If):
            return Step(
                kind="if",
                lineno=lineno,
                calls=calls,
                reads=reads,
                body=self.lower_block(stmt.body),
                orelse=self.lower_block(stmt.orelse),
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return Step(
                kind="loop",
                lineno=lineno,
                calls=calls,
                reads=reads,
                binds=binds,
                body=self.lower_block(stmt.body),
                orelse=self.lower_block(stmt.orelse),
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            contexts: list[tuple[str, ...]] = []
            for item in stmt.items:
                if isinstance(item.context_expr, (ast.Name, ast.Attribute)):
                    chain = attr_chain(item.context_expr)
                    if chain is not None:
                        contexts.append(chain)
            return Step(
                kind="with",
                lineno=lineno,
                calls=calls,
                reads=reads,
                binds=binds,
                contexts=tuple(contexts),
                body=self.lower_block(stmt.body),
            )
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return Step(
                kind="try",
                lineno=lineno,
                body=self.lower_block(stmt.body),
                orelse=self.lower_block(stmt.orelse),
                handlers=tuple(
                    self.lower_block(handler.body) for handler in stmt.handlers
                ),
                final=self.lower_block(stmt.finalbody),
            )
        return Step(
            kind="simple",
            lineno=lineno,
            calls=calls,
            writes=writes,
            reads=reads,
            binds=binds,
        )


def _binds(stmt: ast.stmt) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """What ``stmt`` binds (see :attr:`Step.binds`): assignment, loop
    and ``with`` targets; unpacked elements never carry a chain."""
    targets: list[ast.expr] = []
    value: ast.expr | None = None
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    elif isinstance(stmt, (ast.AugAssign, ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in stmt.items if item.optional_vars]
    chain = attr_chain(value.func) if isinstance(value, ast.Call) else None
    stack = [(target, chain or ()) for target in targets]
    binds: list[tuple[str, tuple[str, ...]]] = []
    while stack:
        target, source = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend((element, ()) for element in target.elts)
        elif isinstance(target, ast.Starred):
            stack.append((target.value, ()))
        elif (dotted := attr_chain(target)) is not None:
            binds.append((".".join(dotted), source))
    return tuple(binds)


def _decorator_names(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[str, ...]:
    names: list[str] = []
    for decorator in function.decorator_list:
        probe: ast.expr = decorator
        if isinstance(probe, ast.Call):
            probe = probe.func
        chain = (
            attr_chain(probe)
            if isinstance(probe, (ast.Attribute, ast.Name))
            else None
        )
        if chain:
            names.append(chain[-1])
    return tuple(names)


_MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _reads_state(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the body read any ``self`` / ``cls`` attribute or the
    process environment?  (The "reads" rung of the effect lattice.)"""
    for node in _own_nodes(function):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = attr_chain(node)
            if chain and chain[0] in ("self", "cls"):
                return True
            if chain and chain[:2] == ("os", "environ"):
                return True
    return False


def _summarize_function(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    qualprefix: str,
    classname: str | None,
) -> FunctionSummary:
    declared_globals: set[str] = set()
    for node in _own_nodes(function):
        if isinstance(node, ast.Global):
            declared_globals.update(node.names)
    lowerer = _FunctionLowerer(function, declared_globals)
    qualname = f"{qualprefix}{function.name}"
    nested: list[FunctionSummary] = []
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Only direct children of this function's body blocks; a
            # deeper nest is summarized by its own parent recursion.
            if _is_directly_nested(function, node):
                nested.append(
                    _summarize_function(
                        node, f"{qualname}.<locals>.", classname
                    )
                )
    arguments = function.args
    params = tuple(
        arg.arg
        for arg in (
            arguments.posonlyargs
            + arguments.args
            + arguments.kwonlyargs
            + ([arguments.vararg] if arguments.vararg else [])
            + ([arguments.kwarg] if arguments.kwarg else [])
        )
    )
    decorators = _decorator_names(function)
    return FunctionSummary(
        name=function.name,
        qualname=qualname,
        lineno=function.lineno,
        classname=classname,
        decorators=decorators,
        params=params,
        steps=lowerer.lower_block(function.body),
        nested=tuple(nested),
        reads_state=_reads_state(function),
        memoized=bool(_MEMO_DECORATORS & set(decorators)),
        returns=_annotated_class(function.returns),
    )


def _annotated_class(annotation: ast.expr | None) -> str | None:
    """The class a plain return annotation names (``Counter``,
    ``"CompiledNFA"``); None for anything else."""
    if isinstance(annotation, ast.Constant):
        value = annotation.value
        return value if isinstance(value, str) and value.isidentifier() else None
    chain = attr_chain(annotation) if annotation is not None else None
    return chain[-1] if chain else None


def _is_directly_nested(
    parent: ast.FunctionDef | ast.AsyncFunctionDef,
    child: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for node in _own_nodes(parent):
        if node is child:
            return True
    return False


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/core/system.py`` → ``repro.core.system``; a leading
    ``src/`` is dropped, ``__init__.py`` maps to its package.
    """
    parts = list(relpath.replace("\\", "/").split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(part for part in parts if part)


def _resolve_import(module: str, target: str, level: int) -> str:
    """Absolute dotted target for a (possibly relative) import."""
    if level == 0:
        return target
    base = module.split(".")
    # ``from . import x`` inside package p.q (module p.q.m): level 1
    # strips the module segment itself.
    if len(base) >= level:
        base = base[: len(base) - level]
    else:
        base = []
    if target:
        base.append(target)
    return ".".join(base)


# ======================================================================
# concurrency-record extraction (locks, guarded-by annotations, classes)
# ======================================================================
_GUARDED_BY_RE = re.compile(
    r"#:\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?"
)
_LOCK_FLAG_RE = re.compile(r"#:\s*lock:\s*blocking-allowed\b")
#: ``#: state: hard`` / ``#: state: counter`` /
#: ``#: state: soft(derived-from=a, Class.b?; rebuild=fn)`` /
#: ``#: state: mutator`` (the latter on a ``def`` line).
_STATE_RE = re.compile(
    r"#:\s*state:\s*(hard|soft|counter|mutator)\s*(?:\(([^)]*)\))?"
)
#: Restricted probe used near ``def`` lines so a mutator annotation is
#: never stolen by a field-assignment site a few lines below it.
_STATE_MUTATOR_RE = re.compile(r"#:\s*state:\s*mutator\b")
_LOCK_CTORS = {"Lock", "RLock", "Condition"}


def _parse_state_options(raw: str) -> tuple[tuple[str, ...], str]:
    """``derived-from=a, b?; rebuild=fn`` → (sources, rebuild name)."""
    derived: tuple[str, ...] = ()
    rebuild = ""
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "derived-from":
            derived = tuple(
                item.strip() for item in value.split(",") if item.strip()
            )
        elif key == "rebuild":
            rebuild = value.strip()
    return derived, rebuild


def _comment_lines(source: str) -> dict[int, str]:
    """Line → comment text, via tokenize (comments are invisible to
    the AST but carry the guarded-by grammar)."""
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def _lock_kind(value: ast.expr | None) -> str | None:
    """``threading.Lock()`` / ``Condition(...)`` → the ctor name."""
    if not isinstance(value, ast.Call):
        return None
    if not isinstance(value.func, (ast.Name, ast.Attribute)):
        return None
    chain = attr_chain(value.func)
    if chain is None or chain[-1] not in _LOCK_CTORS:
        return None
    return chain[-1]


def _concurrency_records(
    tree: ast.Module, source: str | None
) -> tuple[
    tuple[LockRec, ...],
    tuple[GuardRec, ...],
    tuple[ClassRec, ...],
    tuple[StateRec, ...],
]:
    """Extract lock declarations, guarded-by / state annotations and
    class records from one module.

    An annotation comment binds to the first ``self.X = ...``
    assignment (or, for ``state: mutator``, the first ``def`` line) on
    the same line or within the three following lines; each comment
    binds at most once, so runs of consecutively annotated fields
    resolve pairwise.  A field may stack one ``guarded-by`` and one
    ``state`` comment — the regexes consume independently.
    """
    comments = _comment_lines(source) if source else {}
    consumed: set[int] = set()

    def annotation_at(
        lineno: int, regex: re.Pattern[str]
    ) -> "re.Match[str] | None":
        for probe in range(lineno, lineno - 4, -1):
            if probe in consumed:
                continue
            text = comments.get(probe)
            if text is None:
                continue
            match = regex.search(text)
            if match is not None:
                consumed.add(probe)
                return match
        return None

    locks: list[LockRec] = []
    guards: dict[tuple[str, str], GuardRec] = {}
    classes: list[ClassRec] = []
    states: dict[tuple[str, str], StateRec] = {}

    # Mutator annotations bind to ``def`` lines and are scanned first,
    # so a field site in the method's opening lines can never steal
    # the comment.
    def probe_mutator(
        member: ast.FunctionDef | ast.AsyncFunctionDef, classname: str
    ) -> None:
        if annotation_at(member.lineno, _STATE_MUTATOR_RE) is None:
            return
        key = (classname, member.name)
        if key not in states:
            states[key] = StateRec(
                classname=classname,
                attr=member.name,
                kind="mutator",
                lineno=member.lineno,
            )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            probe_mutator(node, "")
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    probe_mutator(member, node.name)

    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        frozen = False
        for decorator in node.decorator_list:
            probe: ast.expr = decorator
            frozen_kw = False
            if isinstance(probe, ast.Call):
                frozen_kw = any(
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in probe.keywords
                )
                probe = probe.func
            chain = (
                attr_chain(probe)
                if isinstance(probe, (ast.Attribute, ast.Name))
                else None
            )
            if chain and chain[-1] == "dataclass" and frozen_kw:
                frozen = True
        classes.append(
            ClassRec(name=node.name, lineno=node.lineno, frozen=frozen)
        )
        sites: list[tuple[int, str, ast.expr | None]] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                targets: list[ast.expr] = list(sub.targets)
                value: ast.expr | None = sub.value
            elif isinstance(sub, ast.AnnAssign):
                targets = [sub.target]
                value = sub.value
            else:
                continue
            for target in targets:
                chain = (
                    attr_chain(target)
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if chain is None or len(chain) != 2 or chain[0] != "self":
                    continue
                sites.append((sub.lineno, chain[1], value))
        seen_locks: set[str] = set()
        for lineno, attr, value in sorted(sites):
            kind = _lock_kind(value)
            if kind is not None:
                if attr not in seen_locks:
                    seen_locks.add(attr)
                    flag = annotation_at(lineno, _LOCK_FLAG_RE) is not None
                    locks.append(
                        LockRec(
                            classname=node.name,
                            attr=attr,
                            kind=kind,
                            blocking_allowed=flag,
                            lineno=lineno,
                        )
                    )
                continue
            state_match = annotation_at(lineno, _STATE_RE)
            if state_match is not None and (node.name, attr) not in states:
                derived, rebuild = _parse_state_options(
                    state_match.group(2) or ""
                )
                states[(node.name, attr)] = StateRec(
                    classname=node.name,
                    attr=attr,
                    kind=state_match.group(1),
                    derived_from=derived,
                    rebuild=rebuild,
                    lineno=lineno,
                )
            match = annotation_at(lineno, _GUARDED_BY_RE)
            if match is None or (node.name, attr) in guards:
                continue
            mode = "all"
            pin_once = False
            for option in (match.group(2) or "").split(","):
                option = option.strip()
                if option == "writes":
                    mode = "writes"
                elif option == "pin-once":
                    pin_once = True
            guards[(node.name, attr)] = GuardRec(
                classname=node.name,
                attr=attr,
                lock=match.group(1),
                mode=mode,
                pin_once=pin_once,
                lineno=lineno,
            )
    return (
        tuple(locks),
        tuple(guards.values()),
        tuple(classes),
        tuple(states.values()),
    )


def summarize_module(
    tree: ast.Module, relpath: str, source: str | None = None
) -> FileSummary:
    """Lower one parsed module to its :class:`FileSummary`.

    ``source`` (when available) feeds the comment-level concurrency
    annotations; without it the lock/class records still extract from
    the AST but guarded-by annotations are absent.
    """
    module = module_name_for(relpath)
    imports: list[ImportRec] = []
    functions: list[FunctionSummary] = []
    class_names: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports.append(
                    ImportRec(local=local, target=alias.name, lineno=node.lineno)
                )
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_import(module, node.module or "", node.level)
            for alias in node.names:
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                imports.append(
                    ImportRec(local=local, target=target, lineno=node.lineno)
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_summarize_function(node, "", None))
        elif isinstance(node, ast.ClassDef):
            class_names.append(node.name)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(
                        _summarize_function(
                            member, f"{node.name}.", node.name
                        )
                    )
    locks, guards, classes, states = _concurrency_records(tree, source)
    return FileSummary(
        relpath=relpath,
        module=module,
        imports=tuple(imports),
        functions=tuple(functions),
        class_names=tuple(class_names),
        locks=locks,
        guards=guards,
        classes=classes,
        states=states,
    )


# ======================================================================
# generic solvers
# ======================================================================
N = TypeVar("N", bound=Hashable)
T = TypeVar("T")


def solve_fixpoint(
    nodes: Iterable[N],
    bottom: T,
    transfer: Callable[[N, Callable[[N], T]], T],
) -> dict[N, T]:
    """Chaotic-iteration worklist solver.

    ``transfer(node, get)`` computes a new fact for ``node``; every
    ``get(other)`` it performs is recorded as a dependency, and when
    ``other``'s fact later changes, ``node`` is re-queued.  Terminates
    for monotone transfer functions over finite-height lattices (every
    analysis here uses booleans or small frozen sets).
    """
    facts: dict[N, T] = {node: bottom for node in nodes}
    dependents: dict[N, set[N]] = {node: set() for node in facts}
    worklist: list[N] = list(facts)
    queued: set[N] = set(worklist)
    while worklist:
        node = worklist.pop()
        queued.discard(node)
        touched: list[N] = []

        def get(other: N) -> T:
            if other not in facts:
                return bottom
            touched.append(other)
            return facts[other]

        updated = transfer(node, get)
        for other in touched:
            dependents.setdefault(other, set()).add(node)
        if updated != facts[node]:
            facts[node] = updated
            for dependent in dependents.get(node, ()):
                if dependent not in queued:
                    worklist.append(dependent)
                    queued.add(dependent)
    return facts


def reachable(
    graph: Mapping[N, Iterable[N]], roots: Iterable[N]
) -> set[N]:
    """Forward reachability over an adjacency mapping."""
    seen: set[N] = set()
    stack: list[N] = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return seen


# ======================================================================
# answering-state predicates over the IR
# ======================================================================
def state_writes(step: Step) -> tuple[WriteRef, ...]:
    """The writes of ``step`` that mutate answering state (fresh
    receivers are exempt: a freshly constructed system has an empty
    plan cache, so writes through it cannot stale anything)."""
    hits: list[WriteRef] = []
    for write in step.writes:
        if write.fresh:
            continue
        if write.base in SYSTEM_CHAINS and write.attr in STATE_ATTRS:
            hits.append(write)
        elif write.base in DOCUMENT_CHAINS and write.attr in DOCUMENT_ATTRS:
            hits.append(write)
    return tuple(hits)


def state_call(call: CallRef, allow_any_receiver: bool = True) -> bool:
    """Does this call site mutate answering state per the tables above?

    ``allow_any_receiver`` gates the ``detach`` / ``add_child`` family:
    inside the watched classes (and the core layer) tree surgery on any
    receiver touches the live document, but in the construction layers
    the same calls build fresh trees and are harmless.
    """
    if call.name in ANY_RECEIVER_METHODS:
        return allow_any_receiver
    if call.receiver_fresh:
        return False
    chain = call.chain
    if call.name in DOCUMENT_METHODS and call.receiver in DOCUMENT_CHAINS:
        return True
    if len(chain) >= 3 and chain[:-2] in SYSTEM_CHAINS:
        holder = chain[-2]
        if holder == "fragments" and call.name in FRAGMENT_METHODS:
            return True
        if holder == "vfilter" and call.name in VFILTER_METHODS:
            return True
        if holder == "_materialized" and call.name in LIST_METHODS:
            return True
    return False


# ======================================================================
# guarantee scan (abstract interpretation over the IR)
# ======================================================================
@dataclass(slots=True)
class ScanResult:
    falls_through: bool
    called: bool
    bad: bool


def scan_guarantee(
    steps: tuple[Step, ...],
    called: bool,
    establishes: Callable[[CallRef], bool],
) -> ScanResult:
    """Does every normal exit path perform an establishing call?

    ``raise`` exits are exempt, loops are assumed to run zero times,
    ``try`` is conservative (never *establishes* the call, but exits
    inside it are still checked), branch states merge at ``if``.
    """
    bad = False
    for step in steps:
        if any(establishes(call) for call in step.calls):
            called = True
        if step.kind == "return":
            ok = called or (
                step.has_value and any(establishes(call) for call in step.calls)
            )
            return ScanResult(False, called, bad or not ok)
        if step.kind == "raise":
            return ScanResult(False, called, bad)
        if step.kind == "if":
            body = scan_guarantee(step.body, called, establishes)
            orelse = scan_guarantee(step.orelse, called, establishes)
            bad = bad or body.bad or orelse.bad
            if not body.falls_through and not orelse.falls_through:
                return ScanResult(False, called, bad)
            falling = [
                result.called
                for result in (body, orelse)
                if result.falls_through
            ]
            called = bool(falling) and all(falling)
        elif step.kind == "loop":
            bad = bad or scan_guarantee(step.body, called, establishes).bad
            bad = bad or scan_guarantee(step.orelse, called, establishes).bad
        elif step.kind == "with":
            inner = scan_guarantee(step.body, called, establishes)
            bad = bad or inner.bad
            if not inner.falls_through:
                return ScanResult(False, called, bad)
            called = inner.called
        elif step.kind == "try":
            bad = bad or scan_guarantee(step.body, called, establishes).bad
            for handler in step.handlers:
                bad = bad or scan_guarantee(handler, called, establishes).bad
            bad = bad or scan_guarantee(step.orelse, called, establishes).bad
            final = scan_guarantee(step.final, called, establishes)
            bad = bad or final.bad
            if not final.falls_through:
                return ScanResult(False, called, bad)
            called = final.called
    return ScanResult(True, called, bad)
