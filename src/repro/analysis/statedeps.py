"""Derived-state ownership analysis for xmvrlint (rules L15-L19).

The GnitzDB-style split the codebase has been converging on since the
plan cache landed: every field of the answering system is either
**hard** state (the authoritative copy — the document, the registered
views, the log file handle), **soft** state (rebuildable caches and
indexes — plan cache, coverage memo, VFILTER wildcard tables, compiled
NFAs, dewey indexes, fragment manifests), a **counter** (monotonic
telemetry, never consulted for answers), or a lock.  Soft state
declares what it is derived from and how it is rebuilt via the
``#: state:`` annotation grammar parsed in :mod:`.dataflow`::

    self.document = document        #: state: hard
    self._node_index = None         #: state: soft(derived-from=document; rebuild=_ensure_node_index)
    self.plans_served = 0           #: state: counter

    #: state: mutator
    def insert_subtree(self, ...):  # a sanctioned hard-state entry point

From those records this module builds the explicit **derivation DAG**
over ``(classname, attr)`` tokens and checks it whole-program, on top
of the PR 6 call-graph/dataflow IR:

* **L15 — invalidation completeness.**  Any interprocedural write that
  reaches a ``derived-from`` source must, on every non-raising exit
  path of every public entry point, invalidate or patch every strict
  dependent.  The plan cache is one such dependent
  (``PlanCache._entries`` is derived from the document), so this is
  also the check that every write drops the cached plans.  Patch
  semantics are *monotone*: one patch of the dependent
  anywhere in the call covers every source mutation of that call,
  before or after it (``PathNFA.insert`` nulls ``_compiled`` *first*;
  that is sound because nothing answers from ``_compiled`` mid-call).
  Edges marked with a trailing ``?`` (``derived-from=document?``) are
  *weak*: acknowledged provenance that is refreshed by coarser
  protocols (epoch swap, explicit eviction) and exempt from L15 —
  they still appear in L16 cycle checks and ``--graph`` output.
* **L16 — DAG shape.**  Derivation must be acyclic; hard state and
  counters may not declare ``derived-from`` (hard state is never
  derived, so a soft→hard edge cannot even be expressed); counters may
  not serve as derivation sources; every source must resolve to an
  annotated field.
* **L17 — rebuild-path existence.**  Every soft field names a rebuild
  function that exists and is reachable from the public API or a
  lifecycle method (``rebuild=__init__`` declares
  rebuild-by-reconstruction and is always accepted).
* **L18 — hard-state write scoping.**  Hard fields are mutated only
  inside lifecycle methods or code reachable from a ``#: state:
  mutator`` entry point — the surface WAL logging will later hook.
* **L19 — annotation coverage.**  On any class that declares at least
  one state field, every other mutable instance attribute must carry a
  state annotation too (locks are exempt); otherwise the DAG silently
  goes stale as fields are added.

Alias resolution mirrors :mod:`.concurrency`: write chains are mapped
to tokens deepest-known-collaborator-first (``self.system._node_index``
→ ``(MaterializedViewSystem, _node_index)``), then through ``self``,
then through bare locals named like a known collaborator
(``document.schema = ...`` inside the editor dirties
``(MaterializedViewSystem, document)``).  Container-mutator calls
(``.append``/``.clear``/``.put``...) mutate the annotated field they
are invoked through; calls resolved to project functions contribute
their callee's summarized (patches-on-all-exits, may-dirty) facts.
Document surgery (``detach``/``add_child`` inside the maintenance or
system modules) writes the document token regardless of receiver
spelling — a subscript or call receiver (``nodes[0].detach()``)
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .callgraph import ATTR_CLASSES, Project
from .dataflow import (
    CallRef,
    FunctionSummary,
    StateRec,
    Step,
    reachable,
    solve_fixpoint,
)
from .effects import GENERIC_MUTATORS

__all__ = [
    "DOC_MODULES",
    "DOC_SURGERY",
    "DOC_TOKEN",
    "FIELD_MUTATORS",
    "LIFECYCLE_NAMES",
    "Edge",
    "StateFacts",
    "analyze_statedeps",
]

Token = tuple[str, str]
#: (relpath, lineno, message)
Finding = tuple[str, int, str]

#: Tree-surgery calls that mutate the base document whatever the
#: receiver is spelled like (``parent.add_child``, ``node.detach``,
#: ``nodes[0].detach``), scoped to the modules that own maintenance so
#: unrelated trees elsewhere do not alias the document.
DOC_SURGERY = frozenset({"detach", "add_child"})
DOC_MODULES = frozenset({"repro.delta.maintenance", "repro.core.system"})
DOC_TOKEN: Token = ("MaterializedViewSystem", "document")

#: Unresolvable method names that mutate the object they are invoked
#: through: the generic container mutators plus the storage/VFILTER
#: mutation verbs of this codebase.
FIELD_MUTATORS = GENERIC_MUTATORS | {
    "write", "truncate", "materialize", "drop",
    "evict_views", "put", "delete", "add_view", "add_views",
    "insert_subtree", "invalidate_views",
    "note_subtree", "forget_subtree",
}

#: Construction/teardown methods: exempt from L15 entry obligations and
#: L18 scoping (a constructor writes hard fields by definition), and
#: roots for L17 rebuild reachability.
LIFECYCLE_NAMES = frozenset({
    "__init__", "__new__", "__post_init__", "__enter__", "__exit__",
    "__del__", "close", "shutdown", "stop",
})

#: Callees whose facts are never propagated to callers: calling a
#: constructor builds fresh state, it does not dirty the caller's.
_CONSTRUCTION_NAMES = frozenset({"__init__", "__new__", "__post_init__"})


# ======================================================================
# events
# ======================================================================
@dataclass(frozen=True, slots=True)
class _Mutate:
    """A direct mutation of an annotated field."""

    token: Token
    lineno: int


@dataclass(frozen=True, slots=True)
class _CallFacts:
    """A call whose resolved callee's (gpatch, gdirty) facts apply."""

    callee: str
    lineno: int


@dataclass(frozen=True, slots=True)
class Edge:
    """One derivation edge: ``target`` is derived from ``source``."""

    source: Token
    target: Token
    weak: bool
    relpath: str
    lineno: int


@dataclass(frozen=True, slots=True)
class _PathState:
    """Abstract state of one control path for one DAG edge.

    ``patched`` — the dependent has been invalidated/patched on this
    path (monotone: covers source writes before *and* after it within
    the same call).  ``dirty`` — the source was written while not
    patched.  ``line`` — witness line of the first uncovered write.
    """

    patched: bool
    dirty: bool
    line: int

    def mutate_source(self, lineno: int) -> "_PathState":
        if self.patched or self.dirty:
            return self
        return _PathState(False, True, lineno)

    def patch_target(self) -> "_PathState":
        return _PathState(True, False, self.line)


def _join(
    a: "_PathState | None", b: "_PathState | None"
) -> "_PathState | None":
    if a is None:
        return b
    if b is None:
        return a
    return _PathState(
        a.patched and b.patched,
        a.dirty or b.dirty,
        (a.line if a.dirty else 0) or (b.line if b.dirty else 0),
    )


#: Per-function summary for one edge: (patches dependent on every
#: non-raising exit, some non-raising exit leaves the source dirty,
#: witness line).  gpatch ⇒ ¬gdirty by construction of the walker.
_FnFact = tuple[bool, bool, int]
_FACT_BOTTOM: _FnFact = (True, False, 0)


# ======================================================================
# facts
# ======================================================================
@dataclass
class StateFacts:
    """Everything the L15-L19 rules need, computed once per project."""

    project: Project
    relpath_by_module: dict[str, str]
    #: annotated fields (kind hard/soft/counter) by token
    fields: dict[Token, StateRec] = field(default_factory=dict)
    #: relpath of the file annotating each token
    field_files: dict[Token, str] = field(default_factory=dict)
    #: fqnames of ``#: state: mutator`` entry points
    mutators: set[str] = field(default_factory=set)
    #: resolved derivation edges (strict + weak)
    edges: list[Edge] = field(default_factory=list)
    #: derived-from spellings that resolve to no annotated field
    unresolved_sources: list[tuple[StateRec, str, str]] = field(
        default_factory=list
    )
    #: attr name → owner classes annotating a field of that name
    attr_owners: dict[str, tuple[str, ...]] = field(default_factory=dict)

    #: keeps every id()-keyed Step alive for the life of the memo (L3)
    _step_refs: list[Step] = field(default_factory=list)
    _step_events: dict[int, tuple[object, ...]] = field(default_factory=dict)
    _fn_mutated: dict[str, dict[Token, int]] = field(default_factory=dict)
    _reverse_adjacency: dict[str, list[str]] = field(default_factory=dict)
    _lifecycle_fns: set[str] = field(default_factory=set)

    # -- construction ----------------------------------------------------
    def __post_init__(self) -> None:
        self._collect_records()
        self._collect_events()
        self._resolve_edges()

    def _collect_records(self) -> None:
        owners: dict[str, set[str]] = {}
        for relpath, summary in self.project.files.items():
            for rec in summary.states:
                if rec.kind == "mutator":
                    continue
                token = (rec.classname, rec.attr)
                self.fields[token] = rec
                self.field_files[token] = relpath
                owners.setdefault(rec.attr, set()).add(rec.classname)
        self.attr_owners = {
            attr: tuple(sorted(classes)) for attr, classes in owners.items()
        }
        # Mutator entry points, resolved to fqnames.
        mutator_keys: set[tuple[str, str]] = set()
        for summary in self.project.files.values():
            for rec in summary.states:
                if rec.kind == "mutator":
                    mutator_keys.add((rec.classname, rec.attr))
        for fqname, function in self.project.iter_functions():
            key = (function.classname or "", function.name)
            if key in mutator_keys:
                self.mutators.add(fqname)
            if function.name in LIFECYCLE_NAMES:
                self._lifecycle_fns.add(fqname)

    def _collect_events(self) -> None:
        reverse: dict[str, list[str]] = {}
        for fqname, function in self.project.iter_functions():
            mutated: dict[Token, int] = {}
            for step in function.iter_steps():
                for event in self._events(step, fqname, function):
                    if isinstance(event, _Mutate):
                        mutated.setdefault(event.token, event.lineno)
                    else:
                        reverse.setdefault(event.callee, []).append(fqname)
            self._fn_mutated[fqname] = mutated
        self._reverse_adjacency = reverse

    def _resolve_edges(self) -> None:
        for token, rec in sorted(self.fields.items()):
            relpath = self.field_files[token]
            for raw in rec.derived_from:
                spelling = raw.rstrip("?")
                weak = raw.endswith("?")
                source = self._resolve_source(rec, spelling)
                if source is None:
                    self.unresolved_sources.append((rec, raw, relpath))
                    continue
                self.edges.append(
                    Edge(source, token, weak, relpath, rec.lineno)
                )

    def _resolve_source(self, rec: StateRec, spelling: str) -> Token | None:
        if "." in spelling:
            classname, _, attr = spelling.rpartition(".")
            token = (classname, attr)
            return token if token in self.fields else None
        same_class = (rec.classname, spelling)
        if same_class in self.fields:
            return same_class
        owners = self.attr_owners.get(spelling, ())
        if len(owners) == 1:
            return (owners[0], spelling)
        return None

    # -- token resolution ------------------------------------------------
    def field_tokens(
        self, chain: tuple[str, ...], classname: str | None
    ) -> tuple[Token, ...]:
        """Map a write/receiver chain to the annotated fields it
        mutates, deepest known collaborator first."""
        if len(chain) < 2:
            return ()
        for i in range(len(chain) - 2, 0, -1):
            for owner in ATTR_CLASSES.get(chain[i], ()):
                token = (owner, chain[i + 1])
                if token in self.fields:
                    return (token,)
        root = chain[0]
        if root in ("self", "cls"):
            if classname is not None:
                token = (classname, chain[1])
                if token in self.fields:
                    return (token,)
            return ()
        for owner in ATTR_CLASSES.get(root, ()):
            token = (owner, chain[1])
            if token in self.fields:
                return (token,)
        if root in ATTR_CLASSES:
            # A bare local named like a known collaborator field:
            # ``document.schema = ...`` in the editor mutates the
            # system's ``document`` through an alias.
            return tuple(
                (owner, root) for owner in self.attr_owners.get(root, ())
            )
        return ()

    def _receiver_tokens(
        self, receiver: tuple[str, ...], classname: str | None
    ) -> tuple[Token, ...]:
        """Annotated fields mutated by a container-mutator call on
        ``receiver``.  A receiver that *is* a known collaborator object
        (``plan_cache.clear()``) mutates that object's soft/counter
        content wholesale — container mutators touch contents, never
        the object's own configuration references."""
        if not receiver:
            return ()
        if receiver[-1] in ATTR_CLASSES and receiver[-1] not in (
            "self",
            "cls",
        ):
            tokens: list[Token] = []
            for owner in ATTR_CLASSES[receiver[-1]]:
                tokens.extend(
                    token
                    for token, rec in self.fields.items()
                    if token[0] == owner and rec.kind != "hard"
                )
            if tokens:
                return tuple(sorted(set(tokens)))
        if len(receiver) < 2:
            return ()
        return self.field_tokens(receiver, classname)

    # -- per-step events -------------------------------------------------
    def _events(
        self, step: Step, fqname: str, function: FunctionSummary
    ) -> tuple[object, ...]:
        cached = self._step_events.get(id(step))
        if cached is not None:
            return cached
        module = self.project.module_of.get(fqname, "")
        classname = function.classname
        events: list[object] = []
        for write in step.writes:
            if write.fresh or write.global_write:
                continue
            for token in self.field_tokens(write.chain, classname):
                events.append(_Mutate(token, write.lineno))
        for call in step.calls:
            events.extend(self._call_events(call, fqname, module, classname))
        frozen = tuple(events)
        self._step_refs.append(step)
        self._step_events[id(step)] = frozen
        return frozen

    def _call_events(
        self,
        call: CallRef,
        fqname: str,
        module: str,
        classname: str | None,
    ) -> list[object]:
        if call.receiver_fresh:
            return []
        if call.name in DOC_SURGERY and module in DOC_MODULES:
            return [_Mutate(DOC_TOKEN, call.lineno)]
        if call.name in GENERIC_MUTATORS:
            # Never resolved: a unique method named ``clear``/``update``
            # elsewhere in the project must not hijack a dict mutation.
            return [
                _Mutate(token, call.lineno)
                for token in self._receiver_tokens(call.receiver, classname)
            ]
        callee = self.project.resolve(fqname, call)
        if callee is not None and callee in self.project.functions:
            if self.project.functions[callee].name in _CONSTRUCTION_NAMES:
                return []
            return [_CallFacts(callee, call.lineno)]
        if call.name in FIELD_MUTATORS:
            return [
                _Mutate(token, call.lineno)
                for token in self._receiver_tokens(call.receiver, classname)
            ]
        return []

    # ==================================================================
    # L15 — invalidation completeness, per strict edge
    # ==================================================================
    def invalidation_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for edge in self.edges:
            if edge.weak:
                continue
            findings.extend(self._check_edge(edge))
        return sorted(set(findings))

    def _check_edge(self, edge: Edge) -> list[Finding]:
        involved = {
            fqname
            for fqname, mutated in self._fn_mutated.items()
            if edge.source in mutated or edge.target in mutated
        }
        if not involved:
            return []
        relevant = reachable(self._reverse_adjacency, involved)
        facts = solve_fixpoint(
            sorted(relevant),
            _FACT_BOTTOM,
            lambda fqname, get: self._transfer(fqname, edge, relevant, get),
        )
        findings: list[Finding] = []
        for fqname in sorted(relevant):
            function = self.project.functions[fqname]
            if not function.is_public:
                continue
            if function.name in LIFECYCLE_NAMES:
                continue
            if "<locals>" in function.qualname:
                continue
            _, gdirty, line = facts[fqname]
            if not gdirty:
                continue
            module = self.project.module_of.get(fqname, "")
            relpath = self.relpath_by_module.get(module, module)
            findings.append(
                (
                    relpath,
                    line or function.lineno,
                    f"{function.qualname} (line {function.lineno}) can "
                    f"exit with {_fmt(edge.source)} modified (line "
                    f"{line or function.lineno}) but "
                    f"{_fmt(edge.target)} neither invalidated nor patched "
                    f"[derived-from edge at {edge.relpath}:{edge.lineno}]",
                )
            )
        return findings

    def _transfer(
        self,
        fqname: str,
        edge: Edge,
        relevant: set[str],
        get: Callable[[str], _FnFact],
    ) -> _FnFact:
        function = self.project.functions.get(fqname)
        if function is None:
            return _FACT_BOTTOM
        exits: list[_PathState] = []
        entry = _PathState(False, False, 0)

        fall, _ = self._walk_block(
            function.steps, entry, fqname, function, edge, relevant, get, exits
        )
        if fall is not None:
            exits.append(fall)
        if not exits:
            return _FACT_BOTTOM  # every path raises: vacuously covered
        gpatch = all(state.patched for state in exits)
        gdirty = any(state.dirty for state in exits)
        line = next((s.line for s in exits if s.dirty), 0)
        return (gpatch, gdirty, line)

    def _apply_events(
        self,
        step: Step,
        state: _PathState,
        fqname: str,
        function: FunctionSummary,
        edge: Edge,
        relevant: set[str],
        get: Callable[[str], _FnFact],
    ) -> tuple[_PathState, bool]:
        """Apply one step's own events; returns (state, may_dirty)."""
        may_dirty = False
        for event in self._events(step, fqname, function):
            if isinstance(event, _Mutate):
                if event.token == edge.target:
                    state = state.patch_target()
                if event.token == edge.source:
                    may_dirty = True
                    state = state.mutate_source(event.lineno)
            elif isinstance(event, _CallFacts):
                if event.callee not in relevant:
                    continue
                gpatch, gdirty, _ = get(event.callee)
                if gdirty:
                    may_dirty = True
                    state = state.mutate_source(event.lineno)
                if gpatch:
                    state = state.patch_target()
        return state, may_dirty

    def _walk_block(
        self,
        block: tuple[Step, ...],
        state: "_PathState | None",
        fqname: str,
        function: FunctionSummary,
        edge: Edge,
        relevant: set[str],
        get: Callable[[str], _FnFact],
        exits: list[_PathState],
    ) -> tuple["_PathState | None", bool]:
        """Walk one block; returns (fall-through state or None, any
        source mutation possible anywhere inside)."""
        may_dirty = False
        for step in block:
            if state is None:
                break
            state, step_dirty = self._apply_events(
                step, state, fqname, function, edge, relevant, get
            )
            may_dirty = may_dirty or step_dirty
            if step.kind == "return":
                exits.append(state)
                state = None
            elif step.kind == "raise":
                state = None  # exceptional exit: exempt
            elif step.kind == "if":
                then_fall, d1 = self._walk_block(
                    step.body, state, fqname, function, edge, relevant, get,
                    exits,
                )
                else_fall, d2 = self._walk_block(
                    step.orelse, state, fqname, function, edge, relevant, get,
                    exits,
                )
                may_dirty = may_dirty or d1 or d2
                state = _join(then_fall, else_fall)
            elif step.kind == "loop":
                once, d1 = self._walk_block(
                    step.body, state, fqname, function, edge, relevant, get,
                    exits,
                )
                joined = _join(state, once)
                twice, d2 = self._walk_block(
                    step.body, joined, fqname, function, edge, relevant, get,
                    exits,
                )
                may_dirty = may_dirty or d1 or d2
                after = _join(state, twice)
                if step.orelse and after is not None:
                    after, d3 = self._walk_block(
                        step.orelse, after, fqname, function, edge, relevant,
                        get, exits,
                    )
                    may_dirty = may_dirty or d3
                state = after
            elif step.kind == "with":
                state, d1 = self._walk_block(
                    step.body, state, fqname, function, edge, relevant, get,
                    exits,
                )
                may_dirty = may_dirty or d1
            elif step.kind == "try":
                body_fall, body_dirty = self._walk_block(
                    step.body, state, fqname, function, edge, relevant, get,
                    exits,
                )
                may_dirty = may_dirty or body_dirty
                # A handler can be entered from any point of the body:
                # conservatively, with the body's possible dirt.
                handler_entry = _PathState(
                    state.patched,
                    state.dirty or (body_dirty and not state.patched),
                    state.line,
                )
                handler_merged: _PathState | None = None
                for handler in step.handlers:
                    handler_fall, d2 = self._walk_block(
                        handler, handler_entry, fqname, function, edge,
                        relevant, get, exits,
                    )
                    may_dirty = may_dirty or d2
                    handler_merged = _join(handler_merged, handler_fall)
                if step.orelse and body_fall is not None:
                    body_fall, d3 = self._walk_block(
                        step.orelse, body_fall, fqname, function, edge,
                        relevant, get, exits,
                    )
                    may_dirty = may_dirty or d3
                merged = _join(body_fall, handler_merged)
                if step.final and merged is not None:
                    merged, d4 = self._walk_block(
                        step.final, merged, fqname, function, edge, relevant,
                        get, exits,
                    )
                    may_dirty = may_dirty or d4
                state = merged
        return state, may_dirty

    # ==================================================================
    # L16 — DAG shape
    # ==================================================================
    def graph_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for token, rec in sorted(self.fields.items()):
            relpath = self.field_files[token]
            if rec.kind in ("hard", "counter") and rec.derived_from:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"{rec.kind} state {_fmt(token)} declares "
                        f"derived-from={', '.join(rec.derived_from)}: only "
                        "soft state is derived (hard state may never be "
                        "rebuilt from caches)",
                    )
                )
        for rec, raw, relpath in self.unresolved_sources:
            findings.append(
                (
                    relpath,
                    rec.lineno,
                    f"{_fmt((rec.classname, rec.attr))} derived-from "
                    f"source {raw!r} does not resolve to an annotated "
                    "state field",
                )
            )
        for edge in self.edges:
            source_rec = self.fields.get(edge.source)
            if source_rec is not None and source_rec.kind == "counter":
                findings.append(
                    (
                        edge.relpath,
                        edge.lineno,
                        f"{_fmt(edge.target)} derives from counter "
                        f"{_fmt(edge.source)}: counters are telemetry, "
                        "never derivation sources",
                    )
                )
        findings.extend(self._cycle_findings())
        return sorted(set(findings))

    def _cycle_findings(self) -> list[Finding]:
        graph: dict[Token, list[Token]] = {}
        for edge in self.edges:
            graph.setdefault(edge.source, []).append(edge.target)
        color: dict[Token, int] = {}
        stack: list[Token] = []
        cycles: list[tuple[Token, ...]] = []

        def visit(node: Token) -> None:
            color[node] = 1
            stack.append(node)
            for succ in graph.get(node, ()):
                mark = color.get(succ, 0)
                if mark == 0:
                    visit(succ)
                elif mark == 1:
                    loop = stack[stack.index(succ):] + [succ]
                    cycles.append(tuple(loop))
            stack.pop()
            color[node] = 2

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                visit(node)
        findings: list[Finding] = []
        for loop in cycles:
            head = loop[0]
            relpath = self.field_files.get(head, "")
            rec = self.fields.get(head)
            findings.append(
                (
                    relpath,
                    rec.lineno if rec else 0,
                    "derivation cycle: "
                    + " -> ".join(_fmt(token) for token in loop),
                )
            )
        return findings

    # ==================================================================
    # L17 — rebuild-path existence
    # ==================================================================
    def rebuild_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        roots = {
            fqname
            for fqname, function in self.project.iter_functions()
            if function.is_public or function.name in LIFECYCLE_NAMES
        }
        live = reachable(self.project.adjacency(), roots)
        for token, rec in sorted(self.fields.items()):
            if rec.kind != "soft":
                continue
            relpath = self.field_files[token]
            if not rec.rebuild:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} declares no rebuild "
                        "function (rebuild=<fn> required: soft state must "
                        "be recomputable)",
                    )
                )
                continue
            if rec.rebuild == "__init__":
                continue  # rebuild-by-reconstruction
            resolved = self._resolve_rebuild(rec)
            if resolved is None:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} rebuild "
                        f"{rec.rebuild!r} does not resolve to a project "
                        "function",
                    )
                )
            elif resolved not in live:
                findings.append(
                    (
                        relpath,
                        rec.lineno,
                        f"soft state {_fmt(token)} rebuild "
                        f"{rec.rebuild!r} ({resolved}) is unreachable from "
                        "any public or lifecycle entry point",
                    )
                )
        return sorted(set(findings))

    def _resolve_rebuild(self, rec: StateRec) -> str | None:
        project = self.project
        candidates = project.class_methods.get((rec.classname, rec.rebuild))
        if candidates:
            return candidates[0]
        by_name = project.by_method.get(rec.rebuild, [])
        if len(by_name) == 1:
            return by_name[0]
        bare = [
            fqname
            for fqname, function in project.iter_functions()
            if function.name == rec.rebuild and function.classname is None
        ]
        if len(bare) == 1:
            return bare[0]
        return None

    # ==================================================================
    # L18 — hard-state write scoping
    # ==================================================================
    def scope_violations(self) -> list[Finding]:
        hard = {
            token for token, rec in self.fields.items() if rec.kind == "hard"
        }
        sanctioned = reachable(
            self.project.adjacency(), self.mutators | self._lifecycle_fns
        )
        findings: list[Finding] = []
        for fqname in sorted(self._fn_mutated):
            function = self.project.functions[fqname]
            if function.name in LIFECYCLE_NAMES:
                continue
            if fqname in sanctioned:
                continue
            for token, lineno in sorted(self._fn_mutated[fqname].items()):
                if token not in hard:
                    continue
                module = self.project.module_of.get(fqname, "")
                relpath = self.relpath_by_module.get(module, module)
                findings.append(
                    (
                        relpath,
                        lineno,
                        f"{function.qualname} writes hard state "
                        f"{_fmt(token)} but is reachable from no "
                        "'#: state: mutator' entry point or lifecycle "
                        "method",
                    )
                )
        return sorted(set(findings))

    # ==================================================================
    # L19 — annotation coverage on stateful classes
    # ==================================================================
    def coverage_violations(self) -> list[Finding]:
        stateful = {token[0] for token in self.fields}
        frozen_classes = {
            rec.name
            for summary in self.project.files.values()
            for rec in summary.classes
            if rec.frozen
        }
        lock_attrs: set[Token] = set()
        for summary in self.project.files.values():
            for lock in summary.locks:
                lock_attrs.add((lock.classname, lock.attr))
        findings: list[Finding] = []
        for fqname, function in sorted(self.project.iter_functions()):
            classname = function.classname
            if classname not in stateful or classname in frozen_classes:
                continue
            if "<locals>" in function.qualname:
                continue
            module = self.project.module_of.get(fqname, "")
            relpath = self.relpath_by_module.get(module, module)
            for step in function.iter_steps():
                for write in step.writes:
                    if write.subscript or write.global_write:
                        continue
                    if len(write.chain) != 2 or write.chain[0] != "self":
                        continue
                    token = (classname, write.attr)
                    if token in self.fields or token in lock_attrs:
                        continue
                    findings.append(
                        (
                            relpath,
                            write.lineno,
                            f"{classname}.{write.attr} is assigned in "
                            f"{function.qualname} but carries no "
                            "'#: state:' annotation while the class "
                            "declares annotated state: the derivation DAG "
                            "cannot see it",
                        )
                    )
        return sorted(set(findings))

    # ==================================================================
    # graph export (for ``xmvrlint --graph``)
    # ==================================================================
    def derivation_graph(self) -> dict[str, object]:
        nodes = [
            {
                "id": _fmt(token),
                "kind": rec.kind,
                "rebuild": rec.rebuild,
            }
            for token, rec in sorted(self.fields.items())
        ]
        edges = [
            {
                "source": _fmt(edge.source),
                "target": _fmt(edge.target),
                "weak": edge.weak,
            }
            for edge in sorted(
                self.edges, key=lambda e: (e.source, e.target, e.weak)
            )
        ]
        return {"nodes": nodes, "edges": edges}


def _fmt(token: Token) -> str:
    return f"{token[0]}.{token[1]}"


def analyze_statedeps(project: Project) -> StateFacts:
    """Build the derivation DAG and per-function facts for a project."""
    relpath_by_module = {
        summary.module: relpath for relpath, summary in project.files.items()
    }
    return StateFacts(project=project, relpath_by_module=relpath_by_module)
