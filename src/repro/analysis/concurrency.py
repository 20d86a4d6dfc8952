"""Concurrency analyses for xmvrlint rules L10-L14.

The epoch-snapshot registry (PR 7) and the worker-pool service layer
(PR 8) made the reproduction genuinely concurrent; this module makes
the lock discipline that keeps answers byte-identical under load
*statically checkable*.  Everything runs over the pickled dataflow IR
(:mod:`repro.analysis.dataflow`), so a warm re-lint reuses cached
summaries and only replays the cheap fixpoints here.

Five analyses share one substrate:

* **Lock tokens** — a lock is identified class-wide as
  ``(classname, attr)``: every instance of ``PlanCache`` conflates to
  one ``PlanCache._lock`` token.  This is the Eraser/RacerD
  simplification: it cannot distinguish two live instances, which is
  sound for lock-*order* facts (any instance pair can deadlock) and
  precise enough for lock-*set* facts in this codebase, where guarded
  state is only ever reached through the owning instance's own lock.
* **Held-set walker** — an abstract interpretation of the Step IR that
  tracks the set of lock tokens held at every statement.  ``with
  self._lock:`` acquires for the nested block; branches and loops
  inherit the surrounding held set.
* **Entry-lock fixpoint** — a *greatest* fixpoint giving each function
  the set of locks held at every one of its call sites:
  ``entry(f) = ⋂ over call sites (entry(caller) ∪ held(caller, site))``
  starting from the full universe.  Functions with no callers (thread
  entry points, public API) start with nothing held.  Call sites
  inside ``__init__`` are excluded from the intersection — an object
  under construction is unpublished, so its helpers (``_recover``)
  are judged by their post-publication callers only.
* **Acquisition graph** — ``A -> B`` when some program point acquires
  ``B`` while holding ``A``, either directly (nested ``with``) or
  through a call whose callee transitively acquires ``B``.  A cycle is
  deadlock potential (rule L11); re-acquiring a held non-reentrant
  lock is self-deadlock, reported directly.
* **Effects bridge** — rule L14 combines the held sets with the
  ``blocks`` rung of the effect lattice
  (:mod:`repro.analysis.effects`) to forbid unbounded blocking while
  holding a lock not annotated ``#: lock: blocking-allowed``.

Known approximations (all deliberate, all documented in DESIGN.md
§13): lock identity is class-scoped; a lock stored in a plain local
(``lock = self._lock``) is invisible; held sets translate across calls
by token identity (no receiver substitution).  Each errs toward
*missing* a violation, never toward a false positive on the idioms
this repo uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .callgraph import ATTR_CLASSES, Project
from .dataflow import (
    CallRef,
    ClassRec,
    FunctionSummary,
    GuardRec,
    LockRec,
    Step,
    solve_fixpoint,
)
from .effects import GENERIC_MUTATORS, Effect, _call_blocking

__all__ = [
    "Token",
    "Finding",
    "ConcurrencyFacts",
    "analyze_concurrency",
]

#: A class-scoped lock identity: ``(classname, lock attribute)``.
Token = tuple[str, str]

#: A located diagnostic: ``(relpath, lineno, message)``.
Finding = tuple[str, int, str]

#: Snapshot classes that must be frozen dataclasses (rule L13).
SNAPSHOT_FROZEN_CLASSES = ("RegistryEpoch",)

#: Local / parameter names conventionally bound to a pinned epoch.
EPOCH_LOCALS = ("epoch", "retiring")

#: Mutator method names for the snapshot-immutability scan: the
#: generic container mutators plus the domain-specific ones reachable
#: from an epoch (fragment store, VFILTER).
SNAPSHOT_MUTATORS = GENERIC_MUTATORS | {
    "materialize",
    "drop",
    "add_view",
    "add_views",
}

#: The one mutable-by-design component of an epoch: the plan cache is
#: internally synchronized and *meant* to be written through the
#: snapshot (hits fill it, invalidation clears it).
SNAPSHOT_EXEMPT_ATTR = "plan_cache"

#: VFilter mutators that must only ever run on freshly constructed
#: filters (delta building) — a published filter is immutable.
VFILTER_MUTATORS = {"add_view", "add_views"}


def _token_text(token: Token) -> str:
    return f"{token[0]}.{token[1]}"


def _field_candidates(
    chain: tuple[str, ...], classname: str | None
) -> list[tuple[str, str]]:
    """Possible ``(owner class, field)`` meanings of an access chain.

    ``('self', '_epoch')`` in class C → ``(C, '_epoch')``;
    ``('self', 'system', '_node_index')`` also resolves through the
    collaborator table; a bare ``('system', '_node_index')`` likewise.
    Guards index the result, so spurious candidates (method names,
    unannotated fields) simply never match.
    """
    candidates: list[tuple[str, str]] = []
    root = chain[0]
    if root in ("self", "cls"):
        if classname is not None and len(chain) >= 2:
            candidates.append((classname, chain[1]))
        if len(chain) >= 3 and chain[1] in ATTR_CLASSES:
            for owner in ATTR_CLASSES[chain[1]]:
                candidates.append((owner, chain[2]))
    elif root in ATTR_CLASSES and len(chain) >= 2:
        for owner in ATTR_CLASSES[root]:
            candidates.append((owner, chain[1]))
    return candidates


@dataclass(slots=True)
class ConcurrencyFacts:
    """Everything rules L10-L14 consume, computed once per lint run."""

    project: Project
    locks: dict[Token, LockRec] = field(default_factory=dict)
    guards: dict[Token, GuardRec] = field(default_factory=dict)
    #: class name → (record, defining file)
    classes: dict[str, tuple[ClassRec, str]] = field(default_factory=dict)
    #: fqname → locks held at *every* call site (greatest fixpoint)
    entry_locks: dict[str, frozenset[Token]] = field(default_factory=dict)
    #: fqname → every lock the function may (transitively) acquire
    acquires: dict[str, frozenset[Token]] = field(default_factory=dict)
    #: acquisition edges with one witness site each
    edges: dict[tuple[Token, Token], Finding] = field(default_factory=dict)
    #: direct self-deadlock findings collected during the edge build
    reacquisitions: list[Finding] = field(default_factory=list)
    relpath_by_module: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _relpath(self, fqname: str) -> str:
        module = self.project.module_of.get(fqname, "")
        return self.relpath_by_module.get(module, module)

    def _lock_tokens(
        self, chain: tuple[str, ...], classname: str | None
    ) -> frozenset[Token]:
        """Lock tokens denoted by an expression chain; only chains that
        resolve to a *known* lock attribute count, so arbitrary context
        managers never pollute the held set."""
        found = {
            (owner, attr)
            for owner, attr in _field_candidates(chain, classname)
            if (owner, attr) in self.locks
        }
        return frozenset(found)

    def _iter_states(
        self,
        steps: tuple[Step, ...],
        held: frozenset[Token],
        in_loop: bool,
        classname: str | None,
    ) -> Iterator[tuple[Step, frozenset[Token], bool]]:
        """(step, locally-held tokens, inside-a-loop) for every step.

        A step's own eager expressions evaluate *before* any ``with``
        acquisition it performs, so the step itself is yielded under
        the surrounding held set.
        """
        for step in steps:
            yield step, held, in_loop
            if step.kind == "with":
                acquired = held
                for chain in step.contexts:
                    acquired = acquired | self._lock_tokens(chain, classname)
                yield from self._iter_states(
                    step.body, acquired, in_loop, classname
                )
            elif step.kind == "loop":
                yield from self._iter_states(step.body, held, True, classname)
                yield from self._iter_states(
                    step.orelse, held, in_loop, classname
                )
            elif step.kind == "if":
                yield from self._iter_states(
                    step.body, held, in_loop, classname
                )
                yield from self._iter_states(
                    step.orelse, held, in_loop, classname
                )
            elif step.kind == "try":
                yield from self._iter_states(
                    step.body, held, in_loop, classname
                )
                yield from self._iter_states(
                    step.orelse, held, in_loop, classname
                )
                for handler in step.handlers:
                    yield from self._iter_states(
                        handler, held, in_loop, classname
                    )
                yield from self._iter_states(
                    step.final, held, in_loop, classname
                )

    def _function_states(
        self, fqname: str, function: FunctionSummary
    ) -> Iterator[tuple[Step, frozenset[Token], bool]]:
        """Walker over one function with entry locks folded in."""
        entry = self.entry_locks.get(fqname, frozenset())
        for step, held, in_loop in self._iter_states(
            function.steps, entry, False, function.classname
        ):
            yield step, held, in_loop

    def _held_at_calls(
        self, function: FunctionSummary, classname: str | None
    ) -> dict[CallRef, frozenset[Token]]:
        """Locally held tokens at each call site (entry locks *not*
        folded in — the fixpoint adds those).  A call textually
        repeated with identical shape joins by intersection."""
        held_map: dict[CallRef, frozenset[Token]] = {}
        for step, held, _ in self._iter_states(
            function.steps, frozenset(), False, classname
        ):
            for call in step.calls:
                previous = held_map.get(call)
                held_map[call] = (
                    held if previous is None else (previous & held)
                )
        return held_map

    # ------------------------------------------------------------------
    # L10 — lock-set consistency
    # ------------------------------------------------------------------
    def lockset_violations(self) -> list[Finding]:
        findings: dict[Finding, None] = {}
        for fqname, function in sorted(self.project.functions.items()):
            if function.name == "__init__":
                # Under construction: the object is unpublished, no
                # other thread can reach its fields yet.
                continue
            relpath = self._relpath(fqname)
            for step, held, _ in self._function_states(fqname, function):
                for write in step.writes:
                    if write.fresh:
                        continue
                    for finding in self._access_findings(
                        write.chain, write.lineno, held, True,
                        function.classname, relpath,
                    ):
                        findings[finding] = None
                for read in step.reads:
                    if read.fresh:
                        continue
                    for finding in self._access_findings(
                        read.chain, read.lineno, held, False,
                        function.classname, relpath,
                    ):
                        findings[finding] = None
        return sorted(findings)

    def _access_findings(
        self,
        chain: tuple[str, ...],
        lineno: int,
        held: frozenset[Token],
        is_write: bool,
        classname: str | None,
        relpath: str,
    ) -> Iterator[Finding]:
        for owner, attr in _field_candidates(chain, classname):
            guard = self.guards.get((owner, attr))
            if guard is None:
                continue
            if not is_write and guard.mode == "writes":
                continue
            required = (owner, guard.lock)
            if required in held:
                continue
            kind = "write to" if is_write else "read of"
            yield (
                relpath,
                lineno,
                f"{kind} '{owner}.{attr}' without holding "
                f"'{guard.lock}' (field is `#: guarded-by: "
                f"{guard.lock}`)",
            )

    # ------------------------------------------------------------------
    # L11 — lock-order acquisition graph
    # ------------------------------------------------------------------
    def _build_acquisition_graph(self) -> None:
        for fqname, function in sorted(self.project.functions.items()):
            relpath = self._relpath(fqname)
            callee_map = dict(self.project.callees(fqname))
            for step, held, _ in self._function_states(fqname, function):
                if step.kind == "with":
                    acquired = frozenset().union(
                        *(
                            self._lock_tokens(chain, function.classname)
                            for chain in step.contexts
                        )
                    ) if step.contexts else frozenset()
                    for token in acquired:
                        if token in held:
                            if self.locks[token].kind != "RLock":
                                self.reacquisitions.append(
                                    (
                                        relpath,
                                        step.lineno,
                                        f"re-acquires non-reentrant "
                                        f"lock '{_token_text(token)}' "
                                        f"already held — guaranteed "
                                        f"self-deadlock",
                                    )
                                )
                            continue
                        for holding in held:
                            self.edges.setdefault(
                                (holding, token),
                                (relpath, step.lineno, fqname),
                            )
                if not held:
                    continue
                for call in step.calls:
                    callee = callee_map.get(call)
                    if callee is None:
                        continue
                    for token in self.acquires.get(callee, frozenset()):
                        if token in held:
                            if self.locks[token].kind != "RLock":
                                self.reacquisitions.append(
                                    (
                                        relpath,
                                        call.lineno,
                                        f"'{call.name}()' re-acquires "
                                        f"non-reentrant lock "
                                        f"'{_token_text(token)}' "
                                        f"already held — guaranteed "
                                        f"self-deadlock",
                                    )
                                )
                            continue
                        for holding in held:
                            self.edges.setdefault(
                                (holding, token),
                                (relpath, call.lineno, fqname),
                            )

    def order_violations(self) -> list[Finding]:
        findings = list(self.reacquisitions)
        graph: dict[Token, list[Token]] = {}
        for holding, acquired in sorted(self.edges):
            graph.setdefault(holding, []).append(acquired)
        # Iterative DFS with an explicit stack; a back edge into the
        # current path is a cycle.
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[Token, int] = {}
        path: list[Token] = []
        reported: set[frozenset[Token]] = set()

        def visit(node: Token) -> None:
            color[node] = GREY
            path.append(node)
            for successor in graph.get(node, ()):  # noqa: B023
                state = color.get(successor, WHITE)
                if state == GREY:
                    cycle = path[path.index(successor):] + [successor]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        witness = self.edges[(node, successor)]
                        findings.append(
                            (
                                witness[0],
                                witness[1],
                                "lock-order cycle: "
                                + " -> ".join(
                                    _token_text(token) for token in cycle
                                )
                                + f" (closing edge in {witness[2]})",
                            )
                        )
                elif state == WHITE:
                    visit(successor)
            path.pop()
            color[node] = BLACK

        for node in sorted(graph):
            if color.get(node, WHITE) == WHITE:
                visit(node)
        return sorted(set(findings))

    # ------------------------------------------------------------------
    # L12 — epoch-pinning discipline
    # ------------------------------------------------------------------
    def pin_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for fqname, function in sorted(self.project.functions.items()):
            if function.name == "__init__":
                continue
            relpath = self._relpath(fqname)
            sites: dict[Token, list[tuple[int, bool]]] = {}
            for step, held, in_loop in self._function_states(
                fqname, function
            ):
                for read in step.reads:
                    if read.fresh:
                        continue
                    for owner, attr in _field_candidates(
                        read.chain, function.classname
                    ):
                        guard = self.guards.get((owner, attr))
                        if guard is None or not guard.pin_once:
                            continue
                        if (owner, guard.lock) in held:
                            # Mutators re-read under the writer lock by
                            # design (compare-and-publish).
                            continue
                        sites.setdefault((owner, attr), []).append(
                            (read.lineno, in_loop)
                        )
            for (owner, attr), hits in sorted(sites.items()):
                linenos = sorted({lineno for lineno, _ in hits})
                loop_hits = sorted(
                    {lineno for lineno, looped in hits if looped}
                )
                if len(linenos) > 1:
                    listed = ", ".join(str(number) for number in linenos)
                    findings.append(
                        (
                            relpath,
                            linenos[1],
                            f"'{owner}.{attr}' read {len(linenos)} times "
                            f"in one function (lines {listed}); pin the "
                            f"snapshot once per request and thread it "
                            f"through",
                        )
                    )
                elif loop_hits:
                    findings.append(
                        (
                            relpath,
                            loop_hits[0],
                            f"'{owner}.{attr}' read inside a loop; a "
                            f"concurrent publish would tear the "
                            f"iteration — pin it once before the loop",
                        )
                    )
        return sorted(set(findings))

    # ------------------------------------------------------------------
    # L13 — deep immutability of published snapshots
    # ------------------------------------------------------------------
    def snapshot_violations(self) -> list[Finding]:
        findings: list[Finding] = []
        for name in SNAPSHOT_FROZEN_CLASSES:
            entry = self.classes.get(name)
            if entry is None:
                continue
            record, relpath = entry
            if not record.frozen:
                findings.append(
                    (
                        relpath,
                        record.lineno,
                        f"snapshot class '{name}' must be a frozen "
                        f"dataclass — readers rely on publish-then-"
                        f"never-mutate",
                    )
                )
        for fqname, function in sorted(self.project.functions.items()):
            relpath = self._relpath(fqname)
            for step, _, _ in self._iter_states(
                function.steps, frozenset(), False, function.classname
            ):
                for write in step.writes:
                    if write.fresh:
                        continue
                    root = self._snapshot_root(write.chain)
                    if root is None:
                        continue
                    through = len(write.chain) > root or (
                        write.subscript and len(write.chain) >= root
                    )
                    if not through:
                        continue
                    if SNAPSHOT_EXEMPT_ATTR in write.chain:
                        continue
                    findings.append(
                        (
                            relpath,
                            write.lineno,
                            f"mutation through published snapshot "
                            f"'{'.'.join(write.chain)}' — epochs are "
                            f"immutable after publish; build a fresh "
                            f"one and swap",
                        )
                    )
                for call in step.calls:
                    if call.receiver_fresh:
                        continue
                    receiver = call.receiver
                    if (
                        call.name in VFILTER_MUTATORS
                        and receiver
                        and receiver[0] not in ("self", "cls")
                        and receiver[-1].endswith("vfilter")
                    ):
                        findings.append(
                            (
                                relpath,
                                call.lineno,
                                f"'{call.name}()' mutates a VFILTER "
                                f"that may be published — deltas must "
                                f"be built on fresh layers "
                                f"(with_views/build)",
                            )
                        )
                        continue
                    if call.name not in SNAPSHOT_MUTATORS:
                        continue
                    root = self._snapshot_root(call.chain)
                    if root is None or len(receiver) < root:
                        continue
                    if SNAPSHOT_EXEMPT_ATTR in call.chain:
                        continue
                    findings.append(
                        (
                            relpath,
                            call.lineno,
                            f"'{'.'.join(call.chain)}()' mutates state "
                            f"reachable from a published snapshot — "
                            f"epochs are immutable after publish",
                        )
                    )
        return sorted(set(findings))

    @staticmethod
    def _snapshot_root(chain: tuple[str, ...]) -> int | None:
        """Length of the snapshot-denoting prefix of ``chain``, or
        None.  ``('self', '_epoch', ...)`` → 2; a local conventionally
        named ``epoch`` / ``retiring`` → 1."""
        if len(chain) >= 2 and chain[0] in ("self", "cls") and chain[1] == "_epoch":
            return 2
        if chain[0] in EPOCH_LOCALS:
            return 1
        return None

    # ------------------------------------------------------------------
    # L14 — blocking calls under a core lock
    # ------------------------------------------------------------------
    def blocking_violations(
        self, effects: Mapping[str, Effect]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for fqname, function in sorted(self.project.functions.items()):
            relpath = self._relpath(fqname)
            module = self.project.module_of.get(fqname, "")
            imports = self.project.imports_of.get(module, {})
            callee_map = dict(self.project.callees(fqname))
            for step, held, _ in self._function_states(fqname, function):
                bad = sorted(
                    token
                    for token in held
                    if not self.locks[token].blocking_allowed
                )
                if not bad:
                    continue
                held_text = ", ".join(
                    f"'{_token_text(token)}'" for token in bad
                )
                for call in step.calls:
                    reason = self._blocking_reason(
                        call, held, imports, callee_map, effects,
                        function.classname,
                    )
                    if reason is None:
                        continue
                    findings.append(
                        (
                            relpath,
                            call.lineno,
                            f"{reason} while holding {held_text} — "
                            f"blocking under a core lock stalls every "
                            f"thread contending for it",
                        )
                    )
        return sorted(set(findings))

    def _blocking_reason(
        self,
        call: CallRef,
        held: frozenset[Token],
        imports: dict[str, str],
        callee_map: dict[CallRef, str],
        effects: Mapping[str, Effect],
        classname: str | None,
    ) -> str | None:
        callee = callee_map.get(call)
        if callee is not None:
            if effects.get(callee, Effect()).blocks:
                return f"'{call.name}()' may block (I/O or waits)"
            return None
        if call.name in ("wait", "wait_for"):
            receiver_tokens = (
                self._lock_tokens(call.receiver, classname)
                if call.receiver
                else frozenset()
            )
            for token in receiver_tokens:
                if token in held and self.locks[token].kind == "Condition":
                    # The gate pattern: Condition.wait releases its own
                    # lock while parked, so waiting on the condition
                    # you hold is exactly how it is meant to be used.
                    return None
            return f"'{'.'.join(call.chain)}()' waits"
        if _call_blocking(call, imports):
            return f"'{'.'.join(call.chain)}()' may block"
        return None


# ======================================================================
# construction
# ======================================================================
def _solve_entry_locks(
    facts: ConcurrencyFacts,
) -> dict[str, frozenset[Token]]:
    project = facts.project
    universe = frozenset(facts.locks)
    site_held: dict[str, dict[CallRef, frozenset[Token]]] = {}
    for fqname, function in project.iter_functions():
        site_held[fqname] = facts._held_at_calls(
            function, function.classname
        )
    callers: dict[str, list[tuple[str, CallRef]]] = {}
    for caller, edges in project.call_edges.items():
        caller_fn = project.functions.get(caller)
        if caller_fn is not None and caller_fn.name == "__init__":
            continue
        for call, callee in edges:
            callers.setdefault(callee, []).append((caller, call))

    def transfer(
        fqname: str, get: Callable[[str], frozenset[Token]]
    ) -> frozenset[Token]:
        sites = callers.get(fqname, [])
        if not sites:
            return frozenset()
        result: frozenset[Token] | None = None
        for caller, call in sites:
            held = site_held.get(caller, {}).get(call, frozenset())
            combined = held | get(caller)
            result = combined if result is None else (result & combined)
        return result if result is not None else frozenset()

    return solve_fixpoint(list(project.functions), universe, transfer)


def _solve_acquires(facts: ConcurrencyFacts) -> dict[str, frozenset[Token]]:
    project = facts.project

    def transfer(
        fqname: str, get: Callable[[str], frozenset[Token]]
    ) -> frozenset[Token]:
        function = project.functions[fqname]
        acquired: set[Token] = set()
        for step in function.iter_steps():
            if step.kind == "with":
                for chain in step.contexts:
                    acquired |= facts._lock_tokens(
                        chain, function.classname
                    )
        for _, callee in project.callees(fqname):
            acquired |= get(callee)
        return frozenset(acquired)

    return solve_fixpoint(list(project.functions), frozenset(), transfer)


def analyze_concurrency(project: Project) -> ConcurrencyFacts:
    """Build the shared concurrency facts for rules L10-L14."""
    facts = ConcurrencyFacts(project=project)
    for relpath, summary in project.files.items():
        facts.relpath_by_module[summary.module] = relpath
        for lock in summary.locks:
            facts.locks.setdefault((lock.classname, lock.attr), lock)
        for guard in summary.guards:
            facts.guards.setdefault((guard.classname, guard.attr), guard)
        for record in summary.classes:
            facts.classes.setdefault(record.name, (record, relpath))
    facts.entry_locks = _solve_entry_locks(facts)
    facts.acquires = _solve_acquires(facts)
    facts._build_acquisition_graph()
    return facts
