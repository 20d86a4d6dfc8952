"""Effect inference and interprocedural invalidation analysis.

Three fixpoints over the project call graph, all solved with the
generic engine in :mod:`repro.analysis.dataflow`:

* **Effects** — every function gets an :class:`Effect` record
  (mutates / reads / io / clock / raises), the lattice behind rule L8
  and the pure / reads-state / mutates-state classification.  Direct
  effects come from the function's own IR (attribute writes, table
  hits for I/O and wall-clock calls); callee effects propagate along
  resolved call edges.  Two deliberate carve-outs keep memoization
  pure: writes to attributes that are clearly caches (``_cache``,
  ``_memo``, hit/miss counters) do not count as mutation, and neither
  do writes through *fresh* receivers (objects constructed inside the
  function).  Constructor calls never propagate ``mutates`` — a
  ``__init__`` mutating its own brand-new ``self`` is invisible to the
  caller's state.
* **Invalidation guarantees** — the set of functions proven to call
  ``_invalidate_plans()`` on every normal exit path; rule L7 reads it
  to know when a callee has closed the mutation window.  A call
  establishes the guarantee when its receiver denotes the caller's own
  system (``self`` / ``self.system`` / a ``system`` local) and the
  callee is itself guaranteed.
* **Answering-state mutation** — which functions (transitively) write
  the state the plan cache depends on.  Tree-surgery calls
  (``detach`` / ``add_child``) count only inside the watched classes
  and ``core``-layer modules: the same calls in ``xmltree`` / ``xpath``
  construct *fresh* trees and cannot stale a cache.

On top of those, :class:`WindowScanner` finds **mutate-then-raise
windows** for rule L7: program points where answering state has been
written, ``_invalidate_plans()`` has not yet run, and an exception can
escape — leaving a stale plan cache on the error path.  The key
semantic fact (from DESIGN.md §10): the plan cache only refills via
``answer()``, so *invalidated* is monotone within an entry-point call —
one ``_invalidate_plans()`` anywhere covers every mutation of that
call, before or after it.  The scanner therefore tracks the pair
(may-have-mutated, must-have-invalidated) and reports escapes where
the first holds and the second does not.  ``try`` blocks with handlers
are assumed to catch (the handler body is scanned instead), and a
``finally`` that invalidates protects every escape through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from .callgraph import Project, layer_of
from .dataflow import (
    INVALIDATE_SEED,
    STATE_CLASSES as _WATCHED_CLASSES,
    CallRef,
    FunctionSummary,
    Step,
    scan_guarantee,
    solve_fixpoint,
    state_call,
    state_writes,
)

__all__ = [
    "Effect",
    "classify",
    "ProgramFacts",
    "Window",
    "analyze",
]


# ======================================================================
# effect lattice
# ======================================================================
@dataclass(frozen=True, slots=True)
class Effect:
    """One function's inferred effects; join is pointwise or.

    ``blocks`` marks functions that may block the calling thread for an
    unbounded time (I/O, sleeps, queue waits, thread joins, explicit
    ``acquire``).  ``Condition.wait`` is deliberately *not* folded in:
    a gate helper that waits on its own condition releases the lock
    while parked, so it must not poison every caller — rule L14 checks
    direct ``wait`` sites against the held set instead.
    """

    mutates: bool = False
    reads: bool = False
    io: bool = False
    clock: bool = False
    raises: bool = False
    blocks: bool = False

    def join(self, other: "Effect") -> "Effect":
        return Effect(
            mutates=self.mutates or other.mutates,
            reads=self.reads or other.reads,
            io=self.io or other.io,
            clock=self.clock or other.clock,
            raises=self.raises or other.raises,
            blocks=self.blocks or other.blocks,
        )

    @property
    def cache_safe(self) -> bool:
        """Safe to feed into a cache key: deterministic and effect-free
        (reading state is fine — that state is the function's input)."""
        return not (self.mutates or self.io or self.clock)


def classify(effect: Effect) -> str:
    """The three-rung lattice of DESIGN.md §10: pure < reads-state <
    mutates-state (io / clock imply mutates-state for classification —
    they touch the world)."""
    if effect.mutates or effect.io or effect.clock:
        return "mutates-state"
    if effect.reads:
        return "reads-state"
    return "pure"


#: Builtin calls that perform I/O.
IO_CALL_NAMES = {"open", "print", "input"}
#: Modules any call into which counts as I/O (or reads the process
#: environment, which is just as nondeterministic).
IO_ROOTS = {"os", "sys", "shutil", "subprocess", "socket", "tempfile"}
#: Method names that perform I/O on unresolved (file-like) receivers.
IO_METHODS = {
    "write", "writelines", "read", "readline", "readlines", "flush",
    "fsync", "seek", "truncate", "unlink", "rename", "replace", "touch",
    "read_text", "write_text", "read_bytes", "write_bytes",
}
#: Wall-clock / entropy sources, by module root and callable name.
CLOCK_ROOTS = {"time", "datetime", "random"}
CLOCK_NAMES = {
    "time", "monotonic", "perf_counter", "process_time", "now", "utcnow",
    "today", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "getrandbits",
}
#: Container methods that mutate their receiver.
GENERIC_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse",
}
#: Attribute-name markers for the memoization carve-out.
MEMO_MARKERS = ("cache", "memo", "hits", "misses", "stats")


def _is_memo_attr(attr: str) -> bool:
    lowered = attr.lower()
    return any(marker in lowered for marker in MEMO_MARKERS)


def _call_clock(call: CallRef, imports: dict[str, str]) -> bool:
    if call.receiver_fresh:
        # rng = random.Random(seed): a seeded generator is deliberate
        # determinism, not wall-clock.
        return False
    chain = call.chain
    if len(chain) > 1 and chain[0] in CLOCK_ROOTS and call.name in CLOCK_NAMES:
        return True
    if len(chain) == 1:
        target = imports.get(chain[0], "")
        return (
            target.split(".")[0] in CLOCK_ROOTS
            and call.name in CLOCK_NAMES
        )
    return False


def _call_io(call: CallRef, imports: dict[str, str]) -> bool:
    chain = call.chain
    if len(chain) == 1:
        if call.name in IO_CALL_NAMES:
            return True
        target = imports.get(chain[0], "")
        return target.split(".")[0] in IO_ROOTS
    if chain[0] in IO_ROOTS:
        return True
    return call.name in IO_METHODS and not call.receiver_fresh


def _call_blocking(call: CallRef, imports: dict[str, str]) -> bool:
    """May this call park the calling thread for an unbounded time?

    I/O is blocking; so are ``time.sleep``, blocking ``queue``
    get/put (the ``*_nowait`` variants are not), joining something
    that looks like a thread, and an explicit ``acquire``.  Receiver
    shape is the discriminator for the method families — ``list.get``
    does not exist, but ``dict.get`` does, so ``get``/``put`` only
    count when the receiver chain mentions a queue.
    """
    if _call_io(call, imports):
        return True
    chain = call.chain
    name = call.name
    if name == "sleep" and (
        (len(chain) > 1 and chain[0] == "time")
        or (len(chain) == 1 and imports.get("sleep", "").startswith("time"))
    ):
        return True
    if name == "acquire":
        return True
    receiver_text = "_".join(chain[:-1]).lower()
    if name == "join" and "thread" in receiver_text:
        return True
    if name in ("get", "put") and "queue" in receiver_text:
        return True
    return False


# ======================================================================
# whole-program facts
# ======================================================================
@dataclass(frozen=True, slots=True)
class Window:
    """One mutate-then-raise escape point (rule L7)."""

    lineno: int
    reason: str


@dataclass(slots=True)
class ProgramFacts:
    """Results of the whole-program analysis, consumed by rules L7, L8
    and L14."""

    project: Project
    effects: dict[str, Effect] = field(default_factory=dict)
    guaranteed: frozenset[str] = frozenset()
    mutates_answering: frozenset[str] = frozenset()
    #: exception may escape carrying a *self-inflicted* stale cache
    rwd_clean: frozenset[str] = frozenset()
    #: entered with state already mutated: exception may escape before
    #: this function invalidates
    rwd_dirty: frozenset[str] = frozenset()

    def effect_of(self, fqname: str) -> Effect:
        return self.effects.get(fqname, Effect())

    def entry_points(self) -> list[tuple[str, FunctionSummary]]:
        """The functions held to the invalidation discipline: public
        methods of the watched classes plus public module-level
        functions of ``*.maintenance`` modules."""
        entries: list[tuple[str, FunctionSummary]] = []
        for fqname, function in self.project.iter_functions():
            if not function.is_public or "<locals>" in function.qualname:
                continue
            if function.classname is not None:
                if function.classname in _WATCHED_CLASSES:
                    entries.append((fqname, function))
            else:
                module = self.project.module_of.get(fqname, "")
                if module.split(".")[-1] == "maintenance":
                    entries.append((fqname, function))
        return entries

    def windows(self, fqname: str) -> list[Window]:
        """Mutate-then-raise windows of one function (rule L7)."""
        scanner = WindowScanner(self)
        return scanner.scan_function(fqname, entry_mutated=False)


def _counts_any_receiver(project: Project, fqname: str) -> bool:
    """Do ``detach`` / ``add_child`` count as answering-state mutation
    in this function?  Only for the watched classes and the ``core``
    layer — the construction layers build fresh trees."""
    function = project.functions.get(fqname)
    if function is not None and function.classname in _WATCHED_CLASSES:
        return True
    module = project.module_of.get(fqname, "")
    layer = layer_of(module)
    return layer is not None and layer[0] == "core"


def _direct_mutation(
    project: Project, fqname: str, function: FunctionSummary
) -> bool:
    watched = _counts_any_receiver(project, fqname)
    for step in function.iter_steps():
        if state_writes(step):
            return True
        for call in step.calls:
            if state_call(call, allow_any_receiver=watched):
                return True
    return False


# ======================================================================
# fixpoint 1: effects
# ======================================================================
def _direct_effect(
    project: Project, fqname: str, function: FunctionSummary
) -> Effect:
    module = project.module_of.get(fqname, "")
    imports = project.imports_of.get(module, {})
    resolved = {call for call, _ in project.callees(fqname)}
    mutates = False
    io = False
    clock = False
    raises = False
    blocks = False
    for step in function.iter_steps():
        if step.kind == "raise":
            raises = True
        for write in step.writes:
            if write.fresh:
                continue
            if _is_memo_attr(write.attr):
                continue
            if write.global_write or len(write.chain) > 1 or write.subscript:
                mutates = True
        for call in step.calls:
            # A call on a subscript or call result (``<dynamic>`` head)
            # never resolves, so it is classified by method name below,
            # as L14's direct-site check classifies it.
            if _call_clock(call, imports):
                clock = True
            if _call_io(call, imports):
                io = True
            if call in resolved:
                # Resolved project calls contribute via the fixpoint;
                # name-based I/O / blocking heuristics would misfire on
                # project methods that happen to be called ``read``.
                continue
            if _call_blocking(call, imports):
                blocks = True
            if (
                len(call.chain) > 1
                and call.name in GENERIC_MUTATORS
                and not call.receiver_fresh
                and not _is_memo_attr(call.chain[-2])
            ):
                mutates = True
    return Effect(
        mutates=mutates,
        reads=function.reads_state,
        io=io,
        clock=clock,
        raises=raises or io,
        blocks=blocks,
    )


def _solve_effects(project: Project) -> dict[str, Effect]:
    direct = {
        fqname: _direct_effect(project, fqname, function)
        for fqname, function in project.iter_functions()
    }

    def transfer(fqname: str, get: Callable[[str], Effect]) -> Effect:
        effect = direct[fqname]
        for call, callee in project.callees(fqname):
            callee_summary = project.functions.get(callee)
            callee_effect = get(callee)
            propagated = callee_effect
            if call.receiver_fresh or (
                callee_summary is not None
                and callee_summary.name == "__init__"
                and call.name != "__init__"
            ):
                propagated = replace(propagated, mutates=False)
            effect = effect.join(
                replace(propagated, raises=propagated.raises or propagated.io)
            )
        return replace(effect, raises=effect.raises or effect.io)

    return solve_fixpoint(list(project.functions), Effect(), transfer)


# ======================================================================
# fixpoint 2: invalidation guarantees
# ======================================================================
#: Receivers that denote "the system this function is responsible for".
GUARANTEE_RECEIVERS = {(), ("self",), ("cls",), ("system",), ("self", "system")}


def _solve_guaranteed(project: Project) -> frozenset[str]:
    edge_maps = {
        fqname: dict(project.callees(fqname)) for fqname in project.functions
    }

    def transfer(fqname: str, get: Callable[[str], bool]) -> bool:
        function = project.functions[fqname]
        if function.name == INVALIDATE_SEED:
            return True

        def establishes(call: CallRef) -> bool:
            if call.receiver not in GUARANTEE_RECEIVERS:
                return False
            if call.name == INVALIDATE_SEED:
                return True
            callee = edge_maps[fqname].get(call)
            return callee is not None and get(callee)

        result = scan_guarantee(function.steps, False, establishes)
        return (not result.bad) and (result.called or not result.falls_through)

    facts = solve_fixpoint(list(project.functions), False, transfer)
    return frozenset(name for name, value in facts.items() if value)


# ======================================================================
# fixpoint 3: answering-state mutation
# ======================================================================
def _solve_mutates_answering(
    project: Project, guaranteed: frozenset[str]
) -> frozenset[str]:
    def transfer(fqname: str, get: Callable[[str], bool]) -> bool:
        function = project.functions[fqname]
        if _direct_mutation(project, fqname, function):
            return True
        for call, callee in project.callees(fqname):
            if call.receiver_fresh:
                continue
            callee_summary = project.functions.get(callee)
            if callee_summary is not None and callee_summary.name == "__init__":
                continue
            if get(callee):
                return True
        return False

    facts = solve_fixpoint(list(project.functions), False, transfer)
    return frozenset(name for name, value in facts.items() if value)


# ======================================================================
# window scanning (rule L7)
# ======================================================================
@dataclass(slots=True)
class _WinState:
    mutated: bool
    invalidated: bool

    @property
    def dirty(self) -> bool:
        return self.mutated and not self.invalidated

    def copy(self) -> "_WinState":
        return _WinState(self.mutated, self.invalidated)


def _merge(states: list[_WinState]) -> _WinState:
    """Join at a control-flow merge: may-mutated, must-invalidated."""
    return _WinState(
        mutated=any(state.mutated for state in states),
        invalidated=all(state.invalidated for state in states),
    )


class WindowScanner:
    """Finds escape points where an exception can leave the plan cache
    stale.  Queries the rwd fixpoint facts for callees; during the
    fixpoint itself the callee lookups go through the solver."""

    def __init__(
        self,
        facts: ProgramFacts,
        rwd_clean: Callable[[str], bool] | None = None,
        rwd_dirty: Callable[[str], bool] | None = None,
    ) -> None:
        self.facts = facts
        self.project = facts.project
        self._rwd_clean = rwd_clean or (lambda fq: fq in facts.rwd_clean)
        self._rwd_dirty = rwd_dirty or (lambda fq: fq in facts.rwd_dirty)
        self._edge_map: dict[CallRef, str] = {}
        self._imports: dict[str, str] = {}
        self._watched = False

    # -- per-function entry ---------------------------------------------
    def scan_function(self, fqname: str, entry_mutated: bool) -> list[Window]:
        function = self.project.functions.get(fqname)
        if function is None:
            return []
        self._edge_map = dict(self.project.callees(fqname))
        module = self.project.module_of.get(fqname, "")
        self._imports = self.project.imports_of.get(module, {})
        self._watched = _counts_any_receiver(self.project, fqname)
        events: list[Window] = []
        self._scan_block(
            function.steps, _WinState(entry_mutated, False), events
        )
        unique: dict[tuple[int, str], Window] = {
            (event.lineno, event.reason): event for event in events
        }
        return [unique[key] for key in sorted(unique)]

    # -- helpers ---------------------------------------------------------
    def _establishes(self, call: CallRef) -> bool:
        if call.receiver not in GUARANTEE_RECEIVERS:
            return False
        if call.name == INVALIDATE_SEED:
            return True
        callee = self._edge_map.get(call)
        return callee is not None and callee in self.facts.guaranteed

    def _call_mutates(self, call: CallRef) -> bool:
        if state_call(call, allow_any_receiver=self._watched):
            return True
        if call.receiver_fresh:
            return False
        callee = self._edge_map.get(call)
        if callee is None:
            return False
        callee_summary = self.project.functions.get(callee)
        if callee_summary is not None and callee_summary.name == "__init__":
            return False
        return callee in self.facts.mutates_answering

    def _call_escapes(self, call: CallRef, state: _WinState) -> str | None:
        """Reason string when an exception escaping this call would
        leave a stale cache; None when safe."""
        if state.invalidated:
            return None
        callee = self._edge_map.get(call)
        if callee is not None:
            name = self.project.functions[callee].name
            # rwd_dirty is exact here: it already accounts for a callee
            # that invalidates before any of its raise points (covering
            # the caller's earlier mutations, since the cache is shared
            # and invalidation is monotone within the call).
            if state.mutated and self._rwd_dirty(callee):
                return (
                    f"'{name}()' may raise while mutated state awaits "
                    f"{INVALIDATE_SEED}()"
                )
            if not state.mutated and self._rwd_clean(callee):
                return (
                    f"'{name}()' may raise after mutating state, before "
                    f"{INVALIDATE_SEED}()"
                )
            return None
        if state.mutated and (
            _call_io(call, self._imports) or _call_clock(call, self._imports)
        ):
            return (
                f"'{'.'.join(call.chain)}()' may raise while mutated state "
                f"awaits {INVALIDATE_SEED}()"
            )
        return None

    # -- the scan --------------------------------------------------------
    def _scan_block(
        self,
        steps: tuple[Step, ...],
        state: _WinState,
        events: list[Window],
    ) -> tuple[_WinState, bool]:
        """Returns (state on fall-through, falls_through)."""
        for step in steps:
            if step.kind == "if":
                self._step_calls(step, state, events)
                branches: list[tuple[_WinState, bool]] = [
                    self._scan_block(step.body, state.copy(), events),
                    self._scan_block(step.orelse, state.copy(), events),
                ]
                falling = [bstate for bstate, falls in branches if falls]
                if not falling:
                    return state, False
                state = _merge(falling)
            elif step.kind == "loop":
                self._step_calls(step, state, events)
                # Two passes: the second starts from the merged state so
                # a mutation late in iteration N is visible to a raising
                # call early in iteration N+1.
                first, _ = self._scan_block(step.body, state.copy(), events)
                merged = _merge([state, first])
                second, _ = self._scan_block(step.body, merged.copy(), events)
                after = _merge([state, second])
                orelse_state, orelse_falls = self._scan_block(
                    step.orelse, after.copy(), events
                )
                if step.orelse and not orelse_falls:
                    return orelse_state, False
                state = orelse_state if step.orelse else after
            elif step.kind == "with":
                self._step_calls(step, state, events)
                inner, falls = self._scan_block(step.body, state, events)
                if not falls:
                    return inner, False
                state = inner
            elif step.kind == "try":
                state, falls = self._scan_try(step, state, events)
                if not falls:
                    return state, False
            elif step.kind == "raise":
                self._step_calls(step, state, events)
                if state.dirty:
                    events.append(
                        Window(
                            step.lineno,
                            f"raises while mutated state awaits "
                            f"{INVALIDATE_SEED}()",
                        )
                    )
                return state, False
            elif step.kind == "return":
                self._step_calls(step, state, events)
                return state, False
            else:
                self._step_calls(step, state, events)
        return state, True

    def _step_calls(
        self, step: Step, state: _WinState, events: list[Window]
    ) -> None:
        """Process one step's own calls and writes against the state.

        Each call is escape-checked against the pre-call state and then
        applied — even an *establishing* callee is checked first, since
        an exception escaping it means its invalidation never ran
        (``rwd`` facts capture exactly that).  The step's own writes
        land last: in ``self._views[k] = compute()`` the right-hand
        side raises before the store happens."""
        for call in step.calls:
            reason = self._call_escapes(call, state)
            if reason is not None:
                events.append(Window(call.lineno, reason))
            if self._establishes(call):
                state.invalidated = True
            if self._call_mutates(call):
                state.mutated = True
        if state_writes(step):
            state.mutated = True

    def _scan_try(
        self, step: Step, state: _WinState, events: list[Window]
    ) -> tuple[_WinState, bool]:
        body_events: list[Window] = []
        body_state, body_falls = self._scan_block(
            step.body, state.copy(), body_events
        )
        inner_events: list[Window] = []
        if not step.handlers:
            inner_events.extend(body_events)
        # An exception may fire anywhere in the body: the handler sees
        # may-mutated from the whole body but only the invalidation
        # that was certain at entry.
        handler_in = _WinState(body_state.mutated, state.invalidated)
        handler_out: list[tuple[_WinState, bool]] = []
        for handler in step.handlers:
            handler_out.append(
                self._scan_block(handler, handler_in.copy(), inner_events)
            )
        orelse_state, orelse_falls = body_state, body_falls
        if step.orelse and body_falls:
            orelse_state, orelse_falls = self._scan_block(
                step.orelse, body_state.copy(), inner_events
            )
        final_guard = scan_guarantee(step.final, False, self._establishes)
        if final_guard.called and final_guard.falls_through:
            # ``finally`` invalidates on every path: nothing escaping
            # this statement can carry a stale cache.
            inner_events = []
        events.extend(inner_events)
        falling = [
            wstate
            for wstate, falls in handler_out + [(orelse_state, orelse_falls)]
            if falls
        ]
        if not falling:
            # Still run the finally for its state effect on raising
            # paths, but nothing falls through.
            return state, False
        merged = _merge(falling)
        final_state, final_falls = self._scan_block(
            step.final, merged, events
        )
        return final_state, final_falls


def _solve_windows(
    facts: ProgramFacts,
) -> tuple[frozenset[str], frozenset[str]]:
    """The rwd fixpoint: (clean-entry, dirty-entry) escape facts."""

    def transfer(
        fqname: str, get: Callable[[str], tuple[bool, bool]]
    ) -> tuple[bool, bool]:
        scanner = WindowScanner(
            facts,
            rwd_clean=lambda callee: get(callee)[0],
            rwd_dirty=lambda callee: get(callee)[1],
        )
        clean = bool(scanner.scan_function(fqname, entry_mutated=False))
        scanner_dirty = WindowScanner(
            facts,
            rwd_clean=lambda callee: get(callee)[0],
            rwd_dirty=lambda callee: get(callee)[1],
        )
        dirty = bool(scanner_dirty.scan_function(fqname, entry_mutated=True))
        return clean, dirty

    solved = solve_fixpoint(
        list(facts.project.functions), (False, False), transfer
    )
    rwd_clean = frozenset(name for name, (c, _) in solved.items() if c)
    rwd_dirty = frozenset(name for name, (_, d) in solved.items() if d)
    return rwd_clean, rwd_dirty


# ======================================================================
# driver
# ======================================================================
def analyze(project: Project) -> ProgramFacts:
    """Run every whole-program fixpoint; the single entry point used by
    rules L7, L8 and L14."""
    facts = ProgramFacts(project=project)
    facts.effects = _solve_effects(project)
    facts.guaranteed = _solve_guaranteed(project)
    facts.mutates_answering = _solve_mutates_answering(
        project, facts.guaranteed
    )
    facts.rwd_clean, facts.rwd_dirty = _solve_windows(facts)
    return facts
