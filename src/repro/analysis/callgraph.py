"""Project call graph and module import graph for xmvrlint.

Builds the whole-program :class:`Project` model out of the per-file
:class:`~repro.analysis.dataflow.FileSummary` facts: an index of every
function by fully-qualified name, the import bindings of every module,
and a resolved call graph.

Call resolution is deliberately *optimistic*: a call site that cannot
be resolved to a project function (builtins, stdlib, dynamic dispatch)
simply produces no edge, and the downstream analyses treat the callee
as effect-free.  The resolution ladder, in order:

1. ``self.m()`` / ``cls.m()`` — method ``m`` of the caller's own class
   (same module first, then any class of that name in the project).
2. Bare ``f()`` — a function nested in the caller, then a module-level
   function of the caller's module, then the caller's import bindings
   (``from ..matching.evaluate import evaluate``).
3. ``alias.f()`` where ``alias`` is an imported module — function ``f``
   of that module.
4. ``holder.m()`` on a typed holder: a well-known collaborator name
   (``self.fragments``, :data:`ATTR_CLASSES`), or a local of the caller
   or a ``self`` field of its class whose every bind (in any method of
   the class) calls one project class's constructor or a factory
   annotated to return it (``self.nfa = PathNFA()``, ``self._swaps =
   registry.counter(...)``).  A receiver of unknown type resolves to
   nothing, though one project class defines the method: a guess would
   draw call and lock edges to code the receiver never reaches.

Layer ranks for rule L9 live here too (:func:`layer_of`): the package
DAG ``obs → xmltree → xpath → matching → storage → core → {analysis,
delta, workload} → {bench, service}``, with ``errors`` importable from
everywhere and the top-level application shell (``cli``,
``__main__``) exempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .dataflow import DYNAMIC, CallRef, FileSummary, FunctionSummary

__all__ = [
    "ATTR_CLASSES",
    "LAYER_RANKS",
    "Project",
    "build_project",
    "layer_of",
]

#: Known collaborator attributes of the answering system: the class a
#: given attribute name holds, used to resolve ``self.<attr>.method()``
#: call sites without full type inference.
ATTR_CLASSES: dict[str, tuple[str, ...]] = {
    "fragments": ("FragmentStore",),
    "vfilter": ("VFilter",),
    "_plan_cache": ("PlanCache",),
    "plan_cache": ("PlanCache",),
    "_memo": ("CoverageMemo",),
    "store": ("KVStore",),
    "system": ("MaterializedViewSystem", "XMVRSystem"),
    "document": ("EncodedDocument",),
    "schema": ("DocumentSchema",),
    "editor": ("DocumentEditor",),
    "registry": ("MetricsRegistry",),
    "compiled": ("CompiledNFA",),
}

#: Package layer ranks.  A module may import same-package modules and
#: lower-ranked layers; importing a higher rank — or a *different*
#: layer at the same rank — breaks the DAG.
LAYER_RANKS: dict[str, int] = {
    "errors": 0,
    # Telemetry primitives (clock, registry, tracer, slow log) sit just
    # above errors: every layer may record into them, they import none.
    "obs": 1,
    "xmltree": 2,
    "xpath": 3,
    "matching": 4,
    "storage": 5,
    "core": 6,
    "analysis": 7,
    "delta": 7,
    "workload": 7,
    "bench": 8,
    "service": 8,
}

#: Top-level application-shell modules exempt from L9: they wire every
#: layer together by design.
SHELL_MODULES = {"cli", "__main__"}


def layer_of(module: str) -> tuple[str, int] | None:
    """The (layer name, rank) of a dotted module path, or None when the
    module is outside the layered packages (shell modules, the root
    package itself, third-party imports)."""
    for segment in module.split("."):
        if segment in SHELL_MODULES:
            return None
        if segment in LAYER_RANKS:
            return segment, LAYER_RANKS[segment]
    return None


@dataclass(slots=True)
class Project:
    """Whole-program facts: every file summary plus resolution indexes
    and the resolved call graph."""

    files: dict[str, FileSummary] = field(default_factory=dict)
    #: fully-qualified name ("module:qualname") → summary
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: fqname → module dotted name (for reverse lookups)
    module_of: dict[str, str] = field(default_factory=dict)
    #: module → {local name: absolute dotted import target}
    imports_of: dict[str, dict[str, str]] = field(default_factory=dict)
    #: (classname, method name) → fqnames defining it
    class_methods: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    #: method name → fqnames (any class)
    by_method: dict[str, list[str]] = field(default_factory=dict)
    #: module → class names it defines
    classes_of: dict[str, set[str]] = field(default_factory=dict)
    #: (scope, holder) → the project class every bind of the holder
    #: builds; see :meth:`_scope_of`
    holder_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: resolved call graph: caller fqname → ((call site, callee fqname), ...)
    call_edges: dict[str, list[tuple[CallRef, str]]] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------
    def modules(self) -> set[str]:
        return {summary.module for summary in self.files.values()}

    def function(self, fqname: str) -> FunctionSummary | None:
        return self.functions.get(fqname)

    def callees(self, fqname: str) -> list[tuple[CallRef, str]]:
        return self.call_edges.get(fqname, [])

    def adjacency(self) -> dict[str, list[str]]:
        """Caller → callee fqnames, for the generic graph helpers."""
        return {
            caller: [callee for _, callee in edges]
            for caller, edges in self.call_edges.items()
        }

    def iter_functions(self) -> Iterator[tuple[str, FunctionSummary]]:
        return iter(self.functions.items())

    # -- resolution ------------------------------------------------------
    def resolve(self, caller_fq: str, call: CallRef) -> str | None:
        """Resolve one call site to a project function, or None."""
        chain = call.chain
        if chain[0] == DYNAMIC:
            return None
        module = self.module_of.get(caller_fq, "")
        caller = self.functions.get(caller_fq)
        # 1. self.m() / cls.m(): the caller's own class.
        if len(chain) == 2 and chain[0] in ("self", "cls"):
            if caller is not None and caller.classname is not None:
                found = self._method_on(caller.classname, chain[1], module)
                if found is not None:
                    return found
            return self._unique_method(chain[1])
        # 2. bare f(): nested, module-level, then imports.
        if len(chain) == 1:
            name = chain[0]
            if caller is not None:
                for nested in caller.nested:
                    if nested.name == name:
                        return f"{module}:{nested.qualname}"
            local = f"{module}:{name}"
            if local in self.functions:
                return local
            target = self.imports_of.get(module, {}).get(name)
            if target is not None:
                return self._function_at(target)
            return None
        # 3. alias.f() through an imported module.
        root = chain[0]
        target = self.imports_of.get(module, {}).get(root)
        if target is not None:
            dotted = ".".join((target,) + chain[1:])
            found = self._function_at(dotted)
            if found is not None:
                return found
        # 4. typed holders: known collaborators, then typed binds.
        for classname in ATTR_CLASSES.get(chain[-2], ()):
            found = self._method_on(classname, chain[-1], module)
            if found is not None:
                return found
        holder = ".".join(chain[:-1])
        built = self.holder_types.get((self._scope_of(caller_fq, holder), holder))
        return None if built is None else self._method_on(built, chain[-1], module)

    def _scope_of(self, fqname: str, holder: str) -> str:
        """Where the binds of ``holder`` seen from ``fqname`` pool: the
        class (``module:Class``) for a ``self`` field, else ``fqname``."""
        function = self.functions.get(fqname)
        if holder.startswith("self.") and function and function.classname:
            return f"{self.module_of[fqname]}:{function.classname}"
        return fqname

    def _method_on(
        self, classname: str, method: str, prefer_module: str
    ) -> str | None:
        candidates = self.class_methods.get((classname, method), [])
        if not candidates:
            return None
        for fqname in candidates:
            if self.module_of.get(fqname) == prefer_module:
                return fqname
        return candidates[0] if len(candidates) == 1 else None

    def _unique_method(self, method: str) -> str | None:
        candidates = self.by_method.get(method, [])
        return candidates[0] if len(candidates) == 1 else None

    def _class_named(self, module: str, chain: tuple[str, ...]) -> str | None:
        """The project class ``chain`` names from ``module`` (defined
        there or imported), or None."""
        if len(chain) == 1 and chain[0] in self.classes_of.get(module, ()):
            return chain[0]
        target = self.imports_of.get(module, {}).get(chain[0])
        if target is None:
            return None
        head, _, name = ".".join((target,) + chain[1:]).rpartition(".")
        return name if name in self.classes_of.get(head, ()) else None

    def _built_class(self, fqname: str, producer: tuple[str, ...]) -> str | None:
        """The project class a ``producer(...)`` call in ``fqname``
        returns: a constructor, or a factory annotated to return one.
        None for ``()``, a bind that is not a call."""
        if not producer:
            return None
        built = self._class_named(self.module_of[fqname], producer)
        if built is not None:
            return built
        callee = self.resolve(fqname, CallRef(chain=producer, lineno=0))
        returns = None if callee is None else self.functions[callee].returns
        if callee is None or returns is None:
            return None
        return self._class_named(self.module_of[callee], (returns,))

    def _function_at(self, dotted: str) -> str | None:
        """Resolve ``pkg.module.func`` to a project function by trying
        every module/attribute split from the right."""
        head, _, tail = dotted.rpartition(".")
        while head:
            fqname = f"{head}:{tail}"
            if fqname in self.functions:
                return fqname
            nxt_head, _, nxt = head.rpartition(".")
            tail = f"{nxt}.{tail}" if nxt else tail
            head = nxt_head
        return None


def _index_functions(
    project: Project, summary: FileSummary, function: FunctionSummary
) -> None:
    fqname = f"{summary.module}:{function.qualname}"
    project.functions[fqname] = function
    project.module_of[fqname] = summary.module
    if function.classname is not None and "<locals>" not in function.qualname:
        project.class_methods.setdefault(
            (function.classname, function.name), []
        ).append(fqname)
        project.by_method.setdefault(function.name, []).append(fqname)
    for nested in function.nested:
        _index_functions(project, summary, nested)


#: Rounds of holder typing: ``b = a.make()`` is typed only once ``a``
#: is, so each round can type one more link of such a chain.
_TYPING_ROUNDS = 4


def _type_holders(project: Project) -> None:
    """Fill :attr:`Project.holder_types`.  A holder bound to two
    classes, or once to anything that builds no project class, drops
    out.  Each round reads only the previous round's table, so the
    result does not depend on function order."""
    for _ in range(_TYPING_ROUNDS):
        types: dict[tuple[str, str], str | None] = {}
        for fqname, function in project.functions.items():
            for step in function.iter_steps():
                for holder, producer in step.binds:
                    key = (project._scope_of(fqname, holder), holder)
                    built = project._built_class(fqname, producer)
                    types[key] = built if types.get(key, built) == built else None
        typed = {key: built for key, built in types.items() if built}
        if typed == project.holder_types:
            return
        project.holder_types = typed


def build_project(summaries: Mapping[str, FileSummary]) -> Project:
    """Assemble the project model and resolve every call site."""
    project = Project()
    for relpath in sorted(summaries):
        summary = summaries[relpath]
        project.files[relpath] = summary
        project.imports_of[summary.module] = {
            record.local: record.target for record in summary.imports
        }
        project.classes_of[summary.module] = set(summary.class_names)
        for function in summary.functions:
            _index_functions(project, summary, function)
    _type_holders(project)
    for fqname, function in project.functions.items():
        edges: list[tuple[CallRef, str]] = []
        for step in function.iter_steps():
            for call in step.calls:
                callee = project.resolve(fqname, call)
                if callee is not None and callee != fqname:
                    edges.append((call, callee))
        if edges:
            project.call_edges[fqname] = edges
    return project
