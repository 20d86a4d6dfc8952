"""Delta-propagation maintenance: scoped upkeep under document edits.

The paper materializes views once; a production deployment also needs
them to survive inserts and deletes on the base document.  Earlier
revisions treated every edit as a global event — blanket plan-cache
invalidation plus full re-evaluation of every label-touched view over
the entire document.  This module replaces that with delta propagation:

1. the edit is summarized as a :class:`SubtreeDelta` *before* the tree
   mutates (packed Dewey anchor + concrete label paths);
2. the resolver runs the delta's paths through the epoch's VFILTER
   NFAs and splits views into untouched and affected, and scopes each
   affected view: to the highest ancestor of the edit where a
   predicate branch flips, else to the inserted subtree, else to a
   content-only patch (:mod:`repro.delta.resolver` proves each verdict
   sound);
3. affected views are spliced in place by packed-Dewey range
   (:mod:`repro.delta.patcher`) after evaluating the pattern under the
   scope only; a fragment containing the edit is spliced from its
   pre-edit bytes and tree, and every payload is written once per
   edit and shared across views.  A schema-violating insert scopes
   every view to the document
   root, so its splice replaces every stored fragment (a view the cap
   evicts leaves the pool for good);
4. the plan cache is maintained like the views: only plans that
   selected an affected view are flagged; the resolver
   classifies each flagged plan's query before the edit, and after it
   the plan is kept, has its cached answers spliced
   (:func:`~repro.delta.patcher.patch_plan`), or is dropped — the
   single plan-cache upkeep point on the edit path is the first
   statement of :meth:`DocumentEditor._apply_impacts`;
5. the document's code lookup is patched for the edited range, and the
   lazy base-data indexes (node / path / stream), which only the
   Figure 8 baselines read, are dropped; the next baseline call
   rebuilds them.

Extended Dewey codes make the encoding side cheap: inserts append the
subtree as the parent's last child so *no existing code changes*, and
deletes remove codes without renumbering (a fragment stores the
component of a node a delete left behind a gap, see
:func:`~repro.storage.serialize.encode_fragment`).  An insert whose labels
violate the mined schema changes the FST alphabet and so every code:
the document is re-encoded, and each view then takes the same patch
path as any other edit, scoped to the document root (reason
``full-reencode``).  A failed edit of either kind evicts the views it
affects, whose fragments still hold the pre-edit document, from the
answerable pool and from the fragment store, so a reopen does not
bring them back.

Maintenance deliberately does **not** publish a new registry epoch: the
epoch's per-epoch ``PlanCache`` must survive the edit so that its
plans can be kept and maintained.  Readers pinned on the
current epoch observe the patch only after the writer gate releases
them (the service layer's ``SnapshotEngine.maintain`` drains readers
first), which is what makes an edit a single linearization point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from ..core import contracts
from ..core.plancache import PlanEntry
from ..core.system import MaterializedViewSystem
from ..errors import EncodingError, SchemaError
from ..matching.evaluate import evaluate
from ..obs import current_trace
from ..storage.fragments import Fragment
from ..xmltree.builder import EncodedDocument, encode_tree, stamp_descendants
from ..xmltree.dewey import (
    DeweyCode,
    PackedCode,
    assign_child_component,
    pack_component,
)
from ..xmltree.tree import XMLNode, XMLTree
from .delta import SubtreeDelta
from .patcher import FragmentPatcher, patch_plan
from .resolver import AffectedViews, ViewImpact, resolve_affected

__all__ = ["MaintenanceReport", "ViewMaintenance", "DocumentEditor"]


@dataclass(slots=True)
class ViewMaintenance:
    """How one affected view was maintained."""

    view_id: str
    reason: str
    splice: bool
    seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "view_id": self.view_id,
            "reason": self.reason,
            "splice": self.splice,
            "seconds": self.seconds,
        }


@dataclass(slots=True)
class MaintenanceReport:
    """What one update did."""

    operation: str
    changed_nodes: int
    affected_views: list[str] = field(default_factory=list)
    skipped_views: list[str] = field(default_factory=list)
    full_reencode: bool = False
    #: Per-view reason, splice flag and timing, in maintenance order.
    views: list[ViewMaintenance] = field(default_factory=list)
    #: Plan-cache upkeep outcome (see ``PlanUpkeep``).
    plans_dropped: int = 0
    plans_retained: int = 0
    plans_maintained: int = 0
    plans_spliced: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "operation": self.operation,
            "changed_nodes": self.changed_nodes,
            "affected_views": list(self.affected_views),
            "skipped_views": list(self.skipped_views),
            "full_reencode": self.full_reencode,
            "views": [view.as_dict() for view in self.views],
            "plans_dropped": self.plans_dropped,
            "plans_retained": self.plans_retained,
            "plans_maintained": self.plans_maintained,
            "plans_spliced": self.plans_spliced,
            "seconds": self.seconds,
        }


class DocumentEditor:
    """Apply base-document updates and keep materialized views fresh."""

    def __init__(self, system: MaterializedViewSystem) -> None:
        self.system = system  #: state: hard
        registry = system.telemetry.registry
        self._clock = system.telemetry.clock  #: state: hard
        self._patcher = FragmentPatcher(system.fragments, system.document)  #: state: hard
        #: state: counter
        self._ops_total = registry.counter(
            "repro_maintenance_total",
            "Document maintenance operations applied.",
            ("op",),
        )
        #: state: counter
        self._ops_hist = registry.histogram(
            "repro_maintenance_seconds",
            "End-to-end maintenance operation latency (edit + scoped "
            "view upkeep).",
            ("op",),
        )
        #: state: counter
        self._mode_total = registry.counter(
            "repro_maintenance_ops_total",
            "Maintenance operations by propagation mode (delta = scoped "
            "patch path, full = schema-violating re-encode).",
            ("op", "mode"),
        )
        #: state: counter
        self._views_total = registry.counter(
            "repro_maintenance_views_total",
            "Per-view maintenance outcomes (patched / untouched).",
            ("mode",),
        )
        #: state: counter
        self._stage_hist = registry.histogram(
            "repro_maintenance_delta_seconds",
            "Delta-propagation stage latency.",
            ("stage",),
        )

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    #: state: mutator
    def insert_subtree(
        self, parent_code: DeweyCode, subtree: XMLNode
    ) -> MaintenanceReport:
        """Attach ``subtree`` as the last child of the node at
        ``parent_code`` and patch affected views."""
        started = self._clock.monotonic()
        with current_trace().span("maintain", op="insert") as span:
            report = self._insert_subtree(parent_code, subtree)
            span.attributes["affected_views"] = len(report.affected_views)
            span.attributes["full_reencode"] = report.full_reencode
        report.seconds = self._clock.monotonic() - started
        self._ops_total.inc(1.0, "insert")
        self._mode_total.inc(
            1.0, "insert", "full" if report.full_reencode else "delta"
        )
        self._ops_hist.observe(report.seconds, "insert")
        return report

    #: state: mutator
    def delete_subtree(self, code: DeweyCode) -> MaintenanceReport:
        """Remove the subtree rooted at ``code`` and patch affected
        views.  The document root cannot be deleted."""
        started = self._clock.monotonic()
        with current_trace().span("maintain", op="delete") as span:
            report = self._delete_subtree(code)
            span.attributes["affected_views"] = len(report.affected_views)
        report.seconds = self._clock.monotonic() - started
        self._ops_total.inc(1.0, "delete")
        self._mode_total.inc(1.0, "delete", "delta")
        self._ops_hist.observe(report.seconds, "delete")
        return report

    # ------------------------------------------------------------------
    # edit flows
    # ------------------------------------------------------------------
    def _insert_subtree(
        self, parent_code: DeweyCode, subtree: XMLNode
    ) -> MaintenanceReport:
        document = self.system.document
        parent = document.node_by_code(parent_code)
        if parent is None:
            raise EncodingError(f"no node at code {parent_code}")
        if subtree.parent is not None:
            raise ValueError("subtree is already attached")
        delta = SubtreeDelta.for_insert(parent, subtree)
        admitted = self._schema_admits(parent, subtree)
        if admitted:
            impacts = self._resolve(delta)
        else:
            # New parent/child label pairs change the schema and with
            # it every code: each view is spliced over the whole
            # document.
            root = document.tree.root
            impacts = AffectedViews(
                tuple(
                    ViewImpact(view, "full-reencode", root)
                    for view in self.system.materialized_views()
                ),
                (),
            )
        parent.add_child(subtree)
        try:
            if admitted:
                self._encode_new_subtree(parent, subtree)
                assert subtree.dewey is not None
                assert subtree.dewey_packed is not None
                delta.bind_codes(subtree.dewey, subtree.dewey_packed)
                self._patch_base_state(delta)
            else:
                fresh = self._full_reencode()
                document.schema = fresh.schema
                document.fst = fresh.fst
                document.invalidate()
                self._drop_base_indexes()
        except BaseException:
            self._abandon_edit(impacts)
            raise
        report = self._apply_impacts(delta, impacts)
        report.full_reencode = not admitted
        return report

    def _delete_subtree(self, code: DeweyCode) -> MaintenanceReport:
        document = self.system.document
        node = document.node_by_code(code)
        if node is None:
            raise EncodingError(f"no node at code {code}")
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        delta = SubtreeDelta.for_delete(node)
        impacts = self._resolve(delta)
        node.detach()
        try:
            self._patch_base_state(delta)
        except BaseException:
            self._abandon_edit(impacts)
            raise
        return self._apply_impacts(delta, impacts)

    def _abandon_edit(self, impacts: AffectedViews) -> None:
        """A failed edit: the tree already holds it, so the code lookup,
        the base-data indexes and every cached plan go, and so do the
        affected views, whose fragments still hold the pre-edit
        document."""
        self.system.document.invalidate()
        self._drop_base_indexes()
        self._evict_views(sorted(impacts.affected_ids()))

    # ------------------------------------------------------------------
    # delta propagation
    # ------------------------------------------------------------------
    def _resolve(self, delta: SubtreeDelta) -> AffectedViews:
        """Classify views against the *pre-edit* document state."""
        system = self.system
        epoch = system.current_epoch()
        started = self._clock.monotonic()
        impacts = resolve_affected(
            delta,
            epoch.vfilter,
            system.fragments,
            list(epoch.materialized),
            epoch.plan_cache,
        )
        self._stage_hist.observe(self._clock.monotonic() - started, "resolve")
        return impacts

    def _apply_impacts(
        self, delta: SubtreeDelta, impacts: AffectedViews
    ) -> MaintenanceReport:
        """Maintain each affected view and return the report.

        The first statement is the edit path's *single* plan-cache
        upkeep: plans depending only on untouched views stay warm, and
        of the flagged ones those the resolver kept are patched
        (:func:`~repro.delta.patcher.patch_plan`), the rest dropped.
        """
        system = self.system
        upkeep_failures: list[BaseException] = []
        upkeep = system._invalidate_plans(
            impacts.affected_ids(),
            partial(
                _maintain_plan,
                impacts,
                delta,
                system.document.tree,
                upkeep_failures,
            ),
        )
        if upkeep_failures:
            # Every flagged plan past the failure was dropped; the
            # views' fragments still hold the pre-edit document, so
            # they leave the answerable pool with every other plan.
            self._evict_views(sorted(impacts.affected_ids()))
            raise upkeep_failures[0]
        report = MaintenanceReport(delta.operation, delta.changed_nodes)
        report.plans_dropped = upkeep.dropped
        report.plans_retained = upkeep.retained
        report.plans_maintained = upkeep.maintained
        report.plans_spliced = upkeep.spliced
        report.skipped_views.extend(impacts.untouched)
        if impacts.untouched:
            self._views_total.inc(float(len(impacts.untouched)), "untouched")
        capped: list[str] = []
        # Coverage depends only on the patterns, but compensation plans
        # embed fragment statistics — evict for every affected view,
        # content-only included, in one pass over the memo.
        system._memo.evict_views(impacts.affected_ids())
        # Fragments written during this edit (spliced, or encoded from
        # the live tree), by packed code: one object, written once, for
        # every view storing the code.
        encoded: dict[PackedCode, Fragment] = {}
        for index, impact in enumerate(impacts.impacts):
            view_id = impact.view.view_id
            report.affected_views.append(view_id)
            started = self._clock.monotonic()
            try:
                with current_trace().span("delta_patch", view=view_id):
                    answers = self._scoped_answers(impact)
                    fits = self._patcher.patch(
                        impact.view, delta, encoded, impact.scope, answers
                    )
            except BaseException:
                # This view's fragments may be torn, and the views not
                # yet patched still hold the pre-edit document; left in
                # the answerable pool, they would answer queries wrongly.
                self._evict_views(
                    capped
                    + [later.view.view_id for later in impacts.impacts[index:]]
                )
                raise
            elapsed = self._clock.monotonic() - started
            report.views.append(
                ViewMaintenance(view_id, impact.reason, impact.splice, elapsed)
            )
            self._views_total.inc(1.0, "patched")
            self._stage_hist.observe(elapsed, "patch")
            if not fits:
                capped.append(view_id)
            elif contracts.enabled():
                contracts.check_patched_fragments(
                    system, impact.view, f"{delta.operation} {impact.reason}"
                )
        if capped:
            # Views that outgrew the cap leave the answerable pool; the
            # filter is rebuilt over the remaining ones.
            self._evict_views(capped)
        return report

    def _scoped_answers(self, impact: ViewImpact) -> set[XMLNode]:
        """The view's answers under the impact's scope (none without
        one): the pattern is evaluated over the scope's subtree, its
        ancestors and the resolver's branch witnesses
        (:mod:`repro.delta.resolver`).  A root scope is the whole tree,
        evaluated without listing it as a universe."""
        scope = impact.scope
        if scope is None:
            return set()
        tree = self.system.document.tree
        if scope is tree.root:
            return evaluate(impact.view.pattern, tree)
        universe = [*scope.iter_subtree(), *scope.ancestors(), *impact.support]
        return evaluate(impact.view.pattern, tree, universe)

    def _patch_base_state(self, delta: SubtreeDelta) -> None:
        """Patch the code lookup for the edited range, then drop the
        lazy base-data indexes: only the Figure 8 baselines read them,
        and their next call rebuilds them from the edited tree."""
        document = self.system.document
        root = delta.subtree_root
        started = self._clock.monotonic()
        if delta.operation == "insert":
            document.note_subtree(root)
        else:
            document.forget_subtree(root)
        self._drop_base_indexes()
        self._stage_hist.observe(
            self._clock.monotonic() - started, "base_patch"
        )

    # ------------------------------------------------------------------
    # encoding internals (unchanged from the pre-delta editor)
    # ------------------------------------------------------------------
    def _schema_admits(self, parent: XMLNode, subtree: XMLNode) -> bool:
        schema = self.system.document.schema
        try:
            schema.child_position(parent.label, subtree.label)
            for node in subtree.iter_subtree():
                for child in node.children:
                    schema.child_position(node.label, child.label)
        except SchemaError:
            return False
        return True

    def _encode_new_subtree(self, parent: XMLNode, subtree: XMLNode) -> None:
        """Assign codes to the appended subtree (existing codes keep)."""
        schema = self.system.document.schema
        # The last *coded* existing sibling seeds component assignment;
        # uncoded siblings (nodes attached directly to the tree, never
        # encoded) must be skipped, not indexed into.
        previous: int | None = None
        for sibling in parent.children[:-1]:
            if sibling.dewey is not None:
                previous = sibling.dewey[-1]
        assert parent.dewey is not None
        assert parent.dewey_packed is not None
        component = assign_child_component(
            schema, parent.label, subtree.label, previous
        )
        subtree.dewey = parent.dewey + (component,)
        subtree.dewey_packed = parent.dewey_packed + pack_component(component)
        stamp_descendants(subtree, schema)

    def _full_reencode(self) -> EncodedDocument:
        """Re-stamp every code of the tree under a freshly mined schema."""
        return encode_tree(self.system.document.tree)

    def _drop_base_indexes(self) -> None:
        """Reset the tree's label index and the lazy base-data indexes."""
        self.system.document.tree.invalidate_indexes()
        # Resetting them races with a concurrent lazy build in
        # ``_ensure_node_index`` & co., so the writes must take the
        # same lock the builders hold.
        with self.system._index_lock:
            self.system._node_index = None
            self.system._path_index = None
            self.system._stream_index = None

    def _evict_views(self, view_ids: list[str]) -> None:
        """Remove views from the answerable pool and the fragment store
        and rebuild VFILTER; every cached plan goes with them."""
        system = self.system
        system._memo.evict_views(view_ids)
        system._evict_materialized(view_ids)


def _maintain_plan(
    impacts: AffectedViews,
    delta: SubtreeDelta,
    tree: XMLTree,
    failures: list[BaseException],
    key: tuple[str, str],
    entry: PlanEntry,
) -> PlanEntry | None:
    """Upkeep of one flagged plan: patched as the resolver classified
    it, or dropped (None) when it kept no verdict for this entry.  An
    error is recorded in ``failures`` instead of raised, and drops this
    plan and every later one, so the caller can evict the affected
    views before re-raising it outside the plan cache's upkeep."""
    impact = impacts.plans.get(key)
    if failures or impact is None or impact.entry is not entry:
        return None
    try:
        return patch_plan(impact, delta, tree)
    except BaseException as error:
        failures.append(error)
        return None
