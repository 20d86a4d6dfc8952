"""Delta-propagation maintenance: scoped upkeep under document edits.

The paper materializes views once; a production deployment also needs
them to survive inserts and deletes on the base document.  Earlier
revisions treated every edit as a global event — blanket plan-cache
invalidation plus full re-evaluation of every label-touched view over
the entire document.  This module replaces that with delta propagation:

1. the edit is summarized as a :class:`SubtreeDelta` *before* the tree
   mutates (packed Dewey anchor + concrete label paths);
2. the resolver runs the delta's paths through the epoch's VFILTER
   NFAs and splits views into untouched / patchable / rebuild, and
   scopes each flagged view: to the highest ancestor of the edit where
   a predicate branch flips, else to the inserted subtree, else to a
   content-only patch (:mod:`repro.delta.resolver` proves each verdict
   sound);
3. patchable views are spliced in place by packed-Dewey range
   (:mod:`repro.delta.patcher`) after evaluating the pattern under the
   scope only; payloads are encoded once per edit and shared across
   views.  Only schema-violating inserts pay a re-evaluation over the
   whole document (a view the cap evicts leaves the pool for good);
4. the plan cache is maintained like the views: only plans that
   selected an affected view are flagged; the resolver
   classifies each flagged plan's query before the edit, and after it
   the plan is kept, has its cached answers spliced
   (:func:`~repro.delta.patcher.patch_plan`), or is dropped — the
   single plan-cache upkeep point on the edit path is the first
   statement of :meth:`DocumentEditor._apply_impacts`;
5. the lazy base-data indexes (node / path / stream) are patched for
   the edited range instead of being reset to ``None``.

Extended Dewey codes make the encoding side cheap: inserts append the
subtree as the parent's last child so *no existing code changes*, and
deletes remove codes without renumbering (a fragment stores the
component of a node a delete left behind a gap, see
:func:`~repro.storage.serialize.encode_fragment`).  Inserts whose labels violate
the mined schema still fall back to a full re-encode + blanket rebuild
(the FST alphabet itself changes), as do encode failures mid-edit.

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
from ..core.view import View
from ..errors import EncodingError, SchemaError
from ..matching.evaluate import evaluate
from ..obs import current_trace
from ..storage.fragments import Fragment
from ..xmltree.builder import EncodedDocument, encode_tree
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
    #: ``"patched"`` or ``"rebuilt"``.
    mode: str
    reason: str
    splice: bool
    seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "view_id": self.view_id,
            "mode": self.mode,
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
    #: Per-view mode + timing, in maintenance order.
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
            "Per-view maintenance outcomes (patched / rebuilt / "
            "untouched).",
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

        if not self._schema_admits(parent, subtree):
            # New parent/child label pairs: the schema (and with it
            # every code) must be rebuilt — no scoped path exists.
            return self._insert_full(parent, subtree)

        delta = SubtreeDelta.for_insert(parent, subtree)
        impacts = self._resolve(delta)
        parent.add_child(subtree)
        try:
            self._encode_new_subtree(parent, subtree)
            assert subtree.dewey is not None
            assert subtree.dewey_packed is not None
            delta.bind_codes(subtree.dewey, subtree.dewey_packed)
            self._patch_base_state(delta)
        except BaseException:
            # The tree already holds the new subtree; cached plans,
            # base-data indexes and the affected views' fragments must
            # not outlive a failed encode.
            self._invalidate_document()
            self._evict_views(sorted(impacts.affected_ids()))
            raise
        return self._apply_impacts(delta, impacts)

    def _insert_full(
        self, parent: XMLNode, subtree: XMLNode
    ) -> MaintenanceReport:
        """Schema-violating insert: re-encode everything, rebuild all
        (every code changed, so nothing is patchable).  The scoped
        invalidation in :meth:`_apply_impacts` covers every view, so it
        drops every plan: the edit's one invalidation."""
        delta = SubtreeDelta.for_insert(parent, subtree)
        parent.add_child(subtree)
        document = self.system.document
        try:
            fresh = self._full_reencode()
            document.schema = fresh.schema
            document.fst = fresh.fst
            document.invalidate()
            self._drop_base_indexes()
        except BaseException:
            self._invalidate_document()
            raise
        rebuild = tuple(
            ViewImpact(view, "rebuild", "full-reencode")
            for view in self.system.materialized_views()
        )
        report = self._apply_impacts(delta, AffectedViews(rebuild, ()))
        report.full_reencode = True
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
            self._invalidate_document()
            self._evict_views(sorted(impacts.affected_ids()))
            raise
        return self._apply_impacts(delta, impacts)

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
        # Fragments encoded from the live tree during this edit, by
        # packed code: one object, encoded and copied once, for every
        # view storing the code.
        encoded: dict[PackedCode, Fragment] = {}
        for impact in impacts.impacts:
            view_id = impact.view.view_id
            report.affected_views.append(view_id)
            started = self._clock.monotonic()
            patched = impact.mode == "patch"
            try:
                if patched:
                    with current_trace().span("delta_patch", view=view_id):
                        answers = self._scoped_answers(impact)
                        fits = self._patcher.patch(
                            impact.view, delta, encoded, impact.scope, answers
                        )
                else:
                    with current_trace().span("delta_rebuild", view=view_id):
                        system.fragments.drop(view_id)
                        answers = evaluate(
                            impact.view.pattern, system.document.tree
                        )
                        fits = system.fragments.materialize(
                            view_id,
                            [
                                (n.dewey, n)
                                for n in answers
                                if n.dewey is not None
                            ],
                        )
            except BaseException:
                # The fragments may be gone or torn; a view left in the
                # answerable pool would rewrite queries against nothing
                # and return wrong answers.
                self._evict_views([view_id])
                raise
            elapsed = self._clock.monotonic() - started
            mode = "patched" if patched else "rebuilt"
            report.views.append(
                ViewMaintenance(view_id, mode, impact.reason, impact.splice, elapsed)
            )
            self._views_total.inc(1.0, mode)
            self._stage_hist.observe(elapsed, "patch" if patched else "rebuild")
            if not fits:
                capped.append(view_id)
            elif contracts.enabled():
                contracts.check_patched_fragments(
                    system, impact.view, f"{delta.operation} {mode}"
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
        (:mod:`repro.delta.resolver`)."""
        scope = impact.scope
        if scope is None:
            return set()
        universe = [*scope.iter_subtree(), *scope.ancestors(), *impact.support]
        return evaluate(impact.view.pattern, self.system.document.tree, universe)

    def _patch_base_state(self, delta: SubtreeDelta) -> None:
        """Patch the code lookup and lazy base-data indexes for the
        edited range instead of resetting them to ``None``."""
        system = self.system
        document = system.document
        root = delta.subtree_root
        started = self._clock.monotonic()
        document.tree.invalidate_indexes()
        if delta.operation == "insert":
            document.note_subtree(root)
        else:
            document.forget_subtree(root)
        # Patching races with a concurrent lazy build in
        # ``_ensure_node_index`` & co., so the same lock applies.
        with system._index_lock:
            node_index = system._node_index
            path_index = system._path_index
            stream_index = system._stream_index
            if node_index is not None:
                if delta.operation == "insert":
                    node_index.insert_subtree(root)
                else:
                    node_index.remove_subtree(root)
            if path_index is not None:
                if delta.operation == "insert":
                    path_index.insert_subtree(root, delta.anchor_labels)
                else:
                    path_index.remove_subtree(root, delta.anchor_labels)
            if stream_index is not None:
                if delta.operation == "insert":
                    stream_index.insert_subtree(root)
                else:
                    low, high = delta.packed_range()
                    stream_index.remove_range(low, high, delta.labels)
            # Reassign unconditionally: the in-place patches above sit
            # inside conditionals, and the derived-state walker (L15)
            # only credits writes it can prove happen on every path.
            system._node_index = node_index
            system._path_index = path_index
            system._stream_index = stream_index
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
        siblings = parent.children
        # The last *coded* existing sibling seeds component assignment;
        # uncoded siblings (nodes attached directly to the tree, never
        # encoded) must be skipped, not indexed into.
        previous: int | None = None
        for sibling in siblings[:-1]:
            if sibling.dewey is not None:
                previous = sibling.dewey[-1]
        assert parent.dewey is not None
        assert parent.dewey_packed is not None
        component = assign_child_component(
            schema, parent.label, subtree.label, previous
        )
        subtree.dewey = parent.dewey + (component,)
        subtree.dewey_packed = parent.dewey_packed + pack_component(component)
        stack = [subtree]
        while stack:
            current = stack.pop()
            last: int | None = None
            for child in current.children:
                assert current.dewey is not None
                assert current.dewey_packed is not None
                child_component = assign_child_component(
                    schema, current.label, child.label, last
                )
                last = child_component
                child.dewey = current.dewey + (child_component,)
                child.dewey_packed = (
                    current.dewey_packed + pack_component(child_component)
                )
                stack.append(child)

    def _full_reencode(self) -> EncodedDocument:
        """Re-stamp every code of the tree under a freshly mined schema."""
        return encode_tree(self.system.document.tree)

    def _invalidate_document(self) -> None:
        """Blanket fallback invalidation (failed edits): every derived
        artifact of the document goes."""
        self.system.document.invalidate()
        self._drop_base_indexes()
        # Cached plans embed rewrite results over the old document;
        # drop them here rather than relying on a later rebuild pass.
        self.system._invalidate_plans()

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
        """Remove views from the answerable pool and rebuild VFILTER."""
        system = self.system
        system._invalidate_plans()
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
