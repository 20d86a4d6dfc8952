"""Affected-view resolution: which views can an edit touch, and how.

The resolver replaces the old coarse label test (``_view_touched``: any
shared label → re-evaluate the view over the whole document) with the
per-view NFAs the VFILTER already maintains.  For every changed node
the delta records its concrete root-to-node label path; running those
paths through :meth:`VFilter.accepting_views` yields exactly the views
with a decomposed path matching some changed node.

Soundness of the *untouched* verdict: the constraint language is
attribute-equality only (no positional predicates), so whether a
pattern embedding exists depends only on the labels, attributes and
ancestry of its image nodes.  If an edit changes a view's answer set,
some embedding gains or loses a node inside the edited subtree ``S``;
walking down from that node, some pattern *leaf* maps into ``S`` (``S``
is a whole subtree, so descendants of a node in ``S`` stay in ``S``).
That leaf's decomposed path in ``D(V)`` matches the concrete label path
of its image, which is one of the delta's probe paths — so the NFA
accepts and the view is flagged.  A probe miss therefore proves the
answer set is unchanged.  Wildcard-only view paths are folded in by
``_wildcard_best`` inside ``accepting_views``.

Views whose answers cannot change may still store *content* that
changed: a fragment rooted at an ancestor-or-self of the edit anchor
serializes bytes from inside ``S``.  Those views are patchable without
re-evaluation (the answer set is proven stable) — only the overlapping
fragments are re-encoded.  They are found by looking the anchor's
ancestor-or-self packed prefixes (one per depth) up in the view's
code-ordered fragments, and, for a delete, by bisecting for a fragment
inside the deleted range.

Flagged views are scoped, not re-evaluated over the document.  Call the
*spine* the pattern path ``p0 … pk`` from the root to the answer node
and the *branches* of ``pi`` its children off the spine.  An answer is
the end of a chain ``h0 … hk`` of tree nodes where each ``hi`` hosts
``pi`` (label and attributes match, every branch of ``pi`` embeds below
``hi``) and the chain respects the spine's axes.  Let ``A`` be the
ancestors of ``S`` (the edited subtree's parent and up).  A node
outside ``A ∪ S`` keeps its subtree, so whether it hosts a ``pi`` is
unchanged.  So if the answers change, some chain either passes through
``S`` — then its answer lies inside ``S`` — or passes through a node
``h`` of ``A`` where the branches of some ``pi`` held before the edit
and not after, or the reverse: a *flip* at ``h``.  Chains ending
outside the subtree of the highest flipped ``h`` touch no flipped node
and no node of ``S``, so they are unchanged.  Patterns are positive, so
a branch embedding that exists without ``S`` also exists with it: each
host is tested once without ``S`` (early exit on the first embedding;
true means no flip) and, only if that fails, once with ``S``.  The
tests run against the pre-edit tree, adding ``S`` under its parent for
an insert and skipping it for a delete.  Only hosts whose label,
attributes and depth fit ``pi`` are tested.  The verdicts:

* a flip at ``h`` (the highest one): re-evaluate the answers under
  ``h`` and splice them over ``h``'s packed-Dewey range
  (``predicate-flip``);
* no flip, an insert and a spine that can end inside ``S`` (its label
  path matches a changed node's): the same under the root of ``S``
  (``answers-in-subtree``);
* otherwise the answers outside ``S`` are unchanged and the view is
  treated like an unflagged one: re-encode the overlapping fragments
  and, for a delete, drop the answers in ``S`` by range
  (``fragment-content-overlap``, no splice), or leave it untouched
  when it stores none of them.

A scoped evaluation runs over the subtree under the scope, its
ancestors, and the *support*: one post-edit embedding of the branches
of every ``pi`` at every ancestor that hosts it (recorded by the
no-flip tests, which hold both before and after the edit).  Every chain
ending under the scope is then witnessed within that universe.  The
resolver never sees a schema-violating insert: it changes every code,
so the editor re-encodes the document and scopes every view to the
root (``full-reencode``), the one scope evaluated over the whole
document.  ``views`` is the epoch's answerable pool, so no
capped view reaches the resolver: the edit that pushes a view's
fragments past the cap evicts it from the pool, and it stays out for
good.  It keeps its catalog entry, so no later edit lists it as
affected or skipped, and serving it again takes a registration under a
new id.  ``MaterializedViewSystem.reopen`` keeps a capped view out in
the same way.

A cached plan's answers are a materialised view of its query, and the
same argument maintains them (:meth:`_Edit.classify_plan`).  The plan
cache's dependency index flags the plans over affected views; a query
none of whose root-to-leaf paths matches a changed node's label path
(the test a view's NFA makes) keeps its answer set, since no leaf can
map into ``S``, and any other query is scoped like a view.  Answers,
unlike fragments, are not re-encoded in place: a kept answer that is
an ancestor-or-self of ``S``'s parent stores changed content, so its
plan is dropped, unless it lies under a predicate flip's scope, whose
answers the splice copies afresh.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterator, Mapping

from ..core.plancache import PlanCache, PlanEntry
from ..core.vfilter import LayeredVFilter, VFilter
from ..core.view import View
from ..matching.evaluate import node_matches
from ..storage.fragments import Fragment, FragmentStore
from ..storage.index import match_path_steps
from ..xmltree.dewey import PackedCode, packed_prefixes
from ..xmltree.tree import XMLNode
from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern
from .delta import SubtreeDelta

__all__ = [
    "AffectedViews",
    "PlanImpact",
    "ViewImpact",
    "resolve_affected",
]

#: A scoped verdict: reason, splice root and branch support.
_Scoped = tuple[str, XMLNode, tuple[XMLNode, ...]]

_PACKED = attrgetter("packed")


@dataclass(frozen=True, slots=True)
class ViewImpact:
    """One affected view and how its fragments follow the edit.

    Every impact is a patch.  ``reason`` names the verdict: one of the
    resolver's (module docstring), or ``full-reencode`` for a
    schema-violating insert, which re-encodes the document and scopes
    every view to its root."""

    view: View
    reason: str
    #: Splice root: the highest node where a predicate branch flipped,
    #: the root of the inserted subtree, or the document root after a
    #: full re-encode.  None for a content-only patch.
    scope: XMLNode | None = None
    #: Post-edit branch embeddings at the scope's ancestors.
    support: tuple[XMLNode, ...] = ()

    @property
    def splice(self) -> bool:
        """Patch flavor: True re-evaluates the view under ``scope`` and
        splices the answers over its packed range; False only
        re-encodes overlapping fragment content (and range-drops the
        answers a delete removed)."""
        return self.scope is not None


@dataclass(frozen=True, slots=True)
class PlanImpact:
    """A flagged cached plan the edit keeps, and how its answers
    follow the edit (:func:`repro.delta.patcher.patch_plan`)."""

    #: The entry classified (the plan cache keeps it only while it is
    #: still the cached one).
    entry: PlanEntry
    #: Splice root, as for :class:`ViewImpact`; None keeps the cached
    #: answers, less those inside a deleted subtree.
    scope: XMLNode | None = None
    support: tuple[XMLNode, ...] = ()


@dataclass(frozen=True, slots=True)
class AffectedViews:
    """Resolver verdict for one delta."""

    impacts: tuple[ViewImpact, ...]
    untouched: tuple[str, ...]
    #: Flagged cached plans the edit keeps, by plan-cache key; a
    #: flagged plan missing here is dropped.
    plans: Mapping[tuple[str, str], PlanImpact] = field(default_factory=dict)

    def affected_ids(self) -> frozenset[str]:
        return frozenset(impact.view.view_id for impact in self.impacts)


def resolve_affected(
    delta: SubtreeDelta,
    vfilter: VFilter | LayeredVFilter,
    fragments: FragmentStore,
    views: list[View],
    plans: PlanCache | None = None,
) -> AffectedViews:
    """Split ``views`` into untouched and affected for ``delta``, and
    classify the cached ``plans`` the affected views
    flag."""
    answer_hits: set[str] = set()
    for labels in delta.label_paths:
        answer_hits |= vfilter.accepting_views(labels)
    anchors = packed_prefixes(delta.anchor_packed)
    deleted = delta.packed_range() if delta.operation == "delete" else None
    edit = _Edit(delta)
    impacts: list[ViewImpact] = []
    untouched: list[str] = []
    for view in views:
        view_id = view.view_id
        if view_id in answer_hits:
            scoped = edit.classify(view.pattern)
            if scoped is not None:
                impacts.append(ViewImpact(view, *scoped))
                continue
        if _stores_any(fragments.fragments(view_id), anchors, deleted):
            impacts.append(ViewImpact(view, "fragment-content-overlap"))
        else:
            untouched.append(view_id)
    affected = AffectedViews(tuple(impacts), tuple(untouched))
    if plans is None:
        return affected
    kept: dict[tuple[str, str], PlanImpact] = {}
    for key, entry in plans.flagged(affected.affected_ids()):
        impact = edit.classify_plan(entry)
        if impact is not None:
            kept[key] = impact
    return replace(affected, plans=kept)


def _stores_any(
    fragments: list[Fragment],
    codes: tuple[PackedCode, ...],
    deleted: tuple[PackedCode, PackedCode] | None,
) -> bool:
    """True when a fragment is rooted at one of ``codes`` (ascending)
    or inside the ``deleted`` packed range."""
    if deleted is not None:
        low, high = deleted
        index = bisect_left(fragments, low, key=_PACKED)
        if index < len(fragments) and fragments[index].packed < high:
            return True
    index = 0
    for code in codes:
        index = bisect_left(fragments, code, index, key=_PACKED)
        if index == len(fragments):
            return False
        if fragments[index].packed == code:
            return True
    return False


class _Edit:
    """One pending edit, seen with and without the edited subtree ``S``
    on the pre-edit tree."""

    __slots__ = (
        "insert", "subtree", "parent", "chain", "paths", "labels", "prefixes"
    )

    def __init__(self, delta: SubtreeDelta) -> None:
        self.insert = delta.operation == "insert"
        self.subtree = delta.subtree_root
        self.parent = delta.parent
        #: Ancestors of ``S``, root first: ``chain[d]`` has depth ``d``.
        self.chain = [*reversed(list(delta.parent.ancestors())), delta.parent]
        self.paths = delta.label_paths
        self.labels = delta.labels
        #: Codes of ``S``'s parent and its ancestors, root first.
        self.prefixes = [node.dewey for node in self.chain]

    def classify(self, pattern: TreePattern) -> _Scoped | None:
        """Scope one pattern (see the module docstring); None when its
        answers outside ``S`` cannot change."""
        spine = pattern.ret.root_path()
        steps: list[tuple[PatternNode, list[PatternNode], bool]] = []
        exact = True
        for index, step in enumerate(spine):
            exact = exact and step.axis is Axis.CHILD
            below = spine[index + 1] if index + 1 < len(spine) else None
            branches = [child for child in step.children if child is not below]
            steps.append((step, branches, exact))
        support: list[XMLNode] = []
        for depth, host in enumerate(self.chain):
            for index, (step, branches, exact) in enumerate(steps):
                if not branches or index > depth or (exact and index != depth):
                    continue
                if not node_matches(step, host):
                    continue
                witness = self._branches(branches, host, with_subtree=False)
                if witness is not None:
                    support.extend(witness)
                elif self._branches(branches, host, with_subtree=True) is not None:
                    return "predicate-flip", host, tuple(support)
        spine_steps = [(step.axis, step.label) for step in spine]
        if self.insert and any(
            match_path_steps(spine_steps, path) for path in self.paths
        ):
            return "answers-in-subtree", self.subtree, tuple(support)
        return None

    def classify_plan(self, entry: PlanEntry) -> PlanImpact | None:
        """How a flagged cached plan follows the edit; None drops it.

        Its answer set can change only if a pattern leaf maps into
        ``S`` (the module docstring's soundness argument), so a pattern
        none of whose root-to-leaf paths matches a changed node's label
        path keeps its answers; any other is scoped like a view.  A
        kept answer that is an ancestor-or-self of ``S``'s parent
        stores content that changed, so that plan is dropped unless the
        answer lies under a predicate flip's scope, which the splice
        re-reads.
        """
        result = entry.result
        if result is None:
            return None
        pattern = entry.pattern
        scoped: _Scoped | None = None
        if self._leaf_can_map_into_subtree(pattern):
            scoped = self.classify(pattern)
        # ``prefixes[d]`` is the code of the ancestor at depth ``d``;
        # a flip's scope re-reads those from its own depth down.
        prefixes = self.prefixes
        if scoped is not None and scoped[0] == "predicate-flip":
            prefixes = prefixes[: scoped[1].depth()]
        answers = result.answers
        if any(code in answers for code in prefixes):
            return None
        if scoped is None:
            return PlanImpact(entry)
        return PlanImpact(entry, scoped[1], scoped[2])

    def _leaf_can_map_into_subtree(self, pattern: TreePattern) -> bool:
        """Whether some leaf's root-to-leaf path matches the label path
        of a node in ``S`` — what a view's NFA tests.  A leaf whose
        label ``S`` lacks is skipped without building its path."""
        labels = self.labels
        for leaf in pattern.leaves():
            if leaf.label != WILDCARD and leaf.label not in labels:
                continue
            steps = [(node.axis, node.label) for node in leaf.root_path()]
            if any(match_path_steps(steps, path) for path in self.paths):
                return True
        return False

    # ------------------------------------------------------------------
    # existence tests with early exit
    # ------------------------------------------------------------------
    def _children(self, node: XMLNode, with_subtree: bool) -> list[XMLNode]:
        children = node.children
        if node is not self.parent:
            return children
        if self.insert:
            return [*children, self.subtree] if with_subtree else children
        if with_subtree:
            return children
        return [child for child in children if child is not self.subtree]

    def _descendants(self, node: XMLNode, with_subtree: bool) -> Iterator[XMLNode]:
        stack = list(self._children(node, with_subtree))
        while stack:
            current = stack.pop()
            yield current
            stack.extend(self._children(current, with_subtree))

    def _branches(
        self, branches: list[PatternNode], host: XMLNode, with_subtree: bool
    ) -> list[XMLNode] | None:
        """Nodes of one embedding of every branch below ``host``, or
        None when some branch has none."""
        found: list[XMLNode] = []
        for branch in branches:
            if branch.axis is Axis.CHILD:
                candidates: Iterator[XMLNode] = iter(
                    self._children(host, with_subtree)
                )
            else:
                candidates = self._descendants(host, with_subtree)
            for candidate in candidates:
                witness = self._embed(branch, candidate, with_subtree)
                if witness is not None:
                    found.extend(witness)
                    break
            else:
                return None
        return found

    def _embed(
        self, step: PatternNode, node: XMLNode, with_subtree: bool
    ) -> list[XMLNode] | None:
        """Nodes of one embedding of ``step``'s subtree at ``node``."""
        if not node_matches(step, node):
            return None
        if not step.children:
            return [node]
        below = self._branches(step.children, node, with_subtree)
        return None if below is None else [node, *below]
