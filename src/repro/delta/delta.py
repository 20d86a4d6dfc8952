"""Subtree deltas: the unit of change the maintenance engine propagates.

A :class:`SubtreeDelta` captures everything the affected-view resolver
and the fragment patcher need to know about one insert/delete edit
*before* the tree is mutated:

* the edited subtree, the node it hangs under and how many nodes it
  holds,
* the packed-Dewey anchor (the parent for inserts, the doomed root for
  deletes) used for fragment-content overlap tests,
* the set of concrete root-to-node label paths of every changed node —
  the probe strings run through the VFILTER NFAs,
* the label set, which lets the resolver skip a pattern leaf whose
  label the subtree lacks.

Deltas are computed from the *pre-edit* tree (``for_insert`` before the
subtree is attached, ``for_delete`` before the node is detached) so the
label paths reflect the document state the stored fragments were
derived from.  The packed range of an inserted subtree only exists
after Dewey encoding; :meth:`bind_codes` fills it in.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..xmltree.dewey import DeweyCode, PackedCode, packed_descendant_range
from ..xmltree.tree import XMLNode

__all__ = ["SubtreeDelta"]


@dataclass(slots=True)
class SubtreeDelta:
    """One insert/delete edit, summarized for scoped propagation."""

    operation: str
    subtree_root: XMLNode
    #: The node the subtree hangs (insert) or hung (delete) under.
    parent: XMLNode
    #: Packed code of the insert parent / the deleted subtree root —
    #: a stored fragment overlaps the edit content iff its packed code
    #: is a byte prefix of this anchor (ancestor-or-self).
    anchor_packed: PackedCode
    #: Concrete root-to-node label paths of every changed node.
    label_paths: frozenset[tuple[str, ...]]
    #: Labels occurring in the subtree.
    labels: frozenset[str]
    changed_nodes: int
    root_code: DeweyCode | None = None
    root_packed: PackedCode | None = None

    @classmethod
    def for_insert(cls, parent: XMLNode, subtree: XMLNode) -> "SubtreeDelta":
        """Delta for attaching ``subtree`` under ``parent`` (call before
        ``add_child``; codes are bound after encoding)."""
        if parent.dewey_packed is None:
            raise ValueError("insert parent has no Dewey code")
        base = parent.label_path()
        paths, labels, count = cls._walk(subtree, base)
        return cls(
            operation="insert",
            subtree_root=subtree,
            parent=parent,
            anchor_packed=parent.dewey_packed,
            label_paths=paths,
            labels=labels,
            changed_nodes=count,
        )

    @classmethod
    def for_delete(cls, node: XMLNode) -> "SubtreeDelta":
        """Delta for detaching ``node`` (call before ``detach``)."""
        if node.dewey is None or node.dewey_packed is None:
            raise ValueError("delete target has no Dewey code")
        if node.parent is None:
            raise ValueError("cannot delete the document root")
        base = node.label_path()[:-1]
        paths, labels, count = cls._walk(node, base)
        return cls(
            operation="delete",
            subtree_root=node,
            parent=node.parent,
            anchor_packed=node.dewey_packed,
            label_paths=paths,
            labels=labels,
            changed_nodes=count,
            root_code=node.dewey,
            root_packed=node.dewey_packed,
        )

    @staticmethod
    def _walk(
        root: XMLNode, base: tuple[str, ...]
    ) -> tuple[frozenset[tuple[str, ...]], frozenset[str], int]:
        paths: set[tuple[str, ...]] = set()
        labels: set[str] = set()
        count = 0
        stack: list[tuple[XMLNode, tuple[str, ...]]] = [(root, base + (root.label,))]
        while stack:
            node, path = stack.pop()
            paths.add(path)
            labels.add(node.label)
            count += 1
            for child in node.children:
                stack.append((child, path + (child.label,)))
        return frozenset(paths), frozenset(labels), count

    def bind_codes(self, code: DeweyCode, packed: PackedCode) -> None:
        """Record the subtree root's codes once encoding has assigned
        them (insert deltas are built pre-encoding)."""
        self.root_code = code
        self.root_packed = packed

    def packed_range(self) -> tuple[PackedCode, PackedCode]:
        """``[low, high)`` byte range holding exactly the packed codes
        of the edited subtree (descendant-or-self of its root)."""
        if self.root_packed is None:
            raise ValueError("delta codes not bound yet")
        return packed_descendant_range(self.root_packed)
