"""Assign extended Dewey codes to every node of a document.

:func:`encode_tree` walks the document once, mining (or accepting) a
schema and stamping each node's ``dewey`` attribute with its extended
Dewey code under the deterministic assignment rule of
:mod:`repro.xmltree.dewey`.  The returned :class:`EncodedDocument`
bundles the tree, schema and FST — the triple every downstream component
(materialization, join, baselines) operates on.  The walk itself,
:func:`stamp_descendants`, also codes a subtree that maintenance
appends to an encoded document.
"""

from __future__ import annotations

from .dewey import DeweyCode, assign_child_component, pack_component
from .fst import FiniteStateTransducer
from .schema import DocumentSchema
from .tree import XMLNode, XMLTree

__all__ = ["EncodedDocument", "encode_tree", "stamp_descendants"]


class EncodedDocument:
    """A document with extended Dewey codes assigned to every node."""

    __slots__ = ("tree", "schema", "fst", "_by_code")

    def __init__(self, tree: XMLTree, schema: DocumentSchema):
        self.tree = tree
        self.schema = schema
        self.fst = FiniteStateTransducer(schema)
        self._by_code: dict[DeweyCode, XMLNode] | None = None

    def node_by_code(self, code: DeweyCode) -> XMLNode | None:
        """Return the node carrying ``code``, building an index lazily."""
        if self._by_code is None:
            self._by_code = {
                node.dewey: node
                for node in self.tree.iter_nodes()
                if node.dewey is not None
            }
        return self._by_code.get(code)

    def note_subtree(self, root: XMLNode) -> None:
        """Patch the lazy code lookup for a freshly encoded subtree
        appended by maintenance (no-op while the index is unbuilt).
        The FST cache is untouched: scoped edits never change the
        schema, so its transitions stay valid."""
        if self._by_code is None:
            return
        for node in root.iter_subtree():
            if node.dewey is not None:
                self._by_code[node.dewey] = node

    def forget_subtree(self, root: XMLNode) -> None:
        """Patch the lazy code lookup for a detached subtree (no-op
        while the index is unbuilt)."""
        if self._by_code is None:
            return
        for node in root.iter_subtree():
            if node.dewey is not None:
                self._by_code.pop(node.dewey, None)

    def invalidate(self) -> None:
        """Drop cached lookups after re-encoding."""
        self._by_code = None
        self.fst.clear_cache()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EncodedDocument size={self.tree.size()}>"


def encode_tree(
    tree: XMLTree, schema: DocumentSchema | None = None
) -> EncodedDocument:
    """Stamp extended Dewey codes onto ``tree`` and return the bundle.

    Parameters
    ----------
    tree:
        Document to encode; its nodes' ``dewey`` attributes are set in
        place.
    schema:
        Optional pre-declared schema.  When omitted, the schema is mined
        from the document.  A declared schema must admit every
        parent/child label pair present in the document.
    """
    if schema is None:
        schema = DocumentSchema.from_tree(tree)

    tree.root.dewey = (0,)
    tree.root.dewey_packed = pack_component(0)
    stamp_descendants(tree.root, schema)
    return EncodedDocument(tree, schema)


def stamp_descendants(root: XMLNode, schema: DocumentSchema) -> None:
    """Stamp extended Dewey codes onto every node below ``root``, which
    must already carry its own.  The one encoding walk: the whole
    document (:func:`encode_tree`) and a subtree appended by
    maintenance both go through it."""
    # Iterative DFS; each stack entry is a node whose children still need
    # codes.  Components are assigned in sibling order.
    stack: list[XMLNode] = [root]
    while stack:
        parent = stack.pop()
        previous: int | None = None
        for child in parent.children:
            component = assign_child_component(
                schema, parent.label, child.label, previous
            )
            previous = component
            assert parent.dewey is not None
            assert parent.dewey_packed is not None
            child.dewey = parent.dewey + (component,)
            child.dewey_packed = parent.dewey_packed + pack_component(component)
            stack.append(child)
