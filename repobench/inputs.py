"""Fixed benchmark inputs: documents, views, query sets and edit sites.

Everything that sets the *cost* of a run is fixed here, independent of
the run seed: the XMark document (seed 42), the 8 seed views plus 200
``PROCESSING_CONFIG`` views (view seed 42), the 40-query pool, the
ad-hoc query set and the edit-site list.  The run seed only permutes
the order in which these are used and drives the zipf draws.  With
edit sites chosen by run seed, normalized edit p50 varied 1.9x across
five seeds; with one fixed site list it varied 7%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.bench import PROCESSING_CONFIG, SEED_VIEWS, TEST_QUERIES
from repro.workload.querygen import QueryGenerator, generate_positive
from repro.workload.xmark import generate_xmark
from repro.xmltree.builder import encode_tree
from repro.xmltree.dewey import DeweyCode
from repro.xmltree.tree import XMLNode, XMLTree

__all__ = ["EditSite", "Inputs", "build_inputs", "subtree_from_json", "zipf_weights"]

DOCUMENT_SEED = 42
VIEW_SEED = 42
VIEW_COUNT = 200
POOL_SIZE = 40
#: Seed of the ad-hoc query generator (deliberately not 42, so the
#: ad-hoc stream is not the view stream).
ADHOC_SEED = 2008
ADHOC_COUNT = 3000
#: Seed that picks the edit-site list.
EDIT_SEED = 7
EDIT_MIN_DEPTH = 3
EDIT_MAX_NODES = 6
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True, slots=True)
class EditSite:
    """One delete/re-insert site: the node's code in the freshly encoded
    document, its parent's code and the subtree to put back."""

    code: DeweyCode
    parent: DeweyCode
    subtree: dict[str, Any]
    nodes: int


@dataclass(slots=True)
class Inputs:
    scale: float
    #: view id -> XPath, seed views first.
    views: dict[str, str]
    edit_sites: list[EditSite]
    adhoc: list[str]

    def fresh_tree(self) -> XMLTree:
        """A new, unencoded copy of the document (encoding mutates it)."""
        return generate_xmark(scale=self.scale, seed=DOCUMENT_SEED)

    def pool(self, materialized: set[str]) -> list[str]:
        """The 4 Table-III queries plus 36 expressions of materialized
        views (every view answers itself), in zipf rank order."""
        pool = [expression for expression, _ in TEST_QUERIES.values()]
        generated = [f"G{index}" for index in range(VIEW_COUNT)]
        random.Random(VIEW_SEED).shuffle(generated)
        for view_id in generated:
            if len(pool) == POOL_SIZE:
                break
            expression = self.views[view_id]
            if view_id in materialized and expression not in pool:
                pool.append(expression)
        return pool


def zipf_weights(count: int) -> list[float]:
    return [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, count + 1)]


def subtree_json(node: XMLNode) -> dict[str, Any]:
    """The ``POST /edit`` rendering of a subtree."""
    body: dict[str, Any] = {"label": node.label}
    if node.text is not None:
        body["text"] = node.text
    if node.attributes:
        body["attributes"] = dict(node.attributes)
    if node.children:
        body["children"] = [subtree_json(child) for child in node.children]
    return body


def subtree_from_json(body: dict[str, Any]) -> XMLNode:
    node = XMLNode(body["label"], body.get("text"), dict(body.get("attributes", {})))
    for child in body.get("children", ()):
        node.add_child(subtree_from_json(child))
    return node


def _edit_sites(tree: XMLTree, count: int) -> list[EditSite]:
    """Non-nested sites at depth >= 3 with small subtrees, picked once
    from a fixed seed."""
    candidates = [
        node
        for node in tree.iter_nodes()
        if node.depth() >= EDIT_MIN_DEPTH
        and node.subtree_size() <= EDIT_MAX_NODES
        and node.dewey is not None
    ]
    random.Random(EDIT_SEED).shuffle(candidates)
    chosen: list[XMLNode] = []
    for node in candidates:
        if any(
            other.is_ancestor_or_self_of(node) or node.is_ancestor_of(other)
            for other in chosen
        ):
            continue
        chosen.append(node)
        if len(chosen) == count:
            break
    sites = []
    for node in chosen:
        assert node.parent is not None and node.parent.dewey is not None
        assert node.dewey is not None
        sites.append(
            EditSite(node.dewey, node.parent.dewey, subtree_json(node),
                     node.subtree_size())
        )
    return sites


def _adhoc_queries(document_schema: Any, count: int) -> list[str]:
    """``count`` distinct generated queries (by canonical form), in
    generation order."""
    generator = QueryGenerator(document_schema, PROCESSING_CONFIG, seed=ADHOC_SEED)
    seen: set[str] = set()
    queries: list[str] = []
    while len(queries) < count:
        pattern = generator.generate()
        key = pattern.canonical_string()
        if key not in seen:
            seen.add(key)
            queries.append(pattern.to_xpath())
    return queries


def build_inputs(scale: float, edit_sites: int, adhoc: bool) -> Inputs:
    """Generate the fixed inputs of one workload (not part of set-up)."""
    document = encode_tree(generate_xmark(scale=scale, seed=DOCUMENT_SEED))
    generator = QueryGenerator(document.schema, PROCESSING_CONFIG, seed=VIEW_SEED)
    patterns = generate_positive(generator, document.tree, VIEW_COUNT)
    views = dict(SEED_VIEWS)
    views.update(
        (f"G{index}", pattern.to_xpath()) for index, pattern in enumerate(patterns)
    )
    return Inputs(
        scale=scale,
        views=views,
        edit_sites=_edit_sites(document.tree, edit_sites),
        adhoc=_adhoc_queries(document.schema, ADHOC_COUNT) if adhoc else [],
    )
