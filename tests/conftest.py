"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

# Runtime contract checks (repro.core.contracts) are on for the
# whole suite unless a test or the environment says otherwise.
os.environ.setdefault("XMVR_CHECK", "1")

from repro.bench import build_environment
from repro.core.system import MaterializedViewSystem
from repro.xmltree import DocumentSchema, XMLNode, XMLTree, build_tree, encode_tree
from repro.xpath.ast import Axis
from repro.xpath.pattern import PatternNode, TreePattern

#: Small alphabet used by random generators throughout the suite.
LABELS = list("abcde")


@pytest.fixture
def book_tree() -> XMLTree:
    """The paper's Figure 2 book document (shape-faithful)."""
    return build_tree(
        ("b", [
            "t", "a", "a",
            ("s", ["t", "p", ("f", ["i"])]),
            ("s", ["t", "p", "p",
                   ("s", ["t", "p", ("f", ["i"]), "f"]),
                   ("s", ["t", "p"]),
                  ]),
        ])
    )


@pytest.fixture
def book_schema() -> DocumentSchema:
    """Schema matching the paper's FST (Figure 3): b→(t,a,s), s→(t,p,s,f)."""
    return DocumentSchema("b", {
        "b": ["t", "a", "s"],
        "s": ["t", "p", "s", "f"],
        "t": [], "a": [], "p": [],
        "f": ["i"], "i": [],
    })


@pytest.fixture
def book_doc(book_tree, book_schema):
    return encode_tree(book_tree, book_schema)


def xmark_twin(**kwargs) -> MaterializedViewSystem:
    """A fresh system over the shared small XMark bench document (seed
    views plus 24 generated ones, registered in one batch).  Answering
    is fine; editing would corrupt the shared document."""
    env = build_environment(scale=0.15, view_count=24, seed=42)
    system = MaterializedViewSystem(env.document, **kwargs)
    system.register_views(
        {view.view_id: view.pattern for view in env.system.materialized_views()}
    )
    return system


def random_tree(rng: random.Random, max_nodes: int = 40, max_depth: int = 6) -> XMLTree:
    """A random small XML tree over ``LABELS``."""
    root = XMLNode(rng.choice(LABELS))
    nodes = [root]
    target = rng.randint(3, max_nodes)
    while len(nodes) < target:
        parent = rng.choice(nodes)
        if parent.depth() >= max_depth:
            continue
        nodes.append(parent.new_child(rng.choice(LABELS)))
    return XMLTree(root)


def coded_nodes(root: XMLNode) -> list[tuple]:
    """Preorder ``(label, text, attributes, dewey, dewey_packed, child
    count)`` of every node under ``root``: equal lists mean equal trees,
    codes included."""
    return [
        (node.label, node.text, node.attributes, node.dewey,
         node.dewey_packed, len(node.children))
        for node in root.iter_subtree()
    ]


def random_pattern(
    rng: random.Random, max_nodes: int = 5, wildcards: bool = True
) -> TreePattern:
    """A random tree pattern over ``LABELS`` (answer node random)."""
    alphabet = LABELS + (["*"] if wildcards else [])
    axes = [Axis.CHILD, Axis.DESCENDANT]
    root = PatternNode(rng.choice(alphabet), rng.choice(axes))
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        nodes.append(parent.new_child(rng.choice(alphabet), rng.choice(axes)))
    return TreePattern(root, rng.choice(nodes))


def brute_force_answers(pattern: TreePattern, tree: XMLTree) -> set:
    """Reference evaluator: enumerate all embeddings explicitly.

    Exponential; for small trees/patterns only.  Used to validate the
    production evaluator.
    """
    tree_nodes = list(tree.iter_nodes())
    answers = set()

    def node_ok(p, t):
        if p.label != "*" and p.label != t.label:
            return False
        return all(c.matches(t.attributes) for c in p.constraints)

    if pattern.root.axis is Axis.CHILD:
        root_hosts = [tree.root]
    else:
        root_hosts = tree_nodes

    def embeds_with_ret(pattern_node, tree_node, ret_target):
        """∃ embedding of the subtree with pattern_node→tree_node and
        the answer node forced onto ret_target?"""
        if not node_ok(pattern_node, tree_node):
            return False
        if pattern_node is pattern.ret and tree_node is not ret_target:
            return False
        for child in pattern_node.children:
            if child.axis is Axis.CHILD:
                hosts = tree_node.children
            else:
                hosts = list(tree_node.iter_descendants())
            if not any(
                embeds_with_ret(child, host, ret_target) for host in hosts
            ):
                return False
        return True

    for candidate in tree_nodes:
        if any(
            embeds_with_ret(pattern.root, host, candidate)
            for host in root_hosts
        ):
            answers.add(candidate)
    return answers
