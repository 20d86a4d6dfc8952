"""Tree-pattern evaluation over XML trees (embeddings, paper Section II).

An *embedding* maps pattern nodes to tree nodes respecting labels
(pattern ``*`` matches anything), attribute constraints and edges
(``/`` → parent/child, ``//`` → proper ancestor/descendant).  Patterns
are absolute: a ``/``-rooted pattern maps its root to the document root,
a ``//``-rooted pattern to any node.

:func:`evaluate` returns the answer set ``{f(RET(P))}`` over all
embeddings ``f`` — the ground truth the rewriting engine is tested
against, and the engine behind view materialization and the BN/BF
baselines.  The algorithm is a two-pass set DP (bottom-up feasibility,
top-down answer projection), linear in ``|T|`` per pattern node.

:func:`evaluate_relative` evaluates a compensating pattern *inside* a
materialized fragment, anchoring the pattern root at the fragment root.
"""

from __future__ import annotations

from ..xmltree.tree import XMLNode, XMLTree
from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern

__all__ = [
    "SubtreeIndex",
    "evaluate",
    "evaluate_boolean",
    "evaluate_relative",
    "node_matches",
    "satisfies_relative",
]


class SubtreeIndex:
    """Node universe of one subtree with per-label postings.

    Built once per materialized fragment and cached on it, so repeated
    compensating-pattern evaluations (refinement, extraction) seed each
    pattern node from its label's posting list instead of rescanning
    and label-testing the whole subtree.  ``nodes[0]`` is the subtree
    root.  Postings are in document order; the evaluator only uses them
    as sets, so order is not load-bearing.
    """

    __slots__ = ("nodes", "_by_label")

    def __init__(self, root: XMLNode):
        self.nodes = list(root.iter_subtree())
        by_label: dict[str, list[XMLNode]] = {}
        for node in self.nodes:
            by_label.setdefault(node.label, []).append(node)
        self._by_label = by_label

    @property
    def root(self) -> XMLNode:
        return self.nodes[0]

    def with_label(self, label: str) -> list[XMLNode]:
        return self._by_label.get(label, [])


def node_matches(pattern_node: PatternNode, tree_node: XMLNode) -> bool:
    """Label (``*`` matches any) and attribute constraints hold at
    ``tree_node``."""
    if pattern_node.label != WILDCARD and pattern_node.label != tree_node.label:
        return False
    return all(
        constraint.matches(tree_node.attributes)
        for constraint in pattern_node.constraints
    )


def _pattern_postorder(root: PatternNode) -> list[PatternNode]:
    order: list[PatternNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


def _ancestor_closure(nodes: set[XMLNode]) -> set[XMLNode]:
    """All proper ancestors of ``nodes`` (with early stop on overlap)."""
    closure: set[XMLNode] = set()
    for node in nodes:
        current = node.parent
        while current is not None and current not in closure:
            closure.add(current)
            current = current.parent
    return closure


class _Evaluator:
    """Bottom-up feasibility sets for one pattern over one node universe."""

    def __init__(
        self,
        pattern: TreePattern,
        universe: list[XMLNode],
        index: SubtreeIndex | None = None,
    ):
        self.pattern = pattern
        self.universe = universe
        #: Optional label postings over exactly ``universe``; callers
        #: passing one guarantee ``index.nodes`` equals the universe.
        self.index = index
        #: pattern-node id -> set of tree nodes hosting that subtree
        self.down: dict[int, set[XMLNode]] = {}
        #: pattern-node id -> ancestor closure of its down-set
        self._closures: dict[int, set[XMLNode]] = {}
        self._run()

    def _seed(self, pattern_node: PatternNode) -> set[XMLNode]:
        """Universe nodes matching the pattern node's label + constraints."""
        if pattern_node.label == WILDCARD and not pattern_node.constraints:
            return set(self.universe)
        if self.index is not None and pattern_node.label != WILDCARD:
            posting = self.index.with_label(pattern_node.label)
            if not pattern_node.constraints:
                return set(posting)
            return {
                node
                for node in posting
                if all(
                    constraint.matches(node.attributes)
                    for constraint in pattern_node.constraints
                )
            }
        return {
            node for node in self.universe if node_matches(pattern_node, node)
        }

    def _run(self) -> None:
        for pattern_node in _pattern_postorder(self.pattern.root):
            matched = self._seed(pattern_node)
            for child in pattern_node.children:
                if not matched:
                    break
                child_set = self.down[id(child)]
                if child.axis is Axis.CHILD:
                    parents = {
                        node.parent for node in child_set if node.parent is not None
                    }
                    matched &= parents
                else:
                    matched &= self._closure_of(child)
            self.down[id(pattern_node)] = matched

    def _closure_of(self, pattern_node: PatternNode) -> set[XMLNode]:
        key = id(pattern_node)
        closure = self._closures.get(key)
        if closure is None:
            closure = _ancestor_closure(self.down[key])
            self._closures[key] = closure
        return closure

    def root_hosts(self, tree_root: XMLNode) -> set[XMLNode]:
        """Feasible hosts of the pattern root under the leading axis."""
        hosts = self.down[id(self.pattern.root)]
        if self.pattern.root.axis is Axis.CHILD:
            return {tree_root} & hosts
        return hosts

    def answers_from(self, root_hosts: set[XMLNode]) -> set[XMLNode]:
        """Top-down projection: feasible hosts of ``RET`` given the
        feasible hosts of every spine ancestor."""
        spine = self.pattern.ret.root_path()
        current = root_hosts
        for pattern_node in spine[1:]:
            feasible = self.down[id(pattern_node)]
            if pattern_node.axis is Axis.CHILD:
                allowed = {
                    node
                    for node in feasible
                    if node.parent is not None and node.parent in current
                }
            else:
                allowed = {
                    node
                    for node in feasible
                    if any(anc in current for anc in node.ancestors())
                }
            current = allowed
            if not current:
                break
        return current


def evaluate(
    pattern: TreePattern,
    tree: XMLTree,
    universe: list[XMLNode] | None = None,
) -> set[XMLNode]:
    """Return the answer nodes of ``pattern`` over ``tree``.

    ``universe`` narrows the candidate node list (used by the indexed
    baselines); by default every node of the document is considered.
    """
    nodes = universe if universe is not None else list(tree.iter_nodes())
    evaluator = _Evaluator(pattern, nodes)
    return evaluator.answers_from(evaluator.root_hosts(tree.root))


def evaluate_boolean(pattern: TreePattern, tree: XMLTree) -> bool:
    """Return ``P(D)``: does any embedding of ``pattern`` exist?"""
    nodes = list(tree.iter_nodes())
    evaluator = _Evaluator(pattern, nodes)
    return bool(evaluator.root_hosts(tree.root))


def _anchored(
    pattern: TreePattern, anchor: XMLNode, index: SubtreeIndex | None
) -> _Evaluator:
    """Bottom-up sets of ``pattern`` over the subtree of ``anchor``."""
    nodes = index.nodes if index is not None else list(anchor.iter_subtree())
    return _Evaluator(pattern, nodes, index)


def evaluate_relative(
    pattern: TreePattern,
    anchor: XMLNode,
    index: SubtreeIndex | None = None,
) -> set[XMLNode]:
    """Evaluate ``pattern`` anchored at ``anchor``.

    The pattern root must match ``anchor`` itself (labels and
    constraints); edges below are interpreted within the subtree of
    ``anchor``.  Used for compensating queries on materialized fragments.
    ``index``, when given, must be a :class:`SubtreeIndex` built over
    exactly ``anchor`` (fragments cache one); it replaces the per-call
    subtree scan.
    """
    evaluator = _anchored(pattern, anchor, index)
    if anchor not in evaluator.down[id(pattern.root)]:
        return set()
    return evaluator.answers_from({anchor})


def satisfies_relative(
    pattern: TreePattern,
    anchor: XMLNode,
    index: SubtreeIndex | None = None,
) -> bool:
    """True when ``pattern`` (anchored at ``anchor``) has any embedding.

    Equals ``bool(evaluate_relative(pattern, anchor, index))`` without
    the top-down projection: ``anchor`` hosting the root bottom-up means
    some embedding ``f`` of the whole pattern has ``f(root) = anchor``
    (the down-sets are exact for tree patterns), and that ``f`` maps
    every spine node to a node the projection keeps (induction down the
    spine: ``f`` of each spine node is feasible and lies below ``f`` of
    its parent, which the projection kept), so ``f(RET)`` is an answer.
    Conversely an answer needs ``anchor`` in the root's down-set.
    """
    evaluator = _anchored(pattern, anchor, index)
    return anchor in evaluator.down[id(pattern.root)]
