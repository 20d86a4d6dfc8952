"""Base-data indexes: the BN and BF baselines of the paper's Figure 8.

* **BN** ("basic node index"): a label → node-list index.  Evaluating a
  query seeds the tree-pattern evaluator with the union of the node
  lists for the query's labels — the paper's "executing queries directly
  on the XML database with basic node index support".
* **BF** ("full index"): a DataGuide-style label-path → node-list index.
  Each pattern node's candidates shrink to the nodes whose concrete
  root-to-node label path matches the pattern's root-to-that-node path
  prefix, which is dramatically tighter — at a much larger index
  footprint (the paper reports 150 MB → 635 MB for a 56.2 MB document).

Both baselines return exactly the same answers as plain evaluation; only
the candidate universes differ.  ``stored_bytes`` estimates the index
footprint so the space/time trade-off of Figure 8's commentary can be
reported.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..xmltree.dewey import PackedCode, packed_descendant_range
from ..xmltree.tree import XMLNode, XMLTree
from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern
from .. import matching

__all__ = [
    "NodeIndex",
    "FullPathIndex",
    "DeweyStreamIndex",
    "match_path_steps",
]


def match_path_steps(steps: list[tuple[Axis, str]], labels: tuple[str, ...]) -> bool:
    """True when a concrete label path satisfies a path-pattern prefix.

    ``steps`` is the root-to-node step list of a pattern node; ``labels``
    a concrete root-to-node label path.  The whole of both sequences
    must be consumed (the pattern node must map to the *last* label).
    """

    memo: dict[tuple[int, int], bool] = {}

    def match(step_index: int, label_index: int) -> bool:
        key = (step_index, label_index)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if step_index == len(steps):
            result = label_index == len(labels)
        elif label_index >= len(labels):
            result = False
        else:
            axis, label = steps[step_index]
            result = False
            if axis is Axis.CHILD:
                if label == WILDCARD or label == labels[label_index]:
                    result = match(step_index + 1, label_index + 1)
            else:
                # '//': the step may land on any remaining position.
                for landing in range(label_index, len(labels)):
                    if label == WILDCARD or label == labels[landing]:
                        if match(step_index + 1, landing + 1):
                            result = True
                            break
        memo[key] = result
        return result

    return match(0, 0)


def _root_steps(node: PatternNode) -> list[tuple[Axis, str]]:
    return [(ancestor.axis, ancestor.label) for ancestor in node.root_path()]


class NodeIndex:
    """BN: label → nodes, built in one pass over the document."""

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree  #: state: hard
        #: state: soft(derived-from=tree; rebuild=__init__)
        self._by_label: dict[str, list[XMLNode]] = {}
        self._total_nodes = 0  #: state: counter
        for node in tree.iter_nodes():
            self._by_label.setdefault(node.label, []).append(node)
            self._total_nodes += 1

    def nodes_with_label(self, label: str) -> list[XMLNode]:
        return self._by_label.get(label, [])

    def universe_for(self, pattern: TreePattern) -> list[XMLNode]:
        """Candidate nodes for evaluating ``pattern``."""
        labels = {node.label for node in pattern.iter_nodes()}
        if WILDCARD in labels:
            return list(self.tree.iter_nodes())
        universe: list[XMLNode] = []
        for label in labels:
            universe.extend(self._by_label.get(label, []))
        return universe

    def evaluate(self, pattern: TreePattern) -> set[XMLNode]:
        """Answer ``pattern`` using the node index (the BN baseline)."""
        return matching.evaluate(pattern, self.tree, self.universe_for(pattern))

    @property
    def stored_bytes(self) -> int:
        """Rough index footprint: one 16-byte entry per posting."""
        postings = sum(len(nodes) for nodes in self._by_label.values())
        labels = sum(len(label) for label in self._by_label)
        return postings * 16 + labels

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeIndex labels={len(self._by_label)} nodes={self._total_nodes}>"


class DeweyStreamIndex:
    """Per-label streams of *packed* Dewey codes, in document order.

    The TJFast baseline's stream source: one pass over an encoded
    document yields, per label, the sorted byte-string codes of its
    nodes (packed order equals document order, so the lists arrive
    presorted from the traversal and the safety sorts below are linear
    passes).  :meth:`descendant_slice` range-scans one stream
    with the packed key range of
    :func:`repro.xmltree.dewey.packed_descendant_range` — the byte-key
    analogue of a B-tree range probe over ``(label, code)``.
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree  #: state: hard
        #: state: soft(derived-from=tree; rebuild=__init__)
        self._by_label: dict[str, list[PackedCode]] = {}
        #: state: soft(derived-from=tree; rebuild=__init__)
        self._all: list[PackedCode] = []
        for node in tree.iter_nodes():
            packed = node.dewey_packed
            if packed is None:
                continue
            self._by_label.setdefault(node.label, []).append(packed)
            self._all.append(packed)
        self._all.sort()
        for stream in self._by_label.values():
            stream.sort()

    def stream(self, label: str) -> list[PackedCode]:
        """Sorted packed codes of every node labeled ``label``."""
        return self._by_label.get(label, [])

    def all_codes(self) -> list[PackedCode]:
        """Sorted packed codes of every encoded node (wildcard stream)."""
        return self._all

    def descendant_slice(
        self, label: str, ancestor: PackedCode
    ) -> list[PackedCode]:
        """Codes labeled ``label`` inside the subtree of ``ancestor``
        (descendant-or-self), via a packed byte-range bisection."""
        stream = self._by_label.get(label)
        if not stream:
            return []
        low, high = packed_descendant_range(ancestor)
        return stream[bisect_left(stream, low):bisect_right(stream, high)]

    @property
    def stored_bytes(self) -> int:
        """Exact posting payload: the packed code bytes themselves."""
        return sum(len(code) for code in self._all)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeweyStreamIndex labels={len(self._by_label)} "
            f"codes={len(self._all)}>"
        )


class FullPathIndex:
    """BF: concrete label-path → nodes (DataGuide-style full index)."""

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree  #: state: hard
        #: state: soft(derived-from=tree; rebuild=__init__)
        self._by_path: dict[tuple[str, ...], list[XMLNode]] = {}
        # One pass, carrying the label path down the DFS.
        stack: list[tuple[XMLNode, tuple[str, ...]]] = [
            (tree.root, (tree.root.label,))
        ]
        while stack:
            node, path = stack.pop()
            self._by_path.setdefault(path, []).append(node)
            for child in node.children:
                stack.append((child, path + (child.label,)))

    def nodes_on_path(self, path: tuple[str, ...]) -> list[XMLNode]:
        return self._by_path.get(path, [])

    def distinct_paths(self) -> list[tuple[str, ...]]:
        return list(self._by_path)

    def candidates_for_node(self, pattern_node: PatternNode) -> list[XMLNode]:
        """Nodes whose concrete path matches the pattern node's
        root-to-node step prefix."""
        steps = _root_steps(pattern_node)
        result: list[XMLNode] = []
        for path, nodes in self._by_path.items():
            if match_path_steps(steps, path):
                result.extend(nodes)
        return result

    def universe_for(self, pattern: TreePattern) -> list[XMLNode]:
        universe: dict[int, XMLNode] = {}
        for pattern_node in pattern.iter_nodes():
            for node in self.candidates_for_node(pattern_node):
                universe[id(node)] = node
        return list(universe.values())

    def evaluate(self, pattern: TreePattern) -> set[XMLNode]:
        """Answer ``pattern`` using the full index (the BF baseline)."""
        return matching.evaluate(pattern, self.tree, self.universe_for(pattern))

    @property
    def stored_bytes(self) -> int:
        """Rough footprint: postings plus the path dictionary."""
        postings = sum(len(nodes) for nodes in self._by_path.values())
        path_chars = sum(
            sum(len(label) + 1 for label in path) for path in self._by_path
        )
        return postings * 16 + path_chars

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FullPathIndex paths={len(self._by_path)}>"
