"""Tree-pattern minimization (paper Section II, reference [24]).

The paper assumes all patterns are minimized; minimization "may impact
the efficiency but not the effectiveness" of the approach.  The
implemented procedure removes *redundant branches*: a child subtree
``c1`` of node ``n`` is redundant when a sibling subtree ``c2`` implies
it — i.e. there is an anchored homomorphism from ``c1`` into ``c2``
(same host ``n``).  Subtrees containing the answer node are never
removed.  The procedure iterates to a fixpoint bottom-up, which yields
the unique minimal pattern for ``XP{/, //, []}``; with wildcards it is a
sound reducer (never changes semantics) though not guaranteed minimum,
matching standard practice.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..xpath.ast import Axis
from ..xpath.pattern import PatternNode, TreePattern
from .homomorphism import node_subsumes

__all__ = ["minimize"]

#: Live children of a node while branches are being dropped.
_ChildrenOf = Callable[[PatternNode], Sequence[PatternNode]]


def _subtree_absorbs(
    absorber: PatternNode, absorbed: PatternNode, children_of: _ChildrenOf
) -> bool:
    """True when ``absorbed``'s subtree (with its incoming edge) maps
    into ``absorber``'s subtree hanging off the same host node.

    Mapping rules match homomorphisms: the absorbed branch is the more
    general side, so its presence is implied by the absorber's.
    Subtrees are read through ``children_of``, so branches already
    dropped are invisible.
    """

    def maps_to(general: PatternNode, specific: PatternNode) -> bool:
        if not node_subsumes(general, specific):
            return False
        return all(
            _placeable(child, specific) for child in children_of(general)
        )

    def strict_descendants(host: PatternNode) -> Iterator[PatternNode]:
        stack = list(children_of(host))
        while stack:
            candidate = stack.pop()
            yield candidate
            stack.extend(children_of(candidate))

    def _placeable(child: PatternNode, host: PatternNode) -> bool:
        if child.axis is Axis.CHILD:
            return any(
                candidate.axis is Axis.CHILD and maps_to(child, candidate)
                for candidate in children_of(host)
            )
        return any(
            maps_to(child, candidate)
            for candidate in strict_descendants(host)
        )

    # Edge admissibility at the top: a /-branch is implied only by a
    # /-branch; a //-branch is implied by a branch reachable at any depth.
    if absorbed.axis is Axis.CHILD:
        return absorber.axis is Axis.CHILD and maps_to(absorbed, absorber)
    if maps_to(absorbed, absorber):
        return True
    return any(
        maps_to(absorbed, candidate)
        for candidate in strict_descendants(absorber)
    )


def minimize(pattern: TreePattern) -> TreePattern:
    """Return the minimized pattern; the input is left as it is.

    Removes every branch implied by a sibling branch, repeatedly, never
    touching the spine to the answer node.  Returns ``pattern`` itself
    when no branch is redundant, else one new pattern without the
    dropped branches.
    """
    protected = {id(node) for node in pattern.ret.ancestors_or_self()}
    dropped: list[PatternNode] = []  # PatternNode compares by identity

    def children_of(node: PatternNode) -> list[PatternNode]:
        return [child for child in node.children if child not in dropped]

    def live_nodes() -> Iterator[PatternNode]:
        stack = [pattern.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(children_of(node)))

    changed = True
    while changed:
        changed = False
        for node in list(live_nodes()):
            children = children_of(node)
            if len(children) < 2:
                continue
            for candidate in children:
                if id(candidate) in protected:
                    continue
                others = [child for child in children if child is not candidate]
                if any(
                    _subtree_absorbs(other, candidate, children_of)
                    for other in others
                ):
                    dropped.append(candidate)
                    changed = True
                    break
            if changed:
                break
    return pattern.without(dropped) if dropped else pattern
