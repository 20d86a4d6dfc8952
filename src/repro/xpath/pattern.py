"""Tree patterns and path patterns (paper Section II).

A *tree pattern* is an unordered tree whose nodes carry labels over
``L ∪ {*}`` and whose edges carry an axis from ``{/, //}``.  One node is
the *answer node* ``RET(P)``.  Patterns are absolute: the pattern root's
own axis is its edge from the (virtual) document root, so ``/a`` and
``//a`` are distinct patterns.

A *path pattern* is a branchless pattern; it is the unit the VFILTER NFA
operates on and is represented compactly as a tuple of
:class:`~repro.xpath.ast.Step`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..errors import PatternError
from .ast import Axis, AttributeConstraint, Step, WILDCARD

__all__ = ["PatternNode", "TreePattern", "PathPattern"]


class PatternNode:
    """One node of a tree pattern.

    A node is writable only while its pattern is being built.  Wrapping
    the root in a :class:`TreePattern` freezes every node of the tree:
    each becomes a :class:`_FrozenPatternNode`, on which ``add_child``,
    ``new_child`` and every attribute write raise
    :class:`~repro.errors.PatternError`.
    """

    __slots__ = ("label", "axis", "parent", "children", "constraints")

    def __init__(
        self,
        label: str,
        axis: Axis = Axis.CHILD,
        constraints: tuple[AttributeConstraint, ...] = (),
    ):
        if not label:
            raise PatternError("pattern node label must be non-empty")
        self.label = label
        #: Edge from this node's parent (or from the virtual document
        #: root, for the pattern root).
        self.axis = axis
        self.parent: PatternNode | None = None
        self.children: tuple[PatternNode, ...] = ()
        self.constraints = constraints

    # ------------------------------------------------------------------
    def add_child(self, child: "PatternNode") -> "PatternNode":
        if child.parent is not None:
            raise PatternError("pattern node already attached")
        child.parent = self
        self.children = self.children + (child,)
        return child

    def new_child(
        self,
        label: str,
        axis: Axis = Axis.CHILD,
        constraints: tuple[AttributeConstraint, ...] = (),
    ) -> "PatternNode":
        return self.add_child(PatternNode(label, axis, constraints))

    @property
    def is_wildcard(self) -> bool:
        return self.label == WILDCARD

    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["PatternNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def ancestors_or_self(self) -> Iterator["PatternNode"]:
        node: PatternNode | None = self
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_or_self_of(self, other: "PatternNode") -> bool:
        return any(candidate is self for candidate in other.ancestors_or_self())

    def root_path(self) -> list["PatternNode"]:
        """Return the node list from the pattern root down to ``self``."""
        path = list(self.ancestors_or_self())
        path.reverse()
        return path

    def step(self) -> Step:
        """Return this node as a :class:`Step` (axis from its parent)."""
        return Step(self.axis, self.label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PatternNode {self.axis.value}{self.label}>"


class _FrozenPatternNode(PatternNode):
    """A node of a built :class:`TreePattern`: read-only.

    Same slots as :class:`PatternNode`, so freezing is a class switch
    in place, with no copy.  A frozen node cannot gain children, be
    attached under another node, or change a field.
    """

    __slots__ = ()

    def add_child(self, child: PatternNode) -> PatternNode:
        raise PatternError(
            "pattern node is frozen; build a new pattern instead"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise PatternError(
            f"pattern node is frozen; cannot set .{name}"
        )

    def __delattr__(self, name: str) -> None:
        raise PatternError(
            f"pattern node is frozen; cannot delete .{name}"
        )


def _freeze(node: PatternNode, ret: PatternNode) -> str:
    """Freeze ``node``'s subtree and return its canonical string.

    Children are sorted by their canonical strings, so the form is
    insensitive to sibling order; the answer node is marked ``!``.
    """
    children = sorted(_freeze(child, ret) for child in node.children)
    if type(node) is PatternNode:
        node.__class__ = _FrozenPatternNode
    marker = "!" if node is ret else ""
    constraints = ",".join(sorted(str(c) for c in node.constraints))
    return (
        f"{node.axis.value}{node.label}{marker}"
        f"[{constraints}]({';'.join(children)})"
    )


class TreePattern:
    """A tree pattern with a designated answer node.

    Immutable: the constructor freezes every node of the tree and
    computes the canonical string once, so a built pattern can be
    shared by any number of callers and threads (the parse cache hands
    out one instance per expression).  Code that needs a different
    pattern builds a new one (:meth:`subtree_at`, :meth:`without`).
    """

    __slots__ = ("root", "ret", "_canonical")

    root: PatternNode
    ret: PatternNode
    _canonical: str

    def __init__(self, root: PatternNode, ret: PatternNode) -> None:
        if root.parent is not None:
            raise PatternError("pattern root must not have a parent")
        if not root.is_ancestor_or_self_of(ret):
            raise PatternError("answer node must belong to the pattern")
        canonical = _freeze(root, ret)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "ret", ret)
        object.__setattr__(self, "_canonical", canonical)

    def __setattr__(self, name: str, value: object) -> None:
        raise PatternError(f"tree patterns are immutable; cannot set .{name}")

    def __delattr__(self, name: str) -> None:
        raise PatternError(
            f"tree patterns are immutable; cannot delete .{name}"
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[PatternNode]:
        return self.root.iter_subtree()

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def leaves(self) -> list[PatternNode]:
        """Return ``LEAF(P)``: all leaf nodes, in deterministic order."""
        return [node for node in self.iter_nodes() if node.is_leaf()]

    def is_path(self) -> bool:
        """True when the pattern has no branches."""
        return all(len(node.children) <= 1 for node in self.iter_nodes())

    def depth(self) -> int:
        """Return the maximum number of steps on a root-to-leaf path."""
        best = 0
        stack = [(self.root, 1)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return best

    def has_wildcard(self) -> bool:
        return any(node.is_wildcard for node in self.iter_nodes())

    def has_descendant_axis(self) -> bool:
        return any(node.axis.is_descendant for node in self.iter_nodes())

    # ------------------------------------------------------------------
    # derived patterns
    # ------------------------------------------------------------------
    @staticmethod
    def _copy_subtree(
        node: PatternNode,
        mapping: dict[int, PatternNode],
        axis: Axis,
        skip: frozenset[int] = frozenset(),
    ) -> PatternNode:
        """Unfrozen copy of ``node``'s subtree with ``axis`` on its
        root, leaving out every subtree whose root's id is in
        ``skip``; ``mapping`` receives original id → copy."""
        clone_root = PatternNode(node.label, axis, node.constraints)
        mapping[id(node)] = clone_root
        stack = [(node, clone_root)]
        while stack:
            original, clone = stack.pop()
            for child in original.children:
                if id(child) in skip:
                    continue
                child_clone = clone.new_child(
                    child.label, child.axis, child.constraints
                )
                mapping[id(child)] = child_clone
                stack.append((child, child_clone))
        return clone_root

    def subtree_at(self, node: PatternNode, ret: PatternNode | None = None) -> "TreePattern":
        """Return a copy of the subtree rooted at ``node`` as a pattern.

        The copy's root axis is reset to ``CHILD`` relative to a virtual
        anchor (the fragment root during rewriting).  When ``ret`` (a
        node inside the subtree) is given it becomes the answer node of
        the copy; otherwise the copy's root is the answer node.
        """
        if ret is not None and not node.is_ancestor_or_self_of(ret):
            raise PatternError("ret must lie inside the subtree")
        mapping: dict[int, PatternNode] = {}
        clone_root = self._copy_subtree(node, mapping, Axis.CHILD)
        clone_ret = mapping[id(ret)] if ret is not None else clone_root
        return TreePattern(clone_root, clone_ret)

    def without(self, branches: Iterable[PatternNode]) -> "TreePattern":
        """Return a new pattern equal to this one minus the subtrees
        rooted at ``branches``, which must not hold the answer node."""
        skip = frozenset(id(node) for node in branches)
        if any(id(node) in skip for node in self.ret.ancestors_or_self()):
            raise PatternError("cannot remove the answer node's branch")
        mapping: dict[int, PatternNode] = {}
        clone_root = self._copy_subtree(
            self.root, mapping, self.root.axis, skip
        )
        return TreePattern(clone_root, mapping[id(self.ret)])

    # ------------------------------------------------------------------
    # presentation / equality
    # ------------------------------------------------------------------
    def to_xpath(self, mark_answer: bool = False) -> str:
        """Render back to XPath syntax.

        The answer node is always the tail of the main spine; branches
        render as predicates.  With ``mark_answer`` the answer node label
        is wrapped in ``{...}`` (useful in logs when the answer node is
        not a leaf).
        """
        spine = self.ret.root_path()
        on_spine = {id(node) for node in spine}

        def render_branch(node: PatternNode) -> str:
            # Relative rendering of a predicate subtree: a descendant
            # branch leads with './/', a child branch with nothing.
            lead = ".//" if node.axis.is_descendant else ""
            return f"{lead}{render_node(node, node.children)}"

        def render_node(
            node: PatternNode, branches: Sequence[PatternNode]
        ) -> str:
            label = node.label
            if mark_answer and node is self.ret:
                label = "{" + label + "}"
            predicates = "".join(f"[{constraint}]" for constraint in node.constraints)
            rendered = "".join(f"[{render_branch(child)}]" for child in branches)
            return f"{label}{predicates}{rendered}"

        parts = []
        for node in spine:
            branches = [
                child for child in node.children if id(child) not in on_spine
            ]
            parts.append(f"{node.axis.value}{render_node(node, branches)}")
        return "".join(parts)

    def canonical_string(self) -> str:
        """Order-insensitive canonical form; equal iff patterns identical.

        The answer node is marked, so two patterns differing only in
        their answer node are distinguished.  Computed once, when the
        pattern is built.
        """
        return self._canonical

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePattern):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TreePattern({self.to_xpath()!r})"

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_path_pattern(self) -> "PathPattern":
        """Convert a branchless pattern to a :class:`PathPattern`."""
        if not self.is_path():
            raise PatternError("pattern has branches; decompose it first")
        steps: list[Step] = []
        node: PatternNode | None = self.root
        while node is not None:
            steps.append(node.step())
            node = node.children[0] if node.children else None
        return PathPattern(tuple(steps))


class PathPattern:
    """A branchless absolute pattern: a sequence of steps.

    Path patterns are hashable value objects; the VFILTER NFA, the
    decomposition ``D(Q)`` and normalization ``N(P)`` all operate on
    them.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[Step, ...]) -> None:
        if not steps:
            raise PatternError("path pattern must have at least one step")
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Step:
        return self.steps[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathPattern):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PathPattern({self.to_xpath()!r})"

    def to_xpath(self) -> str:
        return "".join(str(step) for step in self.steps)

    @property
    def length(self) -> int:
        """Number of labels — the ``l`` stored in ``LIST(P_i)`` entries."""
        return len(self.steps)

    def leaf_label(self) -> str:
        return self.steps[-1].label

    def to_tree_pattern(self) -> TreePattern:
        """Expand into a linear :class:`TreePattern` (answer = leaf)."""
        root = PatternNode(self.steps[0].label, self.steps[0].axis)
        node = root
        for step in self.steps[1:]:
            node = node.new_child(step.label, step.axis)
        return TreePattern(root, node)
