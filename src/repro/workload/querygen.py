"""YFilter-style XPath query generator (paper Section VI).

The paper generates workloads with the YFilter query generator,
parameterized by ``max_depth``, the probabilities of wildcards
(``prob_wild``) and descendant edges (``prob_desc``), the number of
predicates (``num_pred``) and of nested paths (``num_nestedpath``).
This module reproduces that surface:

* the main path is a schema-guided random walk (so generated queries are
  structurally plausible for the document);
* each step independently becomes ``//`` with ``prob_desc`` and ``*``
  with ``prob_wild``;
* ``num_pred`` attribute predicates and ``num_nestedpath`` nested-path
  branches are attached at random steps;
* :func:`generate_positive` post-filters to non-empty-result queries,
  as the paper does ("we wrote a program to find positive queries").

All randomness flows through one :class:`random.Random` instance, so
workloads are reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..matching.evaluate import evaluate
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLTree
from ..xpath.ast import Axis, AttributeConstraint, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern

__all__ = ["QueryGenConfig", "QueryGenerator", "generate_positive"]


@dataclass(frozen=True, slots=True)
class QueryGenConfig:
    """Generator knobs, named after the paper's parameters."""

    max_depth: int = 4
    prob_wild: float = 0.2
    prob_desc: float = 0.2
    num_pred: int = 1
    num_nestedpath: int = 1
    nested_depth: int = 2
    #: attribute names eligible for predicates, with example values
    attributes: tuple[str, ...] = ()


class QueryGenerator:
    """Schema-guided random tree-pattern generator."""

    def __init__(
        self,
        schema: DocumentSchema,
        config: QueryGenConfig | None = None,
        seed: int = 0,
    ):
        self.schema = schema
        self.config = config or QueryGenConfig()
        self.rng = random.Random(seed)
        self._descendants = self._descendant_closure()

    def _descendant_closure(self) -> dict[str, tuple[str, ...]]:
        """label → all labels reachable strictly below it."""
        closure: dict[str, set[str]] = {}

        def reach(label: str, seen: set[str]) -> set[str]:
            if label in closure:
                return closure[label]
            if label in seen:
                return set()
            seen.add(label)
            try:
                children = self.schema.child_labels(label)
            except Exception:
                children = ()
            result: set[str] = set()
            for child in children:
                result.add(child)
                result |= reach(child, seen)
            closure[label] = result
            return result

        # ``reach`` memoises partial results inside label cycles, so the
        # closure depends on the start order: iterate in sorted order,
        # not in the hash-seeded order of the frozenset.
        for label in sorted(self.schema.labels()):
            reach(label, set())
        return {label: tuple(sorted(labels)) for label, labels in closure.items()}

    # ------------------------------------------------------------------
    def _next_label(self, current: str, axis: Axis) -> str | None:
        """Pick a plausible next label below ``current`` for ``axis``."""
        if axis is Axis.CHILD:
            try:
                options = self.schema.child_labels(current)
            except Exception:
                options = ()
        else:
            options = self._descendants.get(current, ())
        if not options:
            return None
        return self.rng.choice(options)

    def _random_axis(self) -> Axis:
        return (
            Axis.DESCENDANT
            if self.rng.random() < self.config.prob_desc
            else Axis.CHILD
        )

    def _maybe_wild(self, label: str) -> str:
        return WILDCARD if self.rng.random() < self.config.prob_wild else label

    def _grow_chain(
        self, start: PatternNode, start_label: str, depth: int
    ) -> None:
        """Append a random chain of up to ``depth`` steps below ``start``."""
        node, concrete = start, start_label
        for _ in range(depth):
            axis = self._random_axis()
            label = self._next_label(concrete, axis)
            if label is None:
                break
            node = node.new_child(self._maybe_wild(label), axis)
            concrete = label

    def generate(self) -> TreePattern:
        """Generate one tree pattern."""
        config = self.config
        # Main path: start at the root or (with prob_desc) anywhere.
        if self.rng.random() < config.prob_desc:
            start_label = self.rng.choice(sorted(self.schema.labels()))
            root = PatternNode(self._maybe_wild(start_label), Axis.DESCENDANT)
        else:
            start_label = self.schema.root_label
            root = PatternNode(self._maybe_wild(start_label), Axis.CHILD)

        spine: list[tuple[PatternNode, str]] = [(root, start_label)]
        node, concrete = root, start_label
        depth = self.rng.randint(1, max(1, config.max_depth - 1))
        for _ in range(depth):
            axis = self._random_axis()
            label = self._next_label(concrete, axis)
            if label is None:
                break
            node = node.new_child(self._maybe_wild(label), axis)
            concrete = label
            spine.append((node, concrete))

        # Nested paths (branch predicates).
        for _ in range(config.num_nestedpath):
            host, host_label = self.rng.choice(spine)
            self._grow_chain(
                host, host_label, self.rng.randint(1, config.nested_depth)
            )

        # Attribute predicates.
        if config.attributes:
            for _ in range(config.num_pred):
                host, _host_label = self.rng.choice(spine)
                name = self.rng.choice(config.attributes)
                # The pattern under construction is private to this
                # generator; it is never interned before being returned.
                host.constraints = host.constraints + (  # xmvrlint: disable=L2
                    AttributeConstraint(name),
                )

        ret = spine[-1][0]
        return TreePattern(root, ret)

    def generate_many(self, count: int) -> list[TreePattern]:
        return [self.generate() for _ in range(count)]


def generate_positive(
    generator: QueryGenerator,
    tree: XMLTree,
    count: int,
    max_attempts_factor: int = 50,
) -> list[TreePattern]:
    """Generate ``count`` *positive* queries (non-empty result on
    ``tree``), the paper's workload post-filter.

    Raises ``RuntimeError`` if the attempt budget is exhausted — a sign
    the generator configuration does not fit the document.
    """
    accepted: list[TreePattern] = []
    attempts = 0
    budget = count * max_attempts_factor
    while len(accepted) < count:
        attempts += 1
        if attempts > budget:
            raise RuntimeError(
                f"could not find {count} positive queries in {budget} attempts"
            )
        pattern = generator.generate()
        if evaluate(pattern, tree):
            accepted.append(pattern)
    return accepted
