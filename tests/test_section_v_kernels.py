"""Differential tests for the Section V kernels.

* Path placement (:mod:`repro.core.twig_join`): the placements one join
  computes once per ``(signature, label path)`` and binds per fragment
  equal a brute-force enumeration of every depth assignment, in the
  same order.
* Refinement (:func:`repro.matching.evaluate.satisfies_relative`): the
  root-hosting test equals ``bool(evaluate_relative(...))``.
* Evaluation with ``*`` nodes (seeded from the whole universe without
  per-node tests) equals an explicit embedding enumerator that tests
  every node.
"""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.core.twig_join import (
    anchor_instantiations,
    instantiate_path,
    path_signature,
    placements,
)
from repro.matching.evaluate import (
    SubtreeIndex,
    evaluate,
    evaluate_relative,
    satisfies_relative,
)
from repro.xmltree.tree import XMLTree
from repro.xpath.ast import AttributeConstraint, Axis
from repro.xpath.pattern import PatternNode, TreePattern

from conftest import LABELS, brute_force_answers, random_tree

CHAIN_LABELS = ["a", "b", "c"]

steps = st.tuples(
    st.sampled_from([Axis.CHILD, Axis.DESCENDANT]),
    st.sampled_from(CHAIN_LABELS + ["*"]),
)


def _path(spec):
    """Root-to-anchor pattern nodes of the path ``spec`` (frozen)."""
    (axis, label), *rest = spec
    root = node = PatternNode(label, axis)
    for axis, label in rest:
        node = node.new_child(label, axis)
    return TreePattern(root, node).ret.root_path()


def _brute_force(path_nodes, prefixes, labels, assignment):
    """Every strictly increasing depth assignment, lexicographic order,
    filtered by axes, labels and the fixed nodes."""
    depth = len(labels)
    results = []
    for depths in combinations(range(1, depth + 1), len(path_nodes)):
        if depths and depths[-1] != depth:
            continue
        previous = 0
        bound = {}
        for node, level in zip(path_nodes, depths):
            if node.axis is Axis.CHILD and level != previous + 1:
                break
            if node.label != "*" and node.label != labels[level - 1]:
                break
            fixed = assignment.get(id(node))
            if fixed is None:
                bound[id(node)] = prefixes[level - 1]
            elif fixed != prefixes[level - 1]:
                break
            previous = level
        else:
            results.append(bound)
    return results


@settings(max_examples=300, deadline=None)
@given(
    spec=st.lists(steps, min_size=1, max_size=5),
    labels=st.lists(st.sampled_from(CHAIN_LABELS), min_size=1, max_size=7),
    fixes=st.lists(st.integers(-1, 7), max_size=5),
)
def test_placements_equal_brute_force_in_order(spec, labels, fixes):
    path_nodes = _path(spec)
    labels = tuple(labels)
    code = tuple(range(len(labels)))
    prefixes = tuple(code[:depth] for depth in range(1, len(code) + 1))
    # A partial assignment: per path node, no fix, a prefix of this
    # chain (which placements may or may not agree with), or a code off
    # the chain (which no placement can agree with).
    assignment = {}
    for node, fix in zip(path_nodes, fixes):
        if fix == -1:
            assignment[id(node)] = (99,)
        elif fix < len(prefixes):
            assignment[id(node)] = prefixes[fix]
    expected = _brute_force(path_nodes, prefixes, labels, assignment)
    assert instantiate_path(path_nodes, prefixes, labels, assignment) == expected
    assert anchor_instantiations(path_nodes, code, labels, assignment) == expected
    # The memoisable part is the unbound placement set.
    slots = placements(path_signature(path_nodes), labels)
    unbound = _brute_force(path_nodes, prefixes, labels, {})
    assert [
        {id(node): prefixes[slot] for node, slot in zip(path_nodes, each)}
        for each in slots
    ] == unbound


def _random_constraints(rng: random.Random):
    roll = rng.random()
    if roll < 0.6:
        return ()
    if roll < 0.8:
        return (AttributeConstraint("k"),)
    return (AttributeConstraint("k", "=", rng.choice("12")),)


def _random_pattern(rng: random.Random, max_nodes: int = 5) -> TreePattern:
    """Random pattern, wildcard-heavy, some nodes with attribute tests."""
    alphabet = LABELS[:3] + ["*", "*"]
    axes = [Axis.CHILD, Axis.DESCENDANT]
    root = PatternNode(
        rng.choice(alphabet), rng.choice(axes), _random_constraints(rng)
    )
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        nodes.append(
            parent.new_child(
                rng.choice(alphabet), rng.choice(axes), _random_constraints(rng)
            )
        )
    return TreePattern(root, rng.choice(nodes))


def _random_attributed_tree(rng: random.Random) -> XMLTree:
    tree = random_tree(rng, max_nodes=25, max_depth=5)
    for node in tree.iter_nodes():
        if rng.random() < 0.4:
            node.attributes = {"k": rng.choice("12")}
    return tree


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_satisfies_relative_equals_nonempty_evaluation(seed):
    rng = random.Random(seed)
    tree = _random_attributed_tree(rng)
    pattern = _random_pattern(rng)
    for anchor in tree.iter_nodes():
        expected = bool(evaluate_relative(pattern, anchor))
        assert satisfies_relative(pattern, anchor) == expected
        index = SubtreeIndex(anchor)
        assert satisfies_relative(pattern, anchor, index) == expected
        assert bool(evaluate_relative(pattern, anchor, index)) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_wildcard_evaluation_equals_per_node_enumeration(seed):
    rng = random.Random(seed)
    tree = _random_attributed_tree(rng)
    pattern = _random_pattern(rng)
    assert evaluate(pattern, tree) == brute_force_answers(pattern, tree)
    # Anchored at the root: a relative evaluation is an absolute one
    # whose pattern root must host the subtree root.
    anchor = tree.root
    relative = evaluate_relative(pattern, anchor, SubtreeIndex(anchor))
    rooted = PatternNode(pattern.root.label, Axis.CHILD, pattern.root.constraints)
    mapping = {id(pattern.root): rooted}
    for node in pattern.iter_nodes():
        for child in node.children:
            mapping[id(child)] = mapping[id(node)].new_child(
                child.label, child.axis, child.constraints
            )
    absolute = TreePattern(rooted, mapping[id(pattern.ret)])
    assert relative == brute_force_answers(absolute, tree)
