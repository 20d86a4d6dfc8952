"""Holistic join of refined view fragments on extended Dewey codes
(paper Section V; in the spirit of TJFast [22]).

Joining never touches base data: each fragment root's Dewey code yields,
through the FST, its complete root-to-node *label path*, and every
prefix of the code denotes a concrete ancestor.  The join therefore has
everything it needs to verify the query's **upper skeleton** — the query
nodes on the paths from the root to the units' anchors:

* every skeleton node is assigned a concrete code (a prefix of some
  fragment root's code);
* an anchor node is assigned its unit's fragment root;
* a ``/``-edge forces parent/child codes, a ``//``-edge a proper prefix;
* the assigned code's label (FST-derived) must satisfy the query node's
  label test;
* skeleton nodes shared between units must receive the *same* code —
  this is exactly what Example 4.2 of the paper shows is necessary (two
  ``d`` nodes under different ``b`` parents must not join).

The solver is a backtracking CSP over units ordered by anchor depth,
using binary search over each unit's code-sorted fragment list to
enumerate only roots inside the Dewey range of the deepest already
assigned ancestor (:func:`repro.xmltree.dewey.packed_descendant_range`).
All hot-loop comparisons operate on *packed* codes — order-preserving
byte strings (:func:`repro.xmltree.dewey.pack_code`) with per-fragment
precomputed prefix chains — never on int tuples.  Where a path can land
on a root's chain depends only on the path's shape and the chain's label
path (:func:`placements`), so one join places each distinct pair once
and per root only binds the placement to the root's prefix chain.

The public entry point returns, for a designated extraction unit (the
Δ-view), the fragments that participate in at least one full join — the
set the compensating query then extracts answers from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence, TypeVar

from ..xmltree.dewey import (
    DeweyCode,
    PackedCode,
    packed_descendant_range,
)
from ..xmltree.fst import FiniteStateTransducer
from ..xpath.ast import Axis, WILDCARD
from ..xpath.pattern import PatternNode, TreePattern
from .refine import RefinedUnit

__all__ = [
    "anchor_instantiations",
    "instantiate_path",
    "join_units",
    "path_signature",
    "placements",
]

#: A concrete prefix value bound to a skeleton node — a Dewey tuple in
#: the compatibility API, a packed byte string on the hot path.
PrefixT = TypeVar("PrefixT")


#: The part of a query root-to-anchor path that decides where it can be
#: placed on a concrete chain: per node, ``(axis is CHILD, label test)``.
Signature = tuple[tuple[bool, str], ...]

#: One placement of a path: per path node, the 0-based index into the
#: chain's prefixes (``depth - 1``) of the concrete node it lands on.
Slots = tuple[int, ...]


def path_signature(path_nodes: Sequence[PatternNode]) -> Signature:
    """The placement-relevant shape of a query path (see :data:`Signature`)."""
    return tuple((node.axis is Axis.CHILD, node.label) for node in path_nodes)


def placements(
    signature: Signature, labels: tuple[str, ...]
) -> tuple[Slots, ...]:
    """All ways to place a path of shape ``signature`` onto a concrete
    root-to-node chain with label path ``labels``, the last path node on
    the chain's last node.  Pure in its two arguments, so one join
    computes it once per distinct ``(signature, labels)``; depth-first
    order (shallower placements of earlier nodes first)."""
    results: list[Slots] = []
    depth = len(labels)
    count = len(signature)
    if count == 0:
        return ((),) if depth == 0 else ()
    if count > depth:
        return ()
    slots = [0] * count
    last = count - 1

    def place(index: int, position: int) -> None:
        # position = prefix length assigned to path node index - 1.
        child, label = signature[index]
        if index == last:
            # The anchor sits on the chain's last node.
            if (child and position + 1 != depth) or (
                label != WILDCARD and label != labels[depth - 1]
            ):
                return
            slots[index] = depth - 1
            results.append(tuple(slots))
            return
        # Leave one deeper chain node for each remaining path node.
        highest = depth - (last - index)
        if child and position + 1 < highest:
            highest = position + 1
        for candidate in range(position + 1, highest + 1):
            if label != WILDCARD and label != labels[candidate - 1]:
                continue
            slots[index] = candidate - 1
            place(index + 1, candidate)

    place(0, 0)
    return tuple(results)


def _bind(
    keys: Sequence[int],
    slots_list: Sequence[Slots],
    prefixes: Sequence[PrefixT],
    assignment: dict[int, PrefixT],
) -> list[dict[int, PrefixT]]:
    """Turn placements into bindings on one chain: every path node
    already in ``assignment`` must land on the prefix it is fixed to and
    is not re-bound; the others are bound to the prefix they land on."""
    results: list[dict[int, PrefixT]] = []
    for slots in slots_list:
        bound: dict[int, PrefixT] = {}
        for key, slot in zip(keys, slots):
            prefix = prefixes[slot]
            fixed = assignment.get(key)
            if fixed is None:
                bound[key] = prefix
            elif fixed != prefix:
                break
        else:
            results.append(bound)
    return results


def instantiate_path(
    path_nodes: list[PatternNode],
    prefixes: Sequence[PrefixT],
    labels: tuple[str, ...],
    assignment: dict[int, PrefixT],
) -> list[dict[int, PrefixT]]:
    """All ways to place a query root-to-anchor path onto one concrete
    root-to-node chain.

    ``path_nodes`` is the query path (root first, anchor last);
    ``prefixes[k - 1]`` the concrete ancestor at depth ``k`` of the
    chain (for packed codes this is
    :func:`repro.xmltree.dewey.packed_prefixes`, precomputed once per
    fragment instead of sliced per placement) and ``labels`` the chain's
    FST-decoded label path (same length).  ``assignment`` holds already
    fixed skeleton nodes; placements must agree with it.  Returns the
    *new* bindings of each consistent placement (not including prior
    assignments), in :func:`placements` order.
    """
    return _bind(
        [id(node) for node in path_nodes],
        placements(path_signature(path_nodes), labels),
        prefixes,
        assignment,
    )


def anchor_instantiations(
    path_nodes: list[PatternNode],
    code: DeweyCode,
    labels: tuple[str, ...],
    assignment: dict[int, DeweyCode],
) -> list[dict[int, DeweyCode]]:
    """Tuple-code form of :func:`instantiate_path` (assignments bind
    Dewey tuples); the hot join paths pass precomputed packed prefixes
    to :func:`instantiate_path` directly."""
    prefixes = tuple(code[:depth] for depth in range(1, len(code) + 1))
    return instantiate_path(path_nodes, prefixes, labels, assignment)


@dataclass(slots=True)
class _Participant:
    refined: RefinedUnit
    path_nodes: list[PatternNode]
    #: ``id`` of each path node, the binding keys.
    keys: list[int]
    #: Sorted packed fragment root codes (byte order = document order)
    #: with the parallel per-code packed prefix chains.
    codes: list[PackedCode]
    prefixes: list[tuple[PackedCode, ...]]
    #: label path -> :func:`placements` of this path's signature; shared
    #: by every participant of one join with the same signature.
    placed: dict[tuple[str, ...], tuple[Slots, ...]]
    signature: Signature


def _prepare(units: list[RefinedUnit], query: TreePattern) -> list[_Participant]:
    participants = []
    memo: dict[Signature, dict[tuple[str, ...], tuple[Slots, ...]]] = {}
    for refined in units:
        path_nodes = refined.unit.anchor.root_path()
        signature = path_signature(path_nodes)
        codes = [fragment.packed for fragment in refined.fragments]
        prefixes = [fragment.prefixes for fragment in refined.fragments]
        participants.append(
            _Participant(
                refined,
                path_nodes,
                [id(node) for node in path_nodes],
                codes,
                prefixes,
                memo.setdefault(signature, {}),
                signature,
            )
        )
    # Deeper anchors first: they constrain the assignment the most.
    participants.sort(key=lambda p: -len(p.path_nodes))
    return participants


def _placements_of(
    participant: _Participant, labels: tuple[str, ...]
) -> tuple[Slots, ...]:
    found = participant.placed.get(labels)
    if found is None:
        found = placements(participant.signature, labels)
        participant.placed[labels] = found
    return found


def _candidate_indices(
    participant: _Participant, assignment: dict[int, PackedCode]
) -> range:
    """Index range of fragment roots compatible with the deepest
    assigned ancestor (packed byte-range bisection)."""
    codes = participant.codes
    fixed = assignment.get(participant.keys[-1])
    if fixed is not None:
        index = bisect_left(codes, fixed)
        if index < len(codes) and codes[index] == fixed:
            return range(index, index + 1)
        return range(0)
    # Deepest assigned skeleton node on this unit's path bounds the root
    # (longest packed code: on any chain, deeper means more bytes; any
    # assigned ancestor is a sound bound, this one is the tightest).
    bound: PackedCode | None = None
    for key in participant.keys:
        code = assignment.get(key)
        if code is not None and (bound is None or len(code) > len(bound)):
            bound = code
    if bound is None:
        return range(len(codes))
    low, high = packed_descendant_range(bound)
    return range(bisect_left(codes, low), bisect_right(codes, high))


def join_units(
    units: list[RefinedUnit],
    query: TreePattern,
    fst: FiniteStateTransducer,
    extraction_unit: RefinedUnit,
) -> list[PackedCode]:
    """Return the extraction unit's fragment roots that join fully,
    as packed codes in document order.

    Every unit in ``units`` (including the extraction unit) must
    participate; a root of the extraction unit survives when some global
    assignment of the upper skeleton is consistent with one root from
    every other unit.  Path placements are computed once per distinct
    ``(signature, label path)`` of this call and then only bound to
    each root's prefixes.
    """
    participants = _prepare(units, query)
    others = [p for p in participants if p.refined is not extraction_unit]
    target = next(p for p in participants if p.refined is extraction_unit)

    def solve(index: int, assignment: dict[int, PackedCode]) -> bool:
        if index == len(others):
            return True
        participant = others[index]
        for position in _candidate_indices(participant, assignment):
            labels = fst.decode_packed(participant.codes[position])
            for bound in _bind(
                participant.keys,
                _placements_of(participant, labels),
                participant.prefixes[position],
                assignment,
            ):
                assignment.update(bound)
                if solve(index + 1, assignment):
                    for key in bound:
                        del assignment[key]
                    return True
                for key in bound:
                    del assignment[key]
        return False

    surviving: list[PackedCode] = []
    for position, code in enumerate(target.codes):
        labels = fst.decode_packed(code)
        for bound in _bind(
            target.keys,
            _placements_of(target, labels),
            target.prefixes[position],
            {},
        ):
            if solve(0, bound):
                surviving.append(code)
                break
    return surviving
