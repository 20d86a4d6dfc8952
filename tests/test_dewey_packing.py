"""Property tests: packed Dewey byte order ≡ tuple-code semantics.

The packed form (``repro.xmltree.dewey.pack_code``) is only allowed to
exist because three equivalences hold for *arbitrary* codes:

1. lexicographic ``bytes`` order equals ``compare_codes`` document
   order (what every hot-loop sort and merge relies on);
2. byte-prefix equals tuple-prefix (ancestry tests, including the
   ancestor/descendant edge cases where one code prefixes another);
3. the packed descendant range brackets exactly the codes that
   ``descendant_range_key`` / ``is_prefix`` bracket.

Violating any of these would silently reorder answers or corrupt range
scans, so they are pinned here with Hypothesis.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.system import MaterializedViewSystem
from repro.delta import DocumentEditor
from repro.errors import EncodingError
from repro.xmltree import XMLNode, encode_tree
from repro.xmltree.dewey import (
    compare_codes,
    descendant_range_key,
    is_prefix,
    pack_code,
    pack_component,
    packed_depth,
    packed_descendant_range,
    packed_is_prefix,
    packed_prefixes,
    unpack_code,
)

from conftest import LABELS, random_tree, xmark_twin

# Components straddle every packing regime: single-byte (< 0x80),
# multi-byte headers, and byte-boundary neighbours.
component = st.one_of(
    st.integers(0, 0x7F),
    st.sampled_from([0x7F, 0x80, 0x81, 0xFF, 0x100, 0xFFFF, 0x10000]),
    st.integers(0, 2**40),
)
code = st.lists(component, min_size=1, max_size=8).map(tuple)
maybe_empty_code = st.lists(component, max_size=8).map(tuple)


@settings(max_examples=400, deadline=None)
@given(maybe_empty_code)
def test_roundtrip_and_depth(c):
    packed = pack_code(c)
    assert unpack_code(packed) == c
    assert packed_depth(packed) == len(c)
    assert packed == b"".join(pack_component(x) for x in c)


@settings(max_examples=400, deadline=None)
@given(code, code)
def test_byte_order_equals_document_order(a, b):
    cmp = compare_codes(a, b)
    pa, pb = pack_code(a), pack_code(b)
    if cmp < 0:
        assert pa < pb
    elif cmp > 0:
        assert pa > pb
    else:
        assert pa == pb


@settings(max_examples=400, deadline=None)
@given(code, code)
def test_prefix_equivalence(a, b):
    # byte-prefix ⇔ tuple-prefix, in both directions (covers the
    # ancestor/descendant edge case where a strictly prefixes b).
    assert packed_is_prefix(pack_code(a), pack_code(b)) == is_prefix(a, b)
    assert packed_is_prefix(pack_code(b), pack_code(a)) == is_prefix(b, a)


@settings(max_examples=400, deadline=None)
@given(code, code)
def test_descendant_range_equivalence(a, b):
    """``low <= packed(b) < high`` exactly when ``b`` is ``a`` or a
    descendant of ``a`` — the same set ``descendant_range_key`` brackets
    on tuples (both equal prefix-ness, the ground truth)."""
    low, high = packed_descendant_range(pack_code(a))
    in_packed_range = low <= pack_code(b) < high
    tuple_low, tuple_high = descendant_range_key(a)
    in_tuple_range = tuple_low <= b < tuple_high
    assert in_packed_range == is_prefix(a, b)
    assert in_tuple_range == in_packed_range


@settings(max_examples=400, deadline=None)
@given(code)
def test_prefixes_enumerate_ancestors(c):
    packed = pack_code(c)
    prefixes = packed_prefixes(packed)
    assert len(prefixes) == len(c)
    for depth, prefix in enumerate(prefixes, start=1):
        assert prefix == pack_code(c[:depth])
    assert prefixes[-1] == packed


@settings(max_examples=200, deadline=None)
@given(code, st.integers(0, 2**40))
def test_sorted_streams_agree(c, extra):
    """Sorting by packed bytes equals sorting by compare_codes order
    for a whole stream (the merge-join invariant)."""
    family = [c, c + (extra,), c[:-1] + (extra,), (extra,) + c, c + c]
    family = [f for f in family if f]
    by_packed = sorted(family, key=pack_code)
    # insertion sort by compare_codes as ground truth
    by_cmp = []
    for item in family:
        pos = 0
        while pos < len(by_cmp) and compare_codes(by_cmp[pos], item) < 0:
            pos += 1
        by_cmp.insert(pos, item)
    assert by_packed == by_cmp


def test_negative_component_rejected():
    try:
        pack_code((1, -2))
    except EncodingError:
        pass
    else:  # pragma: no cover - failure branch
        raise AssertionError("negative component must not pack")


def test_truncated_bytes_rejected():
    packed = pack_code((0x80,))
    try:
        unpack_code(packed[:-1])
    except EncodingError:
        pass
    else:  # pragma: no cover - failure branch
        raise AssertionError("truncated packing must not decode")


def test_empty_code_descendant_range_rejected():
    try:
        packed_descendant_range(b"")
    except EncodingError:
        pass
    else:  # pragma: no cover - failure branch
        raise AssertionError("empty prefix has no descendant range")


def _assert_lockstep(tree) -> int:
    checked = 0
    for node in tree.iter_nodes():
        assert node.dewey is not None and node.dewey_packed is not None
        assert node.dewey_packed == pack_code(node.dewey), node.dewey
        checked += 1
    return checked


def test_encoded_xmark_document_packs_every_code_in_lockstep():
    assert _assert_lockstep(xmark_twin().document.tree) > 500


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_delta_encoded_inserts_pack_codes_in_lockstep(seed):
    # Inserts on the delta path assign codes outside encode_tree; the
    # packed key must still track the tuple code on every node.
    rng = random.Random(seed)
    system = MaterializedViewSystem(encode_tree(random_tree(rng, max_nodes=20)))
    editor = DocumentEditor(system)
    for _ in range(4):
        parent = rng.choice(list(system.document.tree.iter_nodes()))
        child = XMLNode(rng.choice(LABELS))
        child.new_child(rng.choice(LABELS))
        editor.insert_subtree(parent.dewey, child)
        _assert_lockstep(system.document.tree)
