"""Extended Dewey codes (paper Section II, after Lu et al. [22]).

An extended Dewey code is a tuple of integers, one per edge on the
root-to-node path (the root itself carries the single component ``0``).
Unlike plain Dewey codes, the numbers are chosen so that each component's
residue modulo the parent's fanout identifies the child's *label*; the
full root-to-node label path can therefore be recovered from the code
alone via the finite state transducer (:mod:`repro.xmltree.fst`) without
touching the document — the property the rewriting engine relies on.

Assignment rule (deterministic): children of a node labeled ``t`` with
fanout ``k`` receive strictly increasing numbers; a child labeled ``c``
with residue ``i = position(t, c)`` receives the smallest integer greater
than its previous sibling's number (or ≥ 0 for the first child) congruent
to ``i`` modulo ``k``.  This reproduces the paper's Figure 2 exactly
(e.g. siblings ``t,a,a,s,s`` under ``book`` with child order ``t,a,s``
receive ``0,1,4,5,8``).
"""

from __future__ import annotations

from ..errors import EncodingError
from .schema import DocumentSchema

__all__ = [
    "DeweyCode",
    "PackedCode",
    "assign_child_component",
    "format_code",
    "parse_code",
    "is_prefix",
    "is_ancestor",
    "is_ancestor_or_self",
    "common_prefix",
    "compare_codes",
    "descendant_range_key",
    "pack_code",
    "pack_component",
    "unpack_code",
    "packed_depth",
    "packed_prefixes",
    "packed_is_prefix",
    "packed_descendant_range",
]

# A Dewey code is a plain tuple of ints; the alias documents intent.
DeweyCode = tuple[int, ...]

# A packed code is an order-preserving byte string (see pack_code); the
# alias marks values that must only ever be produced by pack_code.
PackedCode = bytes


def assign_child_component(
    schema: DocumentSchema,
    parent_label: str,
    child_label: str,
    previous_component: int | None,
) -> int:
    """Return the Dewey component for the next child.

    Parameters
    ----------
    schema:
        The document schema providing fanout and label positions.
    parent_label:
        Label of the parent node.
    child_label:
        Label of the child being encoded.
    previous_component:
        The component assigned to the preceding sibling, or ``None`` for
        the first child.
    """
    fanout = schema.fanout(parent_label)
    residue = schema.child_position(parent_label, child_label)
    floor = 0 if previous_component is None else previous_component + 1
    # Smallest value >= floor congruent to residue (mod fanout).
    offset = (residue - floor) % fanout
    return floor + offset


def format_code(code: DeweyCode) -> str:
    """Render a code as the dotted form used in the paper, e.g. ``0.8.6``."""
    return ".".join(map(str, code))


def parse_code(text: str) -> DeweyCode:
    """Parse the dotted form back into a code tuple."""
    if not text:
        raise EncodingError("empty Dewey code string")
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError as exc:
        raise EncodingError(f"bad Dewey code {text!r}") from exc


def is_prefix(prefix: DeweyCode, code: DeweyCode) -> bool:
    """Return True when ``prefix`` is a (non-strict) prefix of ``code``."""
    return len(prefix) <= len(code) and code[: len(prefix)] == prefix


def is_ancestor(ancestor: DeweyCode, descendant: DeweyCode) -> bool:
    """Return True when ``ancestor`` encodes a proper ancestor."""
    return len(ancestor) < len(descendant) and is_prefix(ancestor, descendant)


def is_ancestor_or_self(ancestor: DeweyCode, descendant: DeweyCode) -> bool:
    """Return True for ancestor-or-self (prefix) relationships."""
    return is_prefix(ancestor, descendant)


def is_parent(parent: DeweyCode, child: DeweyCode) -> bool:
    """Return True when ``parent`` encodes the direct parent of ``child``."""
    return len(parent) + 1 == len(child) and is_prefix(parent, child)


def common_prefix(first: DeweyCode, second: DeweyCode) -> DeweyCode:
    """Return the longest common prefix — the lowest common ancestor.

    The paper uses exactly this: two nodes' LCA is the node encoded by
    their codes' common prefix (e.g. ``0.8.6.0`` and ``0.8.6.1`` share
    ``0.8.6``).
    """
    limit = min(len(first), len(second))
    split = 0
    while split < limit and first[split] == second[split]:
        split += 1
    return first[:split]


def compare_codes(first: DeweyCode, second: DeweyCode) -> int:
    """Total order on codes: document order with ancestors first.

    Returns -1, 0 or 1.  Plain tuple comparison already realizes this
    order (a prefix sorts before its extensions); the function exists to
    make call sites explicit.
    """
    if first == second:
        return 0
    return -1 if first < second else 1


def descendant_range_key(prefix: DeweyCode) -> tuple[DeweyCode, DeweyCode]:
    """Return ``(low, high)`` such that every descendant-or-self code ``c``
    of ``prefix`` satisfies ``low <= c < high`` under tuple order.

    Used by the holistic join to binary-search a sorted code list for the
    descendants of a fragment root.
    """
    if not prefix:
        raise EncodingError("cannot build a range for the empty code")
    high = prefix[:-1] + (prefix[-1] + 1,)
    return prefix, high


# ----------------------------------------------------------------------
# Packed codes: order-preserving byte strings
# ----------------------------------------------------------------------
#
# ``pack_code`` maps a code tuple to a byte string whose lexicographic
# order equals tuple order (document order with ancestors first), so hot
# loops — twig-join merges, leaf-stream scans, document-order sorts —
# compare flat ``bytes`` instead of walking per-element int tuples.
#
# Each component is encoded prefix-free and order-preserving:
#
# * ``0 <= n < 0x80`` — the single byte ``n``;
# * larger ``n`` — a header byte ``0x7F + k`` followed by the minimal
#   ``k``-byte big-endian payload (no leading zero byte).
#
# Order holds component-wise: small values sort below every large
# encoding (first byte ``< 0x80``); among large encodings a longer
# minimal payload means a larger value and a larger header, and equal
# lengths compare big-endian.  Prefix-freeness means concatenations
# align at component boundaries, so byte comparison of whole codes
# realizes tuple comparison, and a byte prefix is exactly a tuple
# prefix.  Headers never reach ``0xFF`` (payloads are capped at 0x7F
# bytes), which ``packed_descendant_range`` relies on.

#: Largest component encodable in a single byte.
_PACK_SMALL = 0x80


def pack_code(code: DeweyCode) -> PackedCode:
    """Pack ``code`` into bytes; lexicographic byte order equals
    :func:`compare_codes` order and byte prefixes equal tuple prefixes."""
    parts = bytearray()
    for component in code:
        if 0 <= component < _PACK_SMALL:
            parts.append(component)
        elif component < 0:
            raise EncodingError(
                f"cannot pack negative Dewey component {component}"
            )
        else:
            payload = component.to_bytes(
                (component.bit_length() + 7) // 8, "big"
            )
            if len(payload) > 0x7F:
                raise EncodingError(
                    f"Dewey component {component} too large to pack"
                )
            parts.append(0x7F + len(payload))
            parts += payload
    return bytes(parts)


def pack_component(component: int) -> PackedCode:
    """Encoding of a single component; ``pack_code(p + (c,)) ==
    pack_code(p) + pack_component(c)``, the incremental form used when
    stamping children during encoding and maintenance."""
    return pack_code((component,))


def _component_width(packed: PackedCode, offset: int) -> int:
    """Total encoded width (header + payload) at ``offset``."""
    first = packed[offset]
    return 1 if first < _PACK_SMALL else 1 + (first - 0x7F)


def unpack_code(packed: PackedCode) -> DeweyCode:
    """Invert :func:`pack_code`."""
    components: list[int] = []
    offset = 0
    length = len(packed)
    while offset < length:
        first = packed[offset]
        if first < _PACK_SMALL:
            components.append(first)
            offset += 1
            continue
        width = first - 0x7F
        payload = packed[offset + 1 : offset + 1 + width]
        if len(payload) != width:
            raise EncodingError(f"truncated packed code {packed!r}")
        components.append(int.from_bytes(payload, "big"))
        offset += 1 + width
    return tuple(components)


def packed_depth(packed: PackedCode) -> int:
    """Number of components (= tree depth + 1) of a packed code."""
    depth = 0
    offset = 0
    length = len(packed)
    while offset < length:
        offset += _component_width(packed, offset)
        depth += 1
    if offset != length:
        raise EncodingError(f"truncated packed code {packed!r}")
    return depth


def packed_prefixes(packed: PackedCode) -> tuple[PackedCode, ...]:
    """All component-boundary prefixes, shortest first.

    ``packed_prefixes(p)[k - 1]`` is the packed ancestor at depth ``k``
    (the packing of the first ``k`` tuple components); the last element
    is ``p`` itself.  This is the packed counterpart of repeated
    ``code[:k]`` slicing, computed once per code.
    """
    prefixes: list[PackedCode] = []
    offset = 0
    length = len(packed)
    while offset < length:
        offset += _component_width(packed, offset)
        prefixes.append(packed[:offset])
    if offset != length:
        raise EncodingError(f"truncated packed code {packed!r}")
    return tuple(prefixes)


def packed_is_prefix(prefix: PackedCode, packed: PackedCode) -> bool:
    """Packed counterpart of :func:`is_prefix` (ancestor-or-self).

    Sound because component encodings are prefix-free: a byte prefix of
    a valid packed code that is itself a valid packed code always ends
    on a component boundary.
    """
    return packed.startswith(prefix)


def packed_descendant_range(prefix: PackedCode) -> tuple[PackedCode, PackedCode]:
    """Packed counterpart of :func:`descendant_range_key`.

    Every packed descendant-or-self ``c`` of ``prefix`` satisfies
    ``low <= c < high`` under byte order.  ``high = prefix + b"\\xff"``
    works because no component encoding starts with ``0xFF``: a true
    descendant extends ``prefix`` with a byte ``< 0xFF``, while any
    non-descendant ``>= prefix`` first differs strictly below
    ``len(prefix)`` and therefore also exceeds ``high``.
    """
    if not prefix:
        raise EncodingError("cannot build a range for the empty code")
    return prefix, prefix + b"\xff"
