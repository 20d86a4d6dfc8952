"""Compact binary serialization for storage records.

The paper persists VFILTER in Berkeley DB and view fragments in Berkeley
DB XML; this module provides the equivalent wire formats for our
embedded store:

* varint-encoded unsigned integers (LEB128),
* length-prefixed UTF-8 strings,
* extended Dewey codes (varint count + varint components),
* XML subtrees (preorder stream with child counts and, where a delete
  left a gap, explicit extended Dewey components).

One subtree walk writes the subtree format.  :func:`encode_fragment`
takes its bytes alone; :func:`encode_fragment_copy` takes, from one
walk of a live subtree, its bytes and a code-stamped, parentless copy,
so delta maintenance can hand a re-encoded fragment its decoded tree
and no read decodes the bytes the edit just wrote.  The subtree
format stores no per-node codes except where a delete left a gap:
:func:`decode_fragment` rebuilds every code in its one walk from the
root's code and the schema, so a decoded tree is as complete as that
copy.

All decoders take ``(buffer, offset)`` and return ``(value,
new_offset)`` so records can be composed without intermediate copies.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from ..errors import StorageError
from ..xmltree.dewey import (
    DeweyCode,
    assign_child_component,
    pack_code,
    pack_component,
)
from ..xmltree.schema import DocumentSchema
from ..xmltree.tree import XMLNode

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_text",
    "decode_text",
    "encode_dewey",
    "decode_dewey",
    "encode_fragment",
    "encode_fragment_copy",
    "copy_subtree",
    "decode_fragment",
]


#: One-byte encodings, shared: nearly every varint in a fragment (flags,
#: counts, label lengths) is below 128.
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise StorageError("varint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buffer: bytes, offset: int) -> tuple[int, int]:
    """Decode a LEB128 integer; returns ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(buffer):
            raise StorageError("truncated varint")
        byte = buffer[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise StorageError("varint too long")


def encode_text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def decode_text(buffer: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(buffer, offset)
    end = offset + length
    if end > len(buffer):
        raise StorageError("truncated string")
    return buffer[offset:end].decode("utf-8"), end


def encode_dewey(code: DeweyCode) -> bytes:
    parts = [encode_varint(len(code))]
    parts.extend(encode_varint(component) for component in code)
    return b"".join(parts)


def decode_dewey(buffer: bytes, offset: int) -> tuple[DeweyCode, int]:
    count, offset = decode_varint(buffer, offset)
    components: list[int] = []
    for _ in range(count):
        component, offset = decode_varint(buffer, offset)
        components.append(component)
    return tuple(components), offset


def encode_fragment(root: XMLNode, schema: DocumentSchema | None = None) -> bytes:
    """Serialize a subtree: preorder, each node as
    ``label, flags, text?, component?, attrs, child-count``.

    ``flags`` bit 0 marks text.  Bit 1 marks an explicit extended Dewey
    component.  With ``schema`` given, a coded node below ``root``
    whose component is not the smallest admissible one after its
    previous sibling's (a delete left a gap before it) stores its last
    component, so :func:`decode_fragment` restores its exact code.
    Freshly encoded documents have no gaps, so their payloads carry no
    component at all.
    """
    parts: list[bytes] = []
    _walk(root, schema, parts, None)
    return b"".join(parts)


def encode_fragment_copy(
    root: XMLNode, schema: DocumentSchema | None = None
) -> tuple[bytes, XMLNode]:
    """:func:`encode_fragment` of a live subtree together with, from
    the same walk, a parentless copy of it whose every node carries
    the live ``dewey`` and ``dewey_packed``: the tree
    :func:`decode_fragment` would rebuild from the bytes, without
    decoding them.  The copy shares no node or attribute dict with
    ``root``, so later edits of the live tree leave it as it is."""
    parts: list[bytes] = []
    copy = _copy_node(root, None)
    _walk(root, schema, parts, copy)
    return b"".join(parts), copy


def copy_subtree(root: XMLNode) -> XMLNode:
    """The copy half of :func:`encode_fragment_copy`, without the
    bytes."""
    copy = _copy_node(root, None)
    _walk(root, None, None, copy)
    return copy


_NO_TWINS = repeat(None)
_NO_GAPS = repeat(False)


def _walk(
    root: XMLNode,
    schema: DocumentSchema | None,
    parts: list[bytes] | None,
    copy: XMLNode | None,
) -> None:
    """One preorder walk of ``root``'s subtree: appends each node's
    record to ``parts`` (when given) — the one writer of the subtree
    format — and grows ``copy`` (when given) into its twin."""
    # Labels repeat across a subtree, and most records are plain (no
    # text, no component, no attributes): their head (label, flags and
    # attribute count) is encoded once per label per walk.
    plain: dict[str, bytes] = {}
    stack: list[tuple[XMLNode, XMLNode | None, bool]] = [(root, copy, False)]
    while stack:
        node, twin, explicit = stack.pop()
        children = node.children
        if parts is not None:
            label = node.label
            text = node.text
            attributes = node.attributes
            if text is None and not explicit and not attributes:
                head = plain.get(label)
                if head is None:
                    head = plain[label] = encode_text(label) + b"\x00\x00"
                parts.append(head)
            else:
                parts.append(encode_text(label))
                parts.append(_ONE_BYTE[(text is not None) | explicit << 1])
                if text is not None:
                    parts.append(encode_text(text))
                if explicit:
                    assert node.dewey is not None
                    parts.append(encode_varint(node.dewey[-1]))
                parts.append(encode_varint(len(attributes)))
                for name, value in attributes.items():
                    parts.append(encode_text(name))
                    parts.append(encode_text(value))
            count = len(children)
            parts.append(_ONE_BYTE[count] if count < 0x80 else encode_varint(count))
        if not children:
            continue
        gaps: Iterable[bool] = _NO_GAPS
        if schema is not None and node.dewey is not None:
            gaps = _gaps(children, schema.fanout(node.label))
        twins: Iterable[XMLNode | None] = _NO_TWINS
        if twin is not None:
            twins = twin.children = [_copy_node(child, twin) for child in children]
        stack.extend(reversed(list(zip(children, twins, gaps))))


def _gaps(children: list[XMLNode], fanout: int) -> list[bool]:
    """Per child: whether its record stores its component explicitly
    (see :func:`encode_fragment`).  The smallest admissible component
    lies in ``[floor, floor + fanout)``, so anything at or past
    ``floor + fanout`` left a gap."""
    floor = 0
    gaps: list[bool] = []
    for child in children:
        component = child.dewey[-1] if child.dewey else floor
        gaps.append(component - floor >= fanout)
        floor = component + 1
    return gaps


_NEW_NODE = XMLNode.__new__


def _copy_node(node: XMLNode, parent: XMLNode | None) -> XMLNode:
    """A childless twin of ``node`` under ``parent``.  Every slot of
    :class:`XMLNode` is set here, without the constructor's checks
    (the label was checked when ``node`` was built): a copy is made
    per node of each subtree an edit re-encodes."""
    copy = _NEW_NODE(XMLNode)
    copy.label = node.label
    copy.text = node.text
    copy.attributes = dict(node.attributes)
    copy.parent = parent
    copy.children = []
    copy.dewey = node.dewey
    copy.dewey_packed = node.dewey_packed
    return copy


def decode_fragment(
    buffer: bytes, offset: int, code: DeweyCode, schema: DocumentSchema
) -> tuple[XMLNode, int]:
    """Inverse of :func:`encode_fragment` for the subtree rooted at
    ``code``, encoded under ``schema``; returns ``(root, new_offset)``.

    The one walk stamps every node's ``dewey`` and ``dewey_packed``:
    the root gets ``code``; a child stored with an explicit component
    gets that component, every other child the smallest admissible
    one after its previous sibling's (extended Dewey assignment is
    deterministic and the format keeps sibling order).  The codes
    therefore equal the document's, and the tree is complete when it
    is returned.
    """

    def read_node(offset: int) -> tuple[XMLNode, int | None, int, int]:
        label, offset = decode_text(buffer, offset)
        flags, offset = decode_varint(buffer, offset)
        text: str | None = None
        if flags & 1:
            text, offset = decode_text(buffer, offset)
        component: int | None = None
        if flags & 2:
            component, offset = decode_varint(buffer, offset)
        attr_count, offset = decode_varint(buffer, offset)
        attributes: dict[str, str] = {}
        for _ in range(attr_count):
            name, offset = decode_text(buffer, offset)
            value, offset = decode_text(buffer, offset)
            attributes[name] = value
        child_count, offset = decode_varint(buffer, offset)
        node = XMLNode(label, text=text, attributes=attributes)
        return node, component, child_count, offset

    root, _component, root_children, offset = read_node(offset)
    root.dewey = code
    root.dewey_packed = pack_code(code)
    # Explicit stack of (node, its code, its packed code, remaining
    # children, previous child's component) to avoid recursion.
    stack: list[tuple[XMLNode, DeweyCode, bytes, int, int | None]] = [
        (root, code, root.dewey_packed, root_children, None)
    ]
    while stack:
        parent, parent_code, parent_packed, remaining, previous = stack[-1]
        if remaining == 0:
            stack.pop()
            continue
        child, component, grandchildren, offset = read_node(offset)
        if component is None:
            component = assign_child_component(
                schema, parent.label, child.label, previous
            )
        stack[-1] = (parent, parent_code, parent_packed, remaining - 1, component)
        child.dewey = parent_code + (component,)
        child.dewey_packed = parent_packed + pack_component(component)
        parent.add_child(child)
        if grandchildren:
            stack.append(
                (child, child.dewey, child.dewey_packed, grandchildren, None)
            )
    return root, offset
