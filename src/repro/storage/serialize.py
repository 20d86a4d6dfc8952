"""Compact binary serialization for storage records.

The paper persists VFILTER in Berkeley DB and view fragments in Berkeley
DB XML; this module provides the equivalent wire formats for our
embedded store:

* varint-encoded unsigned integers (LEB128),
* length-prefixed UTF-8 strings,
* extended Dewey codes (varint count + varint components),
* XML subtrees (preorder stream with child counts and, where a delete
  left a gap, explicit extended Dewey components).

All decoders take ``(buffer, offset)`` and return ``(value,
new_offset)`` so records can be composed without intermediate copies.
"""

from __future__ import annotations

from ..errors import StorageError
from ..xmltree.dewey import DeweyCode
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
    component, so :func:`~repro.core.rewrite.reencode_fragment`
    restores its exact code.  Freshly encoded documents have no gaps,
    so their payloads carry no component at all.
    """
    parts: list[bytes] = []
    stack: list[tuple[XMLNode, bool]] = [(root, False)]
    while stack:
        node, explicit = stack.pop()
        parts.append(encode_text(node.label))
        parts.append(encode_varint((node.text is not None) | explicit << 1))
        if node.text is not None:
            parts.append(encode_text(node.text))
        if explicit:
            assert node.dewey is not None
            parts.append(encode_varint(node.dewey[-1]))
        parts.append(encode_varint(len(node.attributes)))
        for name, value in node.attributes.items():
            parts.append(encode_text(name))
            parts.append(encode_text(value))
        children = node.children
        parts.append(encode_varint(len(children)))
        if schema is None or node.dewey is None or not children:
            stack.extend((child, False) for child in reversed(children))
            continue
        # The smallest admissible component lies in [floor, floor + k)
        # for fanout k, so anything at or past floor + k left a gap.
        fanout = schema.fanout(node.label)
        floor = 0
        marked: list[tuple[XMLNode, bool]] = []
        for child in children:
            component = child.dewey[-1] if child.dewey else floor
            marked.append((child, component - floor >= fanout))
            floor = component + 1
        stack.extend(reversed(marked))
    return b"".join(parts)


def decode_fragment(buffer: bytes, offset: int = 0) -> tuple[XMLNode, int]:
    """Inverse of :func:`encode_fragment`; returns ``(root, new_offset)``.

    A node stored with an explicit component carries it as a
    one-component ``dewey`` until
    :func:`~repro.core.rewrite.reencode_fragment` stamps the full
    codes; every other decoded node has no code.
    """

    def read_node(offset: int) -> tuple[XMLNode, int, int]:
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
        if component is not None:
            node.dewey = (component,)
        return node, child_count, offset

    root, root_children, offset = read_node(offset)
    # Explicit stack of (node, remaining children) to avoid recursion.
    stack: list[tuple[XMLNode, int]] = [(root, root_children)]
    while stack:
        parent, remaining = stack[-1]
        if remaining == 0:
            stack.pop()
            continue
        stack[-1] = (parent, remaining - 1)
        child, grandchildren, offset = read_node(offset)
        parent.add_child(child)
        if grandchildren:
            stack.append((child, grandchildren))
    return root, offset
