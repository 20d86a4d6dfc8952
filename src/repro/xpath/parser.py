"""Recursive-descent parser for the XPath fragment ``XP{/, //, *, []}``.

Grammar (whitespace allowed between tokens)::

    query      :=  ('/' | '//') step  ( ('/' | '//') step )*
    step       :=  nametest predicate*
    nametest   :=  NAME | '*'
    predicate  :=  '[' predexpr ']'
    predexpr   :=  attrtest | relpath
    attrtest   :=  '@' NAME ( cmp literal )?
    relpath    :=  ('.')? ( ('/' | '//') step )+   |   step ( ('/'|'//') step )*
    cmp        :=  '=' | '!=' | '<' | '<=' | '>' | '>='
    literal    :=  "'" chars "'"  |  '"' chars '"'  |  number

Relative predicate paths accept the common spellings ``[b/c]``,
``[./b/c]`` and ``[.//b]``.  The parsed result is a
:class:`~repro.xpath.pattern.TreePattern` whose answer node is the last
step of the main path, matching XPath semantics.
"""

from __future__ import annotations

import functools
import re
from functools import lru_cache

from ..errors import XPathSyntaxError
from .ast import Axis, AttributeConstraint, WILDCARD
from .pattern import PatternNode, TreePattern

__all__ = ["parse_xpath", "parse_path", "parse_cache_info", "parse_cache_clear"]

#: Bounded LRU over raw expression strings.  The answering hot path
#: re-parses identical query strings constantly; a hit returns the
#: shared frozen pattern, so it allocates nothing.
_PARSE_CACHE_SIZE = 512

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-]*")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")
_CMP_OPS = ("!=", "<=", ">=", "=", "<", ">")


class _Scanner:
    """Character-level scanner with backtracking-free lookahead."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise XPathSyntaxError(
                f"expected {literal!r} at position {self.pos}", self.text
            )

    def name(self) -> str | None:
        self.skip_ws()
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            return None
        self.pos = match.end()
        return match.group(0)

    def fail(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(f"{message} at position {self.pos}", self.text)


def _parse_axis(scanner: _Scanner) -> Axis | None:
    """Consume '/' or '//' and return the axis, or None if absent."""
    if scanner.accept("//"):
        return Axis.DESCENDANT
    if scanner.accept("/"):
        return Axis.CHILD
    return None


def _parse_nametest(scanner: _Scanner) -> str:
    if scanner.accept("*"):
        return WILDCARD
    name = scanner.name()
    if name is None:
        raise scanner.fail("expected element name or '*'")
    return name


def _parse_literal(scanner: _Scanner) -> str:
    scanner.skip_ws()
    text = scanner.text
    if scanner.pos < len(text) and text[scanner.pos] in "'\"":
        quote = text[scanner.pos]
        end = text.find(quote, scanner.pos + 1)
        if end == -1:
            raise scanner.fail("unterminated string literal")
        value = text[scanner.pos + 1 : end]
        scanner.pos = end + 1
        return value
    match = _NUMBER_RE.match(text, scanner.pos)
    if match is None:
        raise scanner.fail("expected literal")
    scanner.pos = match.end()
    return match.group(0)


def _parse_attribute_test(scanner: _Scanner) -> AttributeConstraint:
    scanner.expect("@")
    name = scanner.name()
    if name is None:
        raise scanner.fail("expected attribute name after '@'")
    for op in _CMP_OPS:
        if scanner.accept(op):
            value = _parse_literal(scanner)
            return AttributeConstraint(name, op, value)
    return AttributeConstraint(name)


def _parse_predicate(scanner: _Scanner, host: PatternNode) -> None:
    """Parse one ``[...]`` predicate and attach it to ``host``."""
    scanner.expect("[")
    if scanner.peek("@"):
        constraint = _parse_attribute_test(scanner)
        host.constraints = host.constraints + (constraint,)
        scanner.expect("]")
        return

    # Relative path: [b/c], [./b/c], [.//b], [*//d] ...
    leading_axis = Axis.CHILD
    if scanner.accept("."):
        axis = _parse_axis(scanner)
        if axis is None:
            raise scanner.fail("expected '/' or '//' after '.'")
        leading_axis = axis
    else:
        axis = _parse_axis(scanner)
        if axis is not None:
            # [//b] and [/b] are accepted as spellings of [.//b], [./b].
            leading_axis = axis

    node = _parse_step(scanner, host, leading_axis)
    while True:
        axis = _parse_axis(scanner)
        if axis is None:
            break
        node = _parse_step(scanner, node, axis)
    scanner.expect("]")


def _parse_step(scanner: _Scanner, parent: PatternNode | None, axis: Axis) -> PatternNode:
    label = _parse_nametest(scanner)
    node = PatternNode(label, axis)
    if parent is not None:
        parent.add_child(node)
    while scanner.peek("["):
        _parse_predicate(scanner, node)
    return node


def parse_xpath(expression: str) -> TreePattern:
    """Parse an absolute XPath expression into a :class:`TreePattern`.

    The answer node is the last step of the main path.  The paper writes
    patterns like ``s[t]/p`` without a leading axis to mean "anchored
    anywhere"; accordingly, an expression with no leading ``/`` or ``//``
    is parsed as if it started with ``//``.

    Results are served from a bounded LRU keyed by the raw string.
    Every call for one string returns the same shared instance: a
    :class:`TreePattern` is frozen when built, with its canonical
    string already computed, so no caller can corrupt a later parse.
    Syntax errors are not cached.
    """
    return _parse_cached(expression)


def parse_cache_info() -> functools._CacheInfo:
    """``functools.lru_cache`` statistics of the parse cache."""
    return _parse_cached.cache_info()


def parse_cache_clear() -> None:
    """Empty the parse cache (tests and memory-sensitive callers)."""
    _parse_cached.cache_clear()


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_cached(expression: str) -> TreePattern:
    scanner = _Scanner(expression)
    if scanner.eof():
        raise XPathSyntaxError("empty expression", expression)
    axis = _parse_axis(scanner)
    if axis is None:
        # Paper-style abbreviation: "s[t]/p" denotes a pattern anchored
        # anywhere, i.e. //s[t]/p.
        axis = Axis.DESCENDANT
    node = _parse_step(scanner, None, axis)
    root = node
    while True:
        next_axis = _parse_axis(scanner)
        if next_axis is None:
            break
        node = _parse_step(scanner, node, next_axis)
    if not scanner.eof():
        raise scanner.fail("unexpected trailing input")
    return TreePattern(root, node)


def parse_path(expression: str) -> "TreePattern":
    """Parse an expression that must be branchless; returns the pattern.

    Raises :class:`~repro.errors.XPathSyntaxError` when the expression
    contains predicates.
    """
    pattern = parse_xpath(expression)
    if not pattern.is_path():
        raise XPathSyntaxError("expected a branchless path", expression)
    if any(node.constraints for node in pattern.iter_nodes()):
        raise XPathSyntaxError("expected a path without predicates", expression)
    return pattern
