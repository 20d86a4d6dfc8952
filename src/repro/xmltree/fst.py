"""Finite state transducer decoding extended Dewey codes to label paths.

Paper Section II / Figure 3: the FST has one state per element label.
Reading a code component ``n`` in state ``t`` moves to the child label
whose schema position equals ``n mod fanout(t)``.  The first component is
read from a virtual initial state whose single outgoing option is the
root label (``0 mod 1 = 0`` in the paper's Example 2.1).

Decoding a code therefore yields the exact root-to-node label path — the
piece of information the multi-view join uses to verify structural
predicates on fragment roots without accessing base data.
"""

from __future__ import annotations

from ..errors import EncodingError, SchemaError
from .dewey import DeweyCode, PackedCode, unpack_code
from .schema import DocumentSchema

__all__ = ["FiniteStateTransducer"]


class FiniteStateTransducer:
    """Decoder from extended Dewey codes to root-to-node label paths."""

    __slots__ = ("schema", "_cache", "_packed_cache")

    def __init__(self, schema: DocumentSchema):
        self.schema = schema
        # Decoded-path cache: code prefix -> label tuple.  Fragment roots
        # cluster under few ancestors, so the cache hit rate during joins
        # is high.
        self._cache: dict[DeweyCode, tuple[str, ...]] = {}
        # Flat packed-key cache layered over the tuple cache; packed keys
        # hash faster than tuples, so repeat decodes of the same fragment
        # roots skip tuple reconstruction entirely.
        self._packed_cache: dict[PackedCode, tuple[str, ...]] = {}

    def decode(self, code: DeweyCode) -> tuple[str, ...]:
        """Return the root-to-node label path for ``code``.

        Raises :class:`~repro.errors.EncodingError` when the code cannot
        have been produced under this schema.
        """
        if not code:
            raise EncodingError("cannot decode an empty Dewey code")
        cached = self._cache.get(code)
        if cached is not None:
            return cached

        # Find the longest cached prefix to resume from.
        start = len(code) - 1
        labels: list[str] | None = None
        while start > 0:
            prefix_labels = self._cache.get(code[:start])
            if prefix_labels is not None:
                labels = list(prefix_labels)
                break
            start -= 1

        if labels is None:
            # Virtual initial state: the only admissible root residue is 0
            # modulo 1, i.e. any integer, but by construction the root
            # component is 0; accept any value and emit the root label.
            labels = [self.schema.root_label]
            start = 1

        for depth in range(start, len(code)):
            state = labels[-1]
            try:
                fanout = self.schema.fanout(state)
                residue = code[depth] % fanout
                labels.append(self.schema.child_at(state, residue))
            except SchemaError as exc:
                raise EncodingError(
                    f"code {code} undecodable at depth {depth}: {exc}"
                ) from exc
            self._cache[code[: depth + 1]] = tuple(labels)

        decoded = tuple(labels)
        self._cache[code] = decoded
        return decoded

    def decode_packed(self, packed: PackedCode) -> tuple[str, ...]:
        """Decode a packed code (see :func:`repro.xmltree.dewey.pack_code`).

        Equivalent to ``decode(unpack_code(packed))`` with its own cache
        keyed by the packed bytes, so hot joins that carry only packed
        keys never rebuild the int tuple on a repeat decode.
        """
        cached = self._packed_cache.get(packed)
        if cached is not None:
            return cached
        decoded = self.decode(unpack_code(packed))
        self._packed_cache[packed] = decoded
        return decoded

    def label_of(self, code: DeweyCode) -> str:
        """Return just the label of the node encoded by ``code``."""
        return self.decode(code)[-1]

    def clear_cache(self) -> None:
        """Drop the decode cache (e.g. after switching documents)."""
        self._cache.clear()
        self._packed_cache.clear()

    def transitions(self) -> dict[str, tuple[str, ...]]:
        """Return the FST transition table, ``state -> ordered child labels``.

        Mirrors the paper's Figure 3 presentation; useful for debugging
        and for the paper-walkthrough example.
        """
        table: dict[str, tuple[str, ...]] = {}
        for label in sorted(self.schema.labels()):
            try:
                child_labels = self.schema.child_labels(label)
            except SchemaError:
                continue
            if child_labels:
                table[label] = child_labels
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FiniteStateTransducer root={self.schema.root_label!r}>"
