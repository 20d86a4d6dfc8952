"""VFILTER: NFA-based view filtering (paper Section III, Algorithm 1).

Given a view set ``V`` and a query ``Q``, VFILTER prunes every view that
*cannot* contain ``Q``, using Proposition 3.1: ``Q ⊑ V`` requires each
path pattern of ``D(V)`` to contain some path pattern of ``D(Q)``.  The
check runs each normalized query path's ``STR`` token stream through the
shared NFA; accepting states identify the view paths that contain it.

The filter is sound (no false negatives, thanks to normalization) and
allows false positives (distinct tree patterns with identical path
decompositions); Figure 10 measures exactly that utility ratio.

Besides the candidate set, filtering returns the paper's ``LIST(P_i)``
bookkeeping — per query path, the candidate views whose paths contain
it, sorted by descending view-path length — which drives the heuristic
selector (Algorithm 2).

The registry publishes a :class:`LayeredVFilter`: an immutable stack of
:class:`VFilter` layers that each ``register_views`` batch extends by
one layer (:meth:`LayeredVFilter.with_views`).  As in the paper, a
view set registered in one batch on an empty system is filtered by one
automaton built once over the whole set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import current_trace
from ..storage.kvstore import KVStore
from ..storage.serialize import encode_text, encode_varint
from ..xpath.decompose import decompose
from ..xpath.pattern import PathPattern, TreePattern
from ..xpath.transform import str_tokens
from .nfa import DEFAULT_COMPILE_BUDGET, AcceptEntry, PathNFA
from .view import View

__all__ = ["LayeredVFilter", "VFilter", "FilterResult"]

#: Collapse the layered VFILTER back into one monolithic automaton once
#: this many delta layers have accumulated (bounds per-query filter
#: overhead at ~K cheap layer probes while keeping registration linear
#: instead of quadratic).
_REBUILD_DELTAS = 24


@dataclass(slots=True)
class FilterResult:
    """Output of Algorithm 1 for one query.

    ``candidates`` preserves view registration order; it is a tuple,
    so a cached plan hands it out without a copy.  ``lists`` maps each
    query path pattern to its ``LIST(P_i)``: pairs ``(view_id, length)``
    sorted by length descending (ties by view id for determinism),
    already restricted to candidate views — the paper's lines 22-26.
    ``lists`` is read-only by contract: a cached plan shares it with
    every caller.
    """

    candidates: tuple[str, ...]
    lists: dict[PathPattern, list[tuple[str, int]]] = field(default_factory=dict)
    query_paths: list[PathPattern] = field(default_factory=list)


class VFilter:
    """A shared NFA over the decomposed path patterns of all views.

    ``attribute_pruning`` additionally drops candidates whose attribute
    constraints cannot all be mirrored by the query — the extension the
    paper's Section VII proposes ("incorporate attributes into VFILTER
    to gain further pruning power").  It is a necessary condition for a
    homomorphism, so soundness is preserved.
    """

    def __init__(self, attribute_pruning: bool = True) -> None:
        self.attribute_pruning = attribute_pruning  #: state: hard
        self.nfa = PathNFA()  #: state: hard
        self._views: dict[str, View] = {}  #: state: hard
        self._order: list[str] = []  #: state: hard
        self._order_index: dict[str, int] = {}  #: state: hard
        # All-wildcard view paths (/*/*/…) contain every query path with
        # at least as many steps; the NFA's root handling cannot express
        # that, so they live in a side registry consulted by filter().
        # Their acceptance depends only on the probe path's length, so
        # per-length-threshold aggregates are precomputed lazily:
        #   threshold t -> {view_id: best matching wildcard-path length}
        #   threshold t -> {view_id: number of wildcard paths matched}
        self._wildcard_entries: list[AcceptEntry] = []  #: state: hard
        self._constrained: dict[str, frozenset] = {}  #: state: hard
        #: state: soft(derived-from=_wildcard_entries; rebuild=_wildcard_best)
        self._wc_best: dict[int, dict[str, int]] = {}
        #: state: soft(derived-from=_wildcard_entries; rebuild=_wildcard_counts)
        self._wc_count: dict[int, dict[str, int]] = {}
        #: state: soft(derived-from=_wildcard_entries; rebuild=add_view)
        self._wc_max_length = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    #: state: mutator
    def add_view(self, view: View) -> None:
        """Insert a view's (already normalized) path patterns."""
        if view.view_id in self._views:
            raise ValueError(f"duplicate view id {view.view_id!r}")
        self._views[view.view_id] = view
        self._order_index[view.view_id] = len(self._order)
        self._order.append(view.view_id)
        signature = view.constraint_signature()
        if signature:
            self._constrained[view.view_id] = signature
        for index, path in enumerate(view.paths):
            entry = AcceptEntry(view.view_id, index, path.length)
            if all(step.is_wildcard for step in path.steps):
                self._wildcard_entries.append(entry)
                self._wc_max_length = max(self._wc_max_length, entry.length)
                self._wc_best.clear()
                self._wc_count.clear()
            else:
                self.nfa.insert(path, entry)

    #: state: mutator
    def add_views(self, views: list[View]) -> None:
        for view in views:
            self.add_view(view)

    @property
    def view_count(self) -> int:
        return len(self._views)

    def view(self, view_id: str) -> View:
        return self._views[view_id]

    def views(self) -> list[View]:
        return [self._views[view_id] for view_id in self._order]

    # ------------------------------------------------------------------
    # wildcard-path aggregates
    # ------------------------------------------------------------------
    def _wildcard_best(self, threshold: int) -> dict[str, int]:
        """``{view_id: longest wildcard path with length ≤ threshold}``."""
        if not self._wildcard_entries:
            return {}
        threshold = min(threshold, self._wc_max_length)
        cached = self._wc_best.get(threshold)
        if cached is None:
            cached = {}
            for entry in self._wildcard_entries:
                if entry.length <= threshold:
                    best = cached.get(entry.view_id)
                    if best is None or entry.length > best:
                        cached[entry.view_id] = entry.length
            self._wc_best[threshold] = cached
        return cached

    def _wildcard_counts(self, threshold: int) -> dict[str, int]:
        """``{view_id: #wildcard paths with length ≤ threshold}``."""
        if not self._wildcard_entries:
            return {}
        threshold = min(threshold, self._wc_max_length)
        cached = self._wc_count.get(threshold)
        if cached is None:
            cached = {}
            for entry in self._wildcard_entries:
                if entry.length <= threshold:
                    cached[entry.view_id] = cached.get(entry.view_id, 0) + 1
            self._wc_count[threshold] = cached
        return cached

    def accepting_views(self, labels: tuple[str, ...]) -> set[str]:
        """View ids with a decomposed path matching the *concrete*
        label path ``labels`` (root-to-node, child steps only).

        The delta resolver's probe: an edit can change a view's answer
        set only if some pattern leaf maps onto a changed node, and
        that leaf's ``D(V)`` path then matches the node's concrete
        label path — so the NFA accepting it is a sound hit test.
        Wildcard-only view paths accept any path at least as long, via
        the same per-length aggregate :meth:`filter` uses.
        """
        accepted = {entry.view_id for entry in self.nfa.read(labels)}
        accepted.update(self._wildcard_best(len(labels)))
        return accepted

    # ------------------------------------------------------------------
    # Algorithm 1: VIEWFILTERING
    # ------------------------------------------------------------------
    def filter(self, query: TreePattern) -> FilterResult:
        """Run Algorithm 1; returns candidates and ``LIST(P_i)`` data.

        Query paths are fed to the NFA *raw* (Algorithm 1 normalizes
        them, but the gap-unit construction of :class:`PathNFA` already
        canonicalizes every equivalent spelling on the view side, and
        rewriting the query stream can only lose matches — see the
        module docstring of :mod:`repro.core.nfa`)."""
        query_paths = decompose(query)
        # Deduplicate (D(Q) is a set) while preserving order.
        seen: set[PathPattern] = set()
        unique_paths: list[PathPattern] = []
        for path in query_paths:
            if path not in seen:
                seen.add(path)
                unique_paths.append(path)

        # Lines 6-16: run each path, recording which of each view's
        # paths accepted something (a set, so a view path matched by two
        # query paths is not double-counted).  Wildcard view paths are
        # folded in from the per-length-threshold aggregates.
        matched_paths: dict[str, set[int]] = {}
        raw_lists: dict[PathPattern, dict[str, int]] = {}
        max_path_length = 0
        with current_trace().span("nfa", paths=len(unique_paths)) as span:
            for path in unique_paths:
                tokens = str_tokens(path)
                path_length = path.length
                max_path_length = max(max_path_length, path_length)
                per_path = dict(self._wildcard_best(path_length))
                for entry in self.nfa.read(tokens):
                    matched_paths.setdefault(entry.view_id, set()).add(
                        entry.path_index
                    )
                    best = per_path.get(entry.view_id)
                    if best is None or entry.length > best:
                        per_path[entry.view_id] = entry.length
                raw_lists[path] = per_path
            span.attributes["views_matched"] = len(matched_paths)

        # Lines 17-21: a candidate view has every one of its paths
        # matched (NUM(V) = |D(V)|).  Only views that matched something
        # are examined, keeping filtering output-sensitive rather than
        # linear in the registered view count.
        wc_counts = self._wildcard_counts(max_path_length)
        candidate_set = set()
        for view_id, matched in matched_paths.items():
            total = len(matched) + wc_counts.get(view_id, 0)
            if total == self._views[view_id].path_count:
                candidate_set.add(view_id)
        for view_id, count in wc_counts.items():
            if view_id not in matched_paths:
                if count == self._views[view_id].path_count:
                    candidate_set.add(view_id)
        if self.attribute_pruning and self._constrained:
            query_constraints = {
                constraint
                for node in query.iter_nodes()
                for constraint in node.constraints
            }
            candidate_set = {
                view_id
                for view_id in candidate_set
                if self._constrained.get(view_id, frozenset())
                <= query_constraints
            }
        candidates = tuple(
            sorted(candidate_set, key=self._order_index.__getitem__)
        )

        # Lines 22-26: drop filtered views from the sorted lists.
        lists: dict[PathPattern, list[tuple[str, int]]] = {}
        for path, per_path in raw_lists.items():
            entries = [
                (view_id, length)
                for view_id, length in per_path.items()
                if view_id in candidate_set
            ]
            entries.sort(key=lambda item: (-item[1], item[0]))
            lists[path] = entries
        return FilterResult(candidates, lists, unique_paths)

    # ------------------------------------------------------------------
    # compiled transition table
    # ------------------------------------------------------------------
    def precompile(self, budget: int = DEFAULT_COMPILE_BUDGET) -> None:
        """Compile the NFA into its lazy-DFA transition table (see
        :class:`repro.core.nfa.CompiledNFA`).  Called at epoch-publish
        time so steady-state :meth:`filter` calls cost one dict probe
        per token instead of a set-simulation pass.  Idempotent; voided
        automatically by :meth:`add_view`."""
        self.nfa.compile(budget)

    def compiled_stats(self) -> dict[str, int]:
        """Counters for the compiled path (stats / CI feature checks)."""
        compiled = self.nfa.compiled
        return {
            "compiled_layers": 1 if compiled is not None else 0,
            "dfa_states": compiled.state_count if compiled is not None else 0,
            "dfa_rows": compiled.rows_built if compiled is not None else 0,
            "dfa_table_entries": (
                compiled.table_entries() if compiled is not None else 0
            ),
            "reads_compiled": self.nfa.reads_compiled,
            "reads_simulated": self.nfa.reads_simulated,
        }

    # ------------------------------------------------------------------
    # persistence / sizing
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """In-memory serialized size estimate of the automaton."""
        return self.nfa.stored_bytes()

    def frozen(self) -> "LayeredVFilter":
        """Wrap this filter as the base layer of an immutable
        :class:`LayeredVFilter` (the caller promises not to call
        :meth:`add_view` afterwards)."""
        return LayeredVFilter(self)

    def save(self, store: KVStore, include_definitions: bool = True) -> int:
        """Persist the automaton into ``store`` (one record per state,
        as the paper stores VFILTER in Berkeley DB); returns the number
        of bytes written — the Figure 11 database size.

        View definitions (``v:`` records) are stored alongside the NFA
        states (``s:`` records), so :meth:`load` reconstructs a fully
        functional filter without re-deriving anything.  Pass
        ``include_definitions=False`` to write (and count) only the
        automaton — the quantity Figure 11 tracks; the catalog of view
        strings grows trivially linearly and is not part of the paper's
        size claim.
        """
        total = 0
        for state_id in range(self.nfa.state_count):
            state = self.nfa._states[state_id]
            payload_parts = [encode_varint(len(state.exact))]
            for label, target in sorted(state.exact.items()):
                payload_parts.append(encode_text(label))
                payload_parts.append(encode_varint(target))
            payload_parts.append(encode_varint(len(state.desc_exact)))
            for label, target in sorted(state.desc_exact.items()):
                payload_parts.append(encode_text(label))
                payload_parts.append(encode_varint(target))
            for single in (state.star, state.desc_star, state.chain):
                payload_parts.append(
                    encode_varint(single + 1 if single is not None else 0)
                )
            payload_parts.append(encode_varint(len(state.any_to)))
            payload_parts.extend(encode_varint(t) for t in state.any_to)
            payload_parts.append(encode_varint(len(state.accepts)))
            for entry in state.accepts:
                payload_parts.append(encode_text(entry.view_id))
                payload_parts.append(encode_varint(entry.path_index))
                payload_parts.append(encode_varint(entry.length))
            key = b"s:" + encode_varint(state_id)
            value = b"".join(payload_parts)
            store.put(key, value)
            total += len(key) + len(value)
        if not include_definitions:
            return total
        for order, view_id in enumerate(self._order):
            key = b"v:" + encode_varint(order)
            value = encode_text(view_id) + encode_text(
                self._views[view_id].to_xpath()
            )
            store.put(key, value)
            total += len(key) + len(value)
        return total

    @classmethod
    def load(cls, store: KVStore) -> "VFilter":
        """Reconstruct a filter previously written by :meth:`save`.

        NFA states are decoded directly (no re-insertion); view
        definitions are re-parsed from their stored XPath.  Loop-state
        bookkeeping used only during construction is not persisted, so a
        loaded filter accepts further :meth:`add_view` calls at the cost
        of slightly less prefix sharing for descendant steps.
        """
        from ..storage.serialize import decode_text, decode_varint
        from .nfa import _State

        vfilter = cls()
        states: dict[int, _State] = {}
        view_records: dict[int, tuple[str, str]] = {}
        for key in store.keys():
            if key.startswith(b"s:"):
                state_id, _ = decode_varint(key, 2)
                value = store.get(key)
                assert value is not None
                state = _State()
                offset = 0
                count, offset = decode_varint(value, offset)
                for _ in range(count):
                    label, offset = decode_text(value, offset)
                    target, offset = decode_varint(value, offset)
                    state.exact[label] = target
                count, offset = decode_varint(value, offset)
                for _ in range(count):
                    label, offset = decode_text(value, offset)
                    target, offset = decode_varint(value, offset)
                    state.desc_exact[label] = target
                star, offset = decode_varint(value, offset)
                state.star = star - 1 if star else None
                desc_star, offset = decode_varint(value, offset)
                state.desc_star = desc_star - 1 if desc_star else None
                chain, offset = decode_varint(value, offset)
                state.chain = chain - 1 if chain else None
                count, offset = decode_varint(value, offset)
                for _ in range(count):
                    target, offset = decode_varint(value, offset)
                    state.any_to.append(target)
                count, offset = decode_varint(value, offset)
                for _ in range(count):
                    view_id, offset = decode_text(value, offset)
                    path_index, offset = decode_varint(value, offset)
                    length, offset = decode_varint(value, offset)
                    state.accepts.append(
                        AcceptEntry(view_id, path_index, length)
                    )
                states[state_id] = state
            elif key.startswith(b"v:"):
                order, _ = decode_varint(key, 2)
                value = store.get(key)
                assert value is not None
                view_id, offset = decode_text(value, 0)
                expression, _ = decode_text(value, offset)
                view_records[order] = (view_id, expression)

        vfilter.nfa._states = [
            states[state_id] for state_id in sorted(states)
        ]
        for order in sorted(view_records):
            view_id, expression = view_records[order]
            view = View.from_xpath(view_id, expression)
            vfilter._views[view_id] = view
            vfilter._order_index[view_id] = len(vfilter._order)
            vfilter._order.append(view_id)
            signature = view.constraint_signature()
            if signature:
                vfilter._constrained[view_id] = signature
            for index, path in enumerate(view.paths):
                if all(step.is_wildcard for step in path.steps):
                    vfilter._wildcard_entries.append(
                        AcceptEntry(view_id, index, path.length)
                    )
                    vfilter._wc_max_length = max(
                        vfilter._wc_max_length, path.length
                    )
        return vfilter


class LayeredVFilter:
    """An immutable stack of :class:`VFilter` layers: one frozen *base*
    plus a tuple of *deltas*, one per registration batch.

    The epoch-snapshot design (``core.system``) needs a filter that is
    never mutated after an epoch is published — concurrent readers walk
    the NFA while registrations land — yet cheap to extend: rebuilding a
    1000-view automaton per ``register_view`` would make one-by-one
    loading quadratic.  A layered filter gives both: a registration
    batch wraps the untouched base with one extra layer holding just
    the batch (an O(|batch|) build), and :meth:`with_views` collapses
    the stack back into a fresh monolithic base once the delta tuple
    grows past a threshold, keeping per-query overhead bounded.  A
    batch registered on an empty filter becomes the base itself, so a
    system loaded with one ``register_views`` call filters through a
    single layer compiled once.

    Merging is exact: Algorithm 1's acceptance test is per view (every
    path of ``D(V)`` must contain some query path, judged only against
    that view's own paths), so filtering each layer independently and
    concatenating yields the same candidate set as one monolithic
    automaton.  Candidate order is base order followed by delta order —
    i.e. global registration order, exactly what the monolithic filter
    produces — and the per-path ``LIST(P_i)`` entries are merged and
    re-sorted by ``(-length, view_id)``, the same deterministic key.
    """

    __slots__ = ("base", "deltas")

    def __init__(
        self, base: VFilter, deltas: tuple[VFilter, ...] = ()
    ) -> None:
        self.base = base  #: state: hard
        self.deltas = deltas  #: state: hard

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, views: list[View], attribute_pruning: bool = True
    ) -> "LayeredVFilter":
        """A collapsed (single-layer) filter over ``views``."""
        base = VFilter(attribute_pruning=attribute_pruning)
        base.add_views(views)
        return cls(base)

    def with_views(self, views: list[View]) -> "LayeredVFilter":
        """A new filter extended by ``views``; ``self`` is untouched.

        The batch becomes one delta layer.  An empty filter is instead
        rebuilt as a single layer over the batch, and a stack that
        reaches :data:`_REBUILD_DELTAS` deltas is collapsed.
        """
        if not views:
            return self
        if self.view_count == 0:
            return self.build(views, self.attribute_pruning)
        delta = VFilter(attribute_pruning=self.attribute_pruning)
        delta.add_views(views)
        layered = LayeredVFilter(self.base, self.deltas + (delta,))
        if layered.delta_count >= _REBUILD_DELTAS:
            return layered.collapsed()
        return layered

    def collapsed(self) -> "LayeredVFilter":
        """Rebuild as a single monolithic layer (same view order)."""
        return self.build(self.views(), self.attribute_pruning)

    # ------------------------------------------------------------------
    # VFilter-compatible read API
    # ------------------------------------------------------------------
    @property
    def attribute_pruning(self) -> bool:
        return self.base.attribute_pruning

    @property
    def delta_count(self) -> int:
        return len(self.deltas)

    @property
    def view_count(self) -> int:
        return self.base.view_count + sum(
            delta.view_count for delta in self.deltas
        )

    def view(self, view_id: str) -> View:
        for layer in self._layers():
            try:
                return layer.view(view_id)
            except KeyError:
                continue
        raise KeyError(view_id)

    def views(self) -> list[View]:
        collected: list[View] = []
        for layer in self._layers():
            collected.extend(layer.views())
        return collected

    def stored_bytes(self) -> int:
        return sum(layer.stored_bytes() for layer in self._layers())

    def precompile(self, budget: int = DEFAULT_COMPILE_BUDGET) -> None:
        """Compile every layer's transition table (idempotent).

        Mutation-wise this only populates per-layer caches guarded by
        their own locks, so calling it on a published (shared) filter is
        safe — layers already compiled by a previous epoch are reused.
        """
        for layer in self._layers():
            layer.precompile(budget)

    def compiled_stats(self) -> dict[str, int]:
        """Aggregate compiled-path counters across layers."""
        totals = {
            "layers": 0,
            "compiled_layers": 0,
            "dfa_states": 0,
            "dfa_rows": 0,
            "dfa_table_entries": 0,
            "reads_compiled": 0,
            "reads_simulated": 0,
        }
        for layer in self._layers():
            totals["layers"] += 1
            for key, value in layer.compiled_stats().items():
                totals[key] += value
        return totals

    def _layers(self) -> tuple[VFilter, ...]:
        return (self.base,) + self.deltas

    def accepting_views(self, labels: tuple[str, ...]) -> set[str]:
        """Union of :meth:`VFilter.accepting_views` over the stack
        (each view lives in exactly one layer, so the union is exact)."""
        accepted: set[str] = set()
        for layer in self._layers():
            accepted |= layer.accepting_views(labels)
        return accepted

    # ------------------------------------------------------------------
    # Algorithm 1 over the stack
    # ------------------------------------------------------------------
    def filter(self, query: TreePattern) -> FilterResult:
        """Run Algorithm 1 against every layer and merge (see class
        docstring for why the merge is exact)."""
        base_result = self.base.filter(query)
        if not self.deltas:
            return base_result
        results = [base_result]
        results.extend(delta.filter(query) for delta in self.deltas)
        candidates = tuple(
            view_id for result in results for view_id in result.candidates
        )
        lists: dict[PathPattern, list[tuple[str, int]]] = {}
        for path in base_result.query_paths:
            merged: list[tuple[str, int]] = []
            for result in results:
                merged.extend(result.lists.get(path, ()))
            merged.sort(key=lambda item: (-item[1], item[0]))
            lists[path] = merged
        return FilterResult(candidates, lists, base_result.query_paths)
