"""Static analysis and runtime contracts for the reproduction.

Two halves, both protecting the invariants PR 1's caching layer made
load-bearing (see DESIGN.md §10 for the catalog):

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` —
  ``xmvrlint``, a linter with repo-specific rules: per-file AST rules
  L2–L5 (frozen interned patterns, ``id()``-key escapes,
  wall-clock/randomness bans in ``core/``, public-API annotation
  coverage), whole-program rules L7–L9 (exception safety of mutation
  windows, purity of cache inputs, import layering), the concurrency
  rules L10–L14 and the derived-state rules L15–L19 (among them the
  plan-cache invalidation discipline), built on
  :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.dataflow`,
  :mod:`repro.analysis.effects`, :mod:`repro.analysis.concurrency` and
  :mod:`repro.analysis.statedeps`.  Run it with ``python -m repro lint``
  or the ``xmvrlint`` console script.
* the runtime half lives below this layer, in
  :mod:`repro.core.contracts`, because ``core/system.py`` calls it: the
  opt-in assertions (``XMVR_CHECK=1``, on by default under pytest)
  checking the paper's guarantees at stage boundaries: document-ordered
  Dewey output, exact leaf-cover equality of selected view sets,
  VFILTER soundness, and sampled structural equality of cache-served
  plans.
"""

from __future__ import annotations

__all__ = ["engine", "rules", "lintcli"]
