"""Static analysis and runtime contracts for the reproduction.

Two halves, both protecting the invariants PR 1's caching layer made
load-bearing (see DESIGN.md §10 for the catalog):

* :mod:`repro.analysis.engine` / :mod:`repro.analysis.rules` —
  ``xmvrlint``, a linter with repo-specific rules: per-file AST rules
  L1–L5 (plan-cache invalidation discipline, frozen interned patterns,
  ``id()``-key escapes, wall-clock/randomness bans in ``core/``,
  public-API annotation coverage) and whole-program rules L6–L9
  (interprocedural invalidation, exception safety of mutation windows,
  purity of cache inputs, import layering) built on
  :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.dataflow` and
  :mod:`repro.analysis.effects`.  Run it with ``python -m repro lint``
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
