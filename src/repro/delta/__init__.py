"""Delta propagation: incremental view maintenance under edits.

The subsystem turns a subtree insert/delete into scoped, patch-in-place
upkeep of the materialized views and caches:

* :mod:`repro.delta.delta` — :class:`SubtreeDelta`, the pre-mutation
  summary of one edit (packed Dewey range + concrete label paths);
* :mod:`repro.delta.resolver` — splits the view pool into untouched /
  affected by running the delta through the VFILTER NFAs,
  scopes each flagged view's re-evaluation to the subtree where a
  predicate can flip, and classifies the cached plans those views
  flag the same way;
* :mod:`repro.delta.patcher` — splices affected views' fragments by
  packed-Dewey range, byte-identical to a full re-materialization, and
  cached plans' answers by code range;
* :mod:`repro.delta.maintenance` — :class:`DocumentEditor`, the write
  path tying it together with plan-cache upkeep and base-index
  patching.
"""

from .delta import SubtreeDelta
from .maintenance import DocumentEditor, MaintenanceReport, ViewMaintenance
from .patcher import FragmentPatcher
from .resolver import (
    AffectedViews,
    PlanImpact,
    ViewImpact,
    resolve_affected,
)

__all__ = [
    "AffectedViews",
    "DocumentEditor",
    "FragmentPatcher",
    "MaintenanceReport",
    "PlanImpact",
    "SubtreeDelta",
    "ViewImpact",
    "ViewMaintenance",
    "resolve_affected",
]
