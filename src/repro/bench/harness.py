"""Shared benchmark environment construction.

Building a document, materializing a thousand views and constructing
VFILTER takes seconds; benchmarks must not pay that per measurement.
:func:`build_environment` assembles (and module-level caches) one
environment per configuration, so every ``benchmarks/bench_fig*.py``
measures only the operation under study, mirroring how the paper
separates setup from the measured query/lookup/filter phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.system import MaterializedViewSystem
from ..core.vfilter import VFilter
from ..core.view import View
from ..workload.querygen import QueryGenConfig, QueryGenerator, generate_positive
from ..workload.xmark import generate_xmark_document
from ..xmltree.builder import EncodedDocument
from .workloads import SEED_VIEWS, TEST_QUERIES

__all__ = ["BenchEnvironment", "build_environment", "build_view_patterns"]

#: Paper's query-processing workload parameters (Section VI-A).
PROCESSING_CONFIG = QueryGenConfig(
    max_depth=4, prob_wild=0.2, prob_desc=0.2, num_pred=0, num_nestedpath=1
)

#: Paper's VFILTER workload parameters (Section VI-B).
FILTERING_CONFIG = QueryGenConfig(
    max_depth=4, prob_wild=0.2, prob_desc=0.2, num_pred=0, num_nestedpath=2
)


@dataclass(slots=True)
class BenchEnvironment:
    """One fully-materialized system plus its workload."""

    document: EncodedDocument
    system: MaterializedViewSystem
    view_count: int
    test_queries: dict[str, tuple[str, int]] = field(default_factory=dict)


_ENV_CACHE: dict[tuple, BenchEnvironment] = {}
_VIEW_CACHE: dict[tuple, list[View]] = {}


def build_environment(
    scale: float = 0.5,
    view_count: int = 200,
    seed: int = 42,
) -> BenchEnvironment:
    """Build (or reuse) a system with seed views + ``view_count``
    positive random views materialized."""
    key = (scale, view_count, seed)
    cached = _ENV_CACHE.get(key)
    if cached is not None:
        return cached

    document = generate_xmark_document(scale=scale, seed=seed)
    system = MaterializedViewSystem(document)
    for view_id, expression in SEED_VIEWS.items():
        system.register_view(view_id, expression)

    generator = QueryGenerator(document.schema, PROCESSING_CONFIG, seed=seed)
    patterns = generate_positive(generator, document.tree, view_count)
    # One batch: one epoch publish and one VFILTER layer for all views.
    system.register_views(
        {f"G{index}": pattern for index, pattern in enumerate(patterns)}
    )

    environment = BenchEnvironment(
        document, system, system.view_count, dict(TEST_QUERIES)
    )
    _ENV_CACHE[key] = environment
    return environment


def build_view_patterns(
    count: int,
    scale: float = 0.25,
    seed: int = 7,
) -> list[View]:
    """Generate ``count`` positive views as bare :class:`View` objects
    (no materialization) — the VFILTER scaling experiments' input.

    View sets are nested: the first 1000 of ``count=2000`` equal the
    1000-view set, matching the paper's ``V_1 ⊂ V_2 ⊂ … ⊂ V_8``.
    """
    key = (scale, seed)
    cached = _VIEW_CACHE.get(key, [])
    if len(cached) >= count:
        return cached[:count]

    # A fresh generator with the same seed reproduces the same accepted
    # stream, so generating ``count`` from scratch yields a strict
    # superset of every smaller set — the sets are nested by
    # construction, like the paper's V_1 ⊂ … ⊂ V_8.
    document = generate_xmark_document(scale=scale, seed=seed)
    generator = QueryGenerator(document.schema, FILTERING_CONFIG, seed=seed)
    patterns = generate_positive(generator, document.tree, count)
    views = [View(f"F{index}", pattern) for index, pattern in enumerate(patterns)]
    _VIEW_CACHE[key] = views
    return views
