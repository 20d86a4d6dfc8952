"""Ablation: selection objective — fewest views (MV) vs smallest
fragments (HV) vs the combined cost model (paper Section IV-B's
"a cost model that combines above two factors may achieve better
performance", sketched but not implemented there).

For each test query we measure lookup time and end-to-end answer time
under all three selectors, and record the chosen view count and total
fragment bytes — the two resources the objectives trade against each
other.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import TEST_QUERIES
from repro.bench.report import format_bytes, format_seconds
from repro.core.rewrite import rewrite
from repro.core.selection import (
    select_cost_based,
    select_heuristic,
    select_minimum,
)
from repro.xpath import parse_xpath

from conftest import write_results

QUERY_IDS = list(TEST_QUERIES)
SELECTORS = ["MV", "HV", "CB"]

_rows: dict[tuple[str, str], tuple[float, float, int, int]] = {}


def _select(system, selector, pattern):
    if selector == "CB":
        filter_result = system.vfilter.filter(pattern)
        candidates = [system.view(v) for v in filter_result.candidates]
        return select_cost_based(
            candidates, pattern, system.fragments.fragment_bytes
        )
    filter_result = system.vfilter.filter(pattern)
    if selector == "MV":
        candidates = [system.view(v) for v in filter_result.candidates]
        return select_minimum(
            candidates, pattern, system.fragments.fragment_bytes
        )
    return select_heuristic(
        filter_result, system.view, pattern, system.fragments.fragment_bytes
    )


def _answer(system, selector, pattern):
    selection = _select(system, selector, pattern)
    return rewrite(
        selection,
        pattern,
        system.fragments,
        system.document.fst,
    )


@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_ablation_selection(benchmark, env, query_id, selector):
    expression, _ = TEST_QUERIES[query_id]
    pattern = parse_xpath(expression)
    truth = env.system.direct_codes(expression)

    result = _answer(env.system, selector, pattern)
    assert list(result.codes) == truth, (query_id, selector)

    selection = _select(env.system, selector, pattern)
    total_bytes = sum(
        env.system.fragments.fragment_bytes(view_id)
        for view_id in selection.view_ids
    )

    started = time.perf_counter()
    _select(env.system, selector, pattern)
    lookup = time.perf_counter() - started

    benchmark(_answer, env.system, selector, pattern)
    _rows[(query_id, selector)] = (
        lookup, benchmark.stats["mean"], len(selection.views), total_bytes
    )


@pytest.fixture(scope="module", autouse=True)
def _ablation_report():
    yield
    if len(_rows) < len(QUERY_IDS) * len(SELECTORS):
        return
    rows = []
    for query_id in QUERY_IDS:
        for selector in SELECTORS:
            lookup, total, views, size = _rows[(query_id, selector)]
            rows.append([
                query_id,
                selector,
                views,
                format_bytes(size),
                format_seconds(lookup),
                format_seconds(total),
            ])
    write_results(
        "ablation_selection",
        ["query", "selector", "#views", "fragment bytes", "lookup", "answer"],
        rows,
        "Ablation — selection objective: fewest views (MV) vs smallest "
        "fragments (HV) vs cost model (CB)",
    )
