"""Figure 11: VFILTER database size scaling S_i/S_1 on V_1..V_8.

The automaton is persisted into the embedded KV store (the paper uses
Berkeley DB) and the stored byte size recorded.  Paper shape: growth is
much smoother than linear because additional views share path prefixes
— the paper reports ``S_8/S_1 ≈ 3.09`` for 8× the views.
"""

from __future__ import annotations

import pytest

from repro.core import VFilter
from repro.storage import KVStore

from conftest import BENCH_SETS, write_results

_sizes: dict[int, tuple[int, int, int]] = {}


@pytest.mark.parametrize("count", BENCH_SETS)
def test_fig11_vfilter_size(benchmark, view_sets, count):
    views = view_sets[count]

    def build_and_store():
        vfilter = VFilter()
        vfilter.add_views(views)
        store = KVStore()
        written = vfilter.save(store)
        return vfilter, written

    vfilter, written = benchmark(build_and_store)
    _sizes[count] = (written, vfilter.nfa.state_count, vfilter.nfa.transition_count)


@pytest.fixture(scope="module", autouse=True)
def _fig11_report(view_sets):
    yield
    if len(_sizes) < len(BENCH_SETS):
        return
    base = _sizes[BENCH_SETS[0]][0]
    rows = []
    for count in BENCH_SETS:
        written, states, transitions = _sizes[count]
        rows.append([
            count,
            written,
            f"{written / base:.2f}",
            f"{count / BENCH_SETS[0]:.1f}",
            states,
            transitions,
        ])
    title = ("Figure 11 — VFILTER stored size scaling, automaton records "
             "only (S_i/S_1 vs linear)")
    write_results(
        "fig11_size",
        ["views", "bytes", "S_i/S_1", "linear", "states", "transitions"],
        rows,
        title,
    )
    # The headline claim: growth far smoother than linear.
    s_last = _sizes[BENCH_SETS[-1]][0] / base
    linear = BENCH_SETS[-1] / BENCH_SETS[0]
    assert s_last < linear * 0.8
