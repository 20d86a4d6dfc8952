"""Repository benchmark: host-normalized read and edit latency.

Run from the root of a checkout::

    python3 repobench/run.py --workload warm_zipf --seed 1 --seconds 2 --trace 0

Workloads: ``warm_zipf``, ``cold_adhoc``, ``serve_mixed`` (see
``repobench/README.md``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ledger metrics with
``--trace 1``.  The lines before it describe the run (raw timings, the
host reference, and with ``--trace 1`` the ledger table).  Any failed
operation, wrong answer or broken ledger check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Environment knobs that would change what is measured; the benchmark
#: runs the shipped defaults.
_KNOBS = ("XMVR_CHECK", "XMVR_CHECK_SAMPLE", "REPRO_REGISTER_WORKERS",
          "REPRO_TRACE_SAMPLE", "REPRO_SLOWLOG_CAPACITY")

#: Ledger rows must add up to the traced wall time within this share.
LEDGER_TOLERANCE = 0.05

#: Ceiling on the ``other`` row per traced operation (normalized ms):
#: about three times what the benchmark loop costs on each workload, so
#: work that runs outside every wrapped entry point shows as a failed
#: ledger check rather than a larger ``other``.  A ceiling per operation
#: rather than a share of wall time, so that making the wrapped layers
#: faster cannot trip it.
OTHER_CEILING_MS = {"warm_zipf": 0.04, "cold_adhoc": 0.05, "serve_mixed": 0.15}


def _quantile(values: list[float], n: int, index: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[index]


def end_to_end(result: Any) -> dict[str, tuple[float, str]]:
    m = result.measurements
    reads = m.normalized_ms("untraced", "read")
    edits = m.normalized_ms("untraced", "edit")
    setup = [sum(parts.values()) for parts in result.setups]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "read_p50_ms": (statistics.median(reads), "ms"),
        "read_p99_ms": (_quantile(reads, 100, 98), "ms"),
        "reads_per_s": (len(reads) / (sum(reads) / 1e3), "1/s"),
        "edit_p50_ms": (statistics.median(edits), "ms"),
        "edit_p90_ms": (_quantile(edits, 10, 8), "ms"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def per_layer(result: Any) -> dict[str, tuple[float, str]]:
    m = result.measurements
    reads = len(m.ops[("traced", "read")])
    edits = len(m.ops[("traced", "edit")])
    traced = result.traced
    c = traced.counters

    def per(count: int, value: float) -> float:
        return value / count if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def read_us(layer: str) -> tuple[float, str]:
        return per(reads, m.layer_s[("read", layer)]) * 1e6, "us"

    def read_ms(layer: str) -> tuple[float, str]:
        return per(reads, m.layer_s[("read", layer)]) * 1e3, "ms"

    def edit_ms(layer: str) -> tuple[float, str]:
        return per(edits, m.layer_s[("edit", layer)]) * 1e3, "ms"

    def setup_s(part: str) -> tuple[float, str]:
        return statistics.median(parts[part] for parts in result.setups), "s"

    candidates = m.counts[("read", "vfilter.candidates")]
    other = sum(m.layer_s[(kind, "other")] for kind in ("read", "edit"))
    traced_ms = m.normalized_ms("traced", "read") + m.normalized_ms("traced", "edit")
    untraced_ms = m.normalized_ms("untraced", "read") + m.normalized_ms("untraced", "edit")
    return {
        "xpath.self_us": read_us("xpath"),
        "plancache.self_us": read_us("plancache"),
        "plancache.hit_ratio": (ratio(c["plan.hits"], c["plan.hits"] + c["plan.misses"]), "ratio"),
        "plancache.evictions_per_kread": (per(reads, c["plan.evictions"]) * 1e3, "count"),
        "obs.self_us": read_us("obs"),
        "system.self_us": read_us("system"),
        "vfilter.self_us": read_us("vfilter"),
        "vfilter.candidates_per_read": (per(reads, candidates), "count"),
        "vfilter.selected_ratio": (ratio(m.counts[("read", "selection.selected")], candidates), "ratio"),
        "cover.self_us": read_us("cover"),
        "cover.memo_served_ratio": (
            ratio(c["memo.served"], c["memo.served"] + c["memo.computed"]), "ratio"),
        "selection.self_us": read_us("selection"),
        "selection.unanswerable_share": (per(reads, traced.unanswerable), "ratio"),
        "storage.self_us": read_us("storage"),
        "rewrite.refine.self_ms": read_ms("rewrite.refine"),
        "rewrite.join.self_ms": read_ms("rewrite.join"),
        "rewrite.extract.self_ms": read_ms("rewrite.extract"),
        "rewrite.fragments_per_answer": (
            ratio(m.counts[("read", "storage.fragments")], m.counts[("read", "rewrite.answers")]),
            "count"),
        "service.http.self_ms": read_ms("service.http"),
        "service.scheduler.wait_ms": read_ms("service.scheduler.wait"),
        "service.scheduler.self_us": read_us("service.scheduler"),
        "service.scheduler.coalesced_share": (
            ratio(c.get("sched.coalesced", 0.0), c.get("sched.submitted", 0.0)), "ratio"),
        "service.engine.gate_wait_ms": read_ms("service.engine"),
        "service.engine.drain_ms": edit_ms("service.engine.drain"),
        "delta.edit.self_ms": edit_ms("delta.edit"),
        "delta.resolve.self_ms": edit_ms("delta.resolve"),
        "delta.affected_views_per_edit": (
            per(edits, c["views.patched"] + c["views.rebuilt"]), "count"),
        "delta.patch.self_ms": edit_ms("delta.patch"),
        "delta.views_patched_per_edit": (per(edits, c["views.patched"]), "count"),
        "delta.rebuild.self_ms": edit_ms("delta.rebuild"),
        "delta.views_rebuilt_per_edit": (per(edits, c["views.rebuilt"]), "count"),
        "delta.base_patch.self_ms": edit_ms("delta.base_patch"),
        "plancache.invalidate.self_us": (
            per(edits, m.layer_s[("edit", "plancache.invalidate")]) * 1e6, "us"),
        "plancache.plans_dropped_per_edit": (per(edits, c["plan.dropped"]), "count"),
        "plancache.rederive_reads_per_edit": (per(edits, c["plan.misses"]), "count"),
        "setup.document_s": setup_s("document"),
        "setup.register_s": setup_s("register"),
        "setup.server_start_s": setup_s("server_start"),
        "storage.fragment_bytes": (float(result.fragment_bytes), "bytes"),
        "other.self_ms": (per(reads + edits, other) * 1e3, "ms"),
        "trace.overhead_ratio": (
            ratio(per(len(traced_ms), sum(traced_ms)),
                  per(len(untraced_ms), sum(untraced_ms))), "ratio"),
    }


def ledger_problems(result: Any, expected: tuple[str, ...], other_ms: float,
                    other_ceiling_ms: float) -> list[str]:
    """The traced run's own checks."""
    problems = []
    tracer = result.traced.tracer
    silent = sorted(set(expected) - tracer.fired)
    if silent:
        problems.append(f"spans that never fired: {', '.join(silent)}")
    if tracer.strays or tracer.misnested:
        problems.append(f"{tracer.strays} spans outside an operation, "
                        f"{tracer.misnested} closed out of order")
    rows = sum(result.measurements.layer_raw_s.values())
    wall = result.traced.wall_s
    if wall <= 0 or abs(rows - wall) > LEDGER_TOLERANCE * wall:
        problems.append(f"ledger rows sum to {rows:.4f} s, traced wall is {wall:.4f} s")
    if other_ms > other_ceiling_ms:
        problems.append(f"other row is {other_ms:.4f} ms per operation, above "
                        f"{other_ceiling_ms} ms: work outside every hook?")
    return problems


def ledger_table(result: Any, layers: tuple[str, ...]) -> list[str]:
    m = result.measurements
    rows = sum(m.layer_raw_s.values())
    wall = result.traced.wall_s
    lines = [f"ledger: traced wall {wall * 1e3:.1f} ms, "
             f"rows {rows * 1e3:.1f} ms ({rows / wall:.3f} of wall)",
             f"  {'layer':26s} {'raw ms':>11s} {'share':>7s} {'norm ms':>11s}"]
    for layer in layers:
        raw = m.layer_raw_s.get(layer, 0.0)
        normalized = m.layer_s[("read", layer)] + m.layer_s[("edit", layer)]
        lines.append(f"  {layer:26s} {raw * 1e3:11.2f} {raw / rows:7.3f} "
                     f"{normalized * 1e3:11.2f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"repobench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    for knob in _KNOBS:
        os.environ.pop(knob, None)
    sys.path[:0] = [str(SOURCE), str(ROOT)]

    from repobench.ledger import LAYERS, expected_layers
    from repobench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"repobench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    m = result.measurements
    problems = list(m.failures)
    for line in result.description:
        print(line)
    for kind in ("read", "edit"):
        raw = m.raw_ms("untraced", kind)
        if raw:
            outcome = (f"{m.unanswerable['untraced']} unanswerable, "
                       if kind == "read" else "")
            print(f"{kind}s: {len(raw)} untraced, {outcome}raw p50 "
                  f"{statistics.median(raw):.4f} ms, raw max {max(raw):.4f} ms")
    if args.trace:
        metrics = per_layer(result)
        problems += ledger_problems(result, expected_layers(args.workload),
                                    metrics["other.self_ms"][0],
                                    OTHER_CEILING_MS[args.workload])
        for line in ledger_table(result, LAYERS):
            print(line)
    else:
        metrics = end_to_end(result)
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    attempted = sum(len(ops) for ops in m.ops.values())
    failed = len(m.failures)
    output = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(output))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
