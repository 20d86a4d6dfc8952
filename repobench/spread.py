"""Steadiness check: run one workload N times and print each end-to-end
metric's quartile spread against its bound.

    python3 repobench/spread.py --workload cold_adhoc --runs 10

Each run gets its own seed (``--first-seed``, then +1, ...) and lasts
``run_seconds`` from ``BENCHMARK.json``.  The spread
of a metric is the distance between the first and third quartile of its
N values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric whose spread is within a third of its bound is marked
``ok``; within the bound ``near``; beyond it ``WIDE``.  ``setup_s`` is
exempt from the spread rule (only its median may not drift), so it is
marked ``info``.  Exits non-zero if any run fails or any spread other
than ``setup_s`` exceeds its bound.

It also prints each run's count of unanswerable reads.  ``cold_adhoc``
reads the same fixed query set in every run, so its count does not
depend on the seed: counts that differ across runs are flagged, since
they mean the views' answerability changed, not the noise.  Every run
sets up the same document and views, so runs whose sets of views left
unmaterialized differ are flagged too.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNANSWERABLE = re.compile(r"^reads: \d+ untraced, (\d+) unanswerable", re.MULTILINE)
UNMATERIALIZED = re.compile(r"^views not materialized: (.*)$", re.MULTILINE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    unanswerable: list[int] = []
    unmaterialized: set[str] = set()
    for index in range(args.runs):
        seed = args.first_seed + index
        command = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result: {lines[-1]}")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        count = UNANSWERABLE.search(done.stdout)
        assert count is not None, "run description lacks the read line"
        unanswerable.append(int(count.group(1)))
        views = UNMATERIALIZED.search(done.stdout)
        assert views is not None, "run description lacks the set-up line"
        unmaterialized.add(views.group(1))
        print(f"seed {seed} ({wall:.0f} s, {unanswerable[-1]} unanswerable): " + " ".join(
            f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)

    wide = False
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds[name]
        if name == "setup_s":
            mark = "info"
        elif spread <= bound / 3:
            mark = "ok"
        elif spread <= bound:
            mark = "near"
        else:
            mark, wide = "WIDE", True
        print(f"  {name:14s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound:6.2f} {mark}")
    counts = sorted(set(unanswerable))
    flag = ("  CHANGED: the fixed query set's answerability differs across runs"
            if args.workload == "cold_adhoc" and len(counts) > 1 else "")
    print(f"  unanswerable reads per run: {', '.join(map(str, counts))}{flag}")
    for views in sorted(unmaterialized):
        print(f"  views not materialized: {views}")
    if len(unmaterialized) > 1:
        flag = "  CHANGED: set-up left different views unmaterialized in different runs"
        print(flag)
    return 1 if wide or flag else 0


if __name__ == "__main__":
    sys.exit(main())
