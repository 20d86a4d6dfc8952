"""Command-line interface: ``python -m repro <command>``.

Small operational surface over the library, useful for poking at the
system without writing code:

* ``generate``  — write an XMark-like document to a file.
* ``answer``    — load a document, register views, answer a query with
  a chosen strategy (and optionally cross-check against direct
  evaluation).
* ``filter``    — show VFILTER candidates and ``LIST(P_i)`` for a query
  against a list of view definitions.
* ``explain``   — print leaf covers and obligations for views vs a query.
* ``lint``      — run the project's static-analysis pass (xmvrlint).
* ``serve``     — run the concurrent HTTP/JSON query service
  (``--smoke N`` starts it on an ephemeral port, drives N requests
  through the HTTP load client, validates the ``/metrics`` exposition
  against the engine's own ``stats()``, and exits nonzero on any 5xx).
* ``slowlog``   — fetch and pretty-print a running server's slow-query
  log (``GET /debug/slow``), span trees included.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from typing import Any

from . import __version__
from .core.leaf_cover import leaf_cover_labels, obligations_of
from .core.system import MaterializedViewSystem
from .core.vfilter import VFilter
from .core.view import View
from .errors import ReproError
from .workload.xmark import generate_xmark
from .xmltree.builder import encode_tree
from .xmltree.dewey import format_code
from .xmltree.parser import parse_xml_file
from .xmltree.serializer import serialize
from .xpath.parser import parse_xpath

__all__ = ["main"]


def _load_views(arguments: argparse.Namespace) -> dict[str, str]:
    """Views from ``--view id=expr`` options and/or a ``--views`` file
    with ``id <whitespace> expression`` lines (# comments allowed)."""
    views: dict[str, str] = {}
    for item in arguments.view or []:
        if "=" not in item:
            raise SystemExit(f"--view expects id=expression, got {item!r}")
        view_id, _, expression = item.partition("=")
        views[view_id.strip()] = expression.strip()
    if arguments.views:
        with open(arguments.views, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise SystemExit(f"bad view line: {line!r}")
                views[parts[0]] = parts[1]
    if not views:
        raise SystemExit("no views given; use --view ID=EXPR or --views FILE")
    return views


def _build_system(arguments: argparse.Namespace) -> MaterializedViewSystem:
    if arguments.document:
        tree = parse_xml_file(arguments.document)
    else:
        tree = generate_xmark(scale=arguments.scale, seed=arguments.seed)
    document = encode_tree(tree)
    system = MaterializedViewSystem(document)
    views = _load_views(arguments)
    fitted = set(system.register_views(views))
    for view_id in views:
        if view_id not in fitted:
            print(f"note: view {view_id} exceeds the fragment cap; excluded",
                  file=sys.stderr)
    return system


def _cmd_serve(arguments: argparse.Namespace) -> int:
    from .service import (
        HTTPClient,
        QueryScheduler,
        QueryServiceServer,
        SnapshotEngine,
        build_query_mix,
        run_closed_loop,
        zipf_weights,
    )

    if arguments.document:
        tree = parse_xml_file(arguments.document)
    else:
        tree = generate_xmark(scale=arguments.scale, seed=arguments.seed)
    system = MaterializedViewSystem(encode_tree(tree))
    try:
        views = _load_views(arguments)
    except SystemExit:
        # Serving with zero views is legitimate: clients register
        # over POST /register.  Smoke mode needs an answerable mix,
        # so it falls back to a small stock XMark view set.
        views = {}
        if arguments.smoke:
            views = {
                "name": "//item/name",
                "person": "//person/name",
                "paid": "//item[payment]/description",
            }
    if views:
        system.register_views(views)

    engine = SnapshotEngine(system)
    scheduler = QueryScheduler(
        engine,
        workers=arguments.threads,
        queue_limit=arguments.queue_limit,
        default_timeout=arguments.timeout_ms / 1e3,
    )
    port = 0 if arguments.smoke else arguments.port
    server = QueryServiceServer(
        engine, scheduler, host=arguments.host, port=port,
        verbose=arguments.verbose,
    )
    host, bound_port = server.address

    if arguments.smoke:
        server.start()
        try:
            queries = build_query_mix(system)
            # Split the budget around a maintenance phase: edits land
            # mid-run, with live reads before and after them.
            first_half = max(1, arguments.smoke // 2)
            report = run_closed_loop(
                lambda: HTTPClient(host, bound_port),
                queries,
                total_requests=first_half,
                concurrency=min(8, arguments.threads * 2),
                weights=zipf_weights(len(queries)),
                seed=arguments.seed,
            )
            edit_error = _drive_smoke_edits(host, bound_port)
            second = run_closed_loop(
                lambda: HTTPClient(host, bound_port),
                queries,
                total_requests=max(1, arguments.smoke - first_half),
                concurrency=min(8, arguments.threads * 2),
                weights=zipf_weights(len(queries)),
                seed=arguments.seed + 1,
            )
            report.requests += second.requests
            report.elapsed_seconds += second.elapsed_seconds
            for status, count in second.status_counts.items():
                report.status_counts[status] = (
                    report.status_counts.get(status, 0) + count
                )
            report.latencies_ms.extend(second.latencies_ms)
            # Scrape while the server is still up: the exposition must
            # parse, count the traffic we just drove, and agree with
            # the engine's own stats() — same cells, two readouts.
            telemetry_error = _check_telemetry_endpoints(
                host, bound_port, system
            )
            if telemetry_error is None:
                telemetry_error = _check_maintenance_metrics(
                    host, bound_port, system
                )
        finally:
            server.shutdown()
        print(f"smoke: {report.requests} requests, "
              f"{report.ok} ok, {report.server_errors} server errors, "
              f"{report.throughput:.0f} q/s, "
              f"p50 {report.percentile(0.5):.2f} ms, "
              f"p99 {report.percentile(0.99):.2f} ms")
        if arguments.profile:
            _print_profile(system)
        if edit_error is not None:
            print(f"smoke: maintenance FAILED: {edit_error}",
                  file=sys.stderr)
            return 2
        if telemetry_error is not None:
            print(f"smoke: telemetry FAILED: {telemetry_error}",
                  file=sys.stderr)
            return 2
        print("smoke: telemetry OK (/metrics parses, counters agree "
              "with stats, /debug/slow populated, maintenance counters "
              "consistent)")
        if report.server_errors or report.ok != report.requests:
            print("smoke: FAILED", file=sys.stderr)
            return 2
        print("smoke: OK (clean shutdown)")
        return 0

    print(f"serving on http://{host}:{bound_port} "
          f"({arguments.threads} workers, queue {arguments.queue_limit}, "
          f"{system.view_count} views)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _http_get(
    host: str, port: int, path: str, timeout: float = 10.0
) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _http_post(
    host: str, port: int, path: str, body: dict[str, Any],
    timeout: float = 30.0,
) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST", path, json.dumps(body),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _drive_smoke_edits(host: str, port: int) -> str | None:
    """Exercise ``POST /edit`` against the live server: delete one
    ``//item/name`` answer, re-insert a replacement under the same
    item, and confirm the served answer count is conserved.  Returns an
    error description, or None when the write path checks out."""
    status, payload = _http_post(
        host, port, "/query", {"query": "//item/name"}
    )
    if status != 200:
        return f"pre-edit POST /query returned {status}"
    codes = json.loads(payload).get("codes", [])
    if not codes:
        return "pre-edit //item/name returned no answers to edit"
    victim = codes[0]
    status, payload = _http_post(
        host, port, "/edit", {"op": "delete", "node": victim}
    )
    if status != 200:
        return f"POST /edit delete returned {status}: {payload[:200]!r}"
    report = json.loads(payload)
    if report.get("operation") != "delete" or report.get("full_reencode"):
        return f"unexpected delete report: {report}"
    parent = victim.rsplit(".", 1)[0]
    status, payload = _http_post(
        host, port, "/edit",
        {
            "op": "insert",
            "parent": parent,
            "subtree": {"label": "name", "text": "smoke-edit"},
        },
    )
    if status != 200:
        return f"POST /edit insert returned {status}: {payload[:200]!r}"
    report = json.loads(payload)
    if report.get("operation") != "insert" or report.get("full_reencode"):
        return f"unexpected insert report: {report}"
    status, payload = _http_post(
        host, port, "/query", {"query": "//item/name"}
    )
    if status != 200:
        return f"post-edit POST /query returned {status}"
    after = json.loads(payload).get("codes", [])
    if len(after) != len(codes):
        return (
            f"answer count not conserved across delete+insert: "
            f"{len(codes)} before, {len(after)} after"
        )
    return None


def _check_maintenance_metrics(
    host: str, port: int, system: MaterializedViewSystem
) -> str | None:
    """The maintenance counters must be nonzero after the smoke edits
    and agree with ``stats()`` — same cells, two readouts."""
    from .obs import parse_exposition

    status, payload = _http_get(host, port, "/metrics")
    if status != 200:
        return f"GET /metrics returned {status}"
    families = parse_exposition(payload.decode("utf-8"))
    ops = families.get("repro_maintenance_total")
    if ops is None:
        return "/metrics lacks repro_maintenance_total"
    for op in ("insert", "delete"):
        exposed = ops.value(op=op)
        if not exposed:
            return f"repro_maintenance_total{{op={op!r}}} is zero " \
                   f"after the smoke edits"
    maintenance = system.stats()["maintenance"]
    assert isinstance(maintenance, dict)
    for op, expected in maintenance["repro_maintenance_total"].items():
        exposed = ops.value(op=op) or 0.0
        if exposed != expected:
            return (
                f"repro_maintenance_total{{op={op!r}}}: /metrics "
                f"{exposed} disagrees with stats() {expected}"
            )
    modes = families.get("repro_maintenance_ops_total")
    if modes is None:
        return "/metrics lacks repro_maintenance_ops_total"
    if not (modes.value(op="insert", mode="delta") and
            modes.value(op="delete", mode="delta")):
        return "smoke edits did not take the delta maintenance path"
    return None


def _check_telemetry_endpoints(
    host: str, port: int, system: MaterializedViewSystem
) -> str | None:
    """Validate ``/metrics`` and ``/debug/slow`` against a live system;
    returns an error description, or None when everything checks out."""
    from .obs import parse_exposition

    status, payload = _http_get(host, port, "/metrics")
    if status != 200:
        return f"GET /metrics returned {status}"
    try:
        families = parse_exposition(payload.decode("utf-8"))
    except ValueError as error:
        return f"/metrics exposition is malformed: {error}"
    answers = families.get("repro_answers_total")
    if answers is None:
        return "/metrics lacks repro_answers_total"
    served = sum(answers.samples.values())
    if served <= 0:
        return "repro_answers_total is zero after the smoke run"
    stage_family = families.get("repro_stage_seconds")
    if stage_family is None:
        return "/metrics lacks repro_stage_seconds"
    stage_seconds = system.stats()["stage_seconds"]
    assert isinstance(stage_seconds, dict)
    for stage, expected in stage_seconds.items():
        exposed = stage_family.value(
            name="repro_stage_seconds_sum", stage=stage
        )
        if exposed is None:
            exposed = 0.0
        # Same histogram cells read twice; only traffic between the
        # scrape and the stats() call can make them differ, and the
        # closed loop has drained by now.
        if abs(exposed - expected) > max(1e-6, 0.05 * expected):
            return (
                f"stage {stage!r}: /metrics sum {exposed:.6f}s "
                f"disagrees with stats() {expected:.6f}s"
            )
    status, payload = _http_get(host, port, "/debug/slow")
    if status != 200:
        return f"GET /debug/slow returned {status}"
    body = json.loads(payload)
    records = body.get("slow_queries")
    if not isinstance(records, list) or not records:
        return "/debug/slow recorded no queries during the smoke run"
    first = records[0]
    for key in ("trace_id", "query", "total_seconds", "stage_seconds"):
        if key not in first:
            return f"/debug/slow records lack {key!r}"
    return None


def _print_span(span: dict[str, Any], indent: int) -> None:
    duration_ms = span.get("duration_seconds", 0.0) * 1e3
    attributes = span.get("attributes", {})
    rendered = ", ".join(
        f"{key}={value}" for key, value in sorted(attributes.items())
    )
    suffix = f"  [{rendered}]" if rendered else ""
    print(f"{'  ' * indent}- {span.get('name')} "
          f"{duration_ms:.3f} ms{suffix}")
    for child in span.get("children", []):
        _print_span(child, indent + 1)


def _cmd_slowlog(arguments: argparse.Namespace) -> int:
    path = "/debug/slow"
    if arguments.limit:
        path += f"?limit={arguments.limit}"
    try:
        status, payload = _http_get(arguments.host, arguments.port, path)
    except OSError as error:
        print(f"error: cannot reach {arguments.host}:{arguments.port}: "
              f"{error}", file=sys.stderr)
        return 1
    if status != 200:
        print(f"error: GET {path} returned {status}", file=sys.stderr)
        return 1
    body = json.loads(payload)
    if arguments.json:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    records = body.get("slow_queries", [])
    print(f"slow-query log: {len(records)} resident "
          f"(capacity {body.get('capacity')}, "
          f"{body.get('recorded')} recorded)")
    for record in records:
        stages = ", ".join(
            f"{stage}={seconds * 1e3:.2f}ms"
            for stage, seconds in sorted(
                record.get("stage_seconds", {}).items()
            )
            if seconds > 0.0
        )
        print(f"\n{record['trace_id']}  {record['query']}  "
              f"[{record['strategy']}]  {record['status']}  "
              f"{record['total_seconds'] * 1e3:.2f} ms  "
              f"epoch {record['epoch']}  "
              f"{'plan-cache hit' if record['plan_cache_hit'] else 'cold'}")
        if stages:
            print(f"  stages: {stages}")
        for span in record.get("spans", []):
            _print_span(span, 1)
    return 0


#: Printing order for ``--profile``: the cold-path pipeline stages
#: first (parse → vfilter → cover → selection → refine → join →
#: extract), then the coarse lookup/rewrite roll-ups.
_PROFILE_STAGES = (
    "parse", "vfilter", "cover", "selection",
    "refine", "join", "extract", "lookup", "rewrite",
)


def _print_profile(system: MaterializedViewSystem) -> None:
    """Per-stage cumulative wall-clock times from the system stats."""
    stage_seconds = system.stats()["stage_seconds"]
    assert isinstance(stage_seconds, dict)
    print("profile  : cumulative stage times (ms)")
    for stage in _PROFILE_STAGES:
        seconds = stage_seconds.get(stage)
        if seconds is None:
            continue
        print(f"  {stage:<9} {seconds * 1e3:10.2f}")


def _render_stat(value: Any) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _cmd_generate(arguments: argparse.Namespace) -> int:
    tree = generate_xmark(scale=arguments.scale, seed=arguments.seed)
    payload = serialize(tree, indent=1 if arguments.pretty else None)
    with open(arguments.output, "w", encoding="utf-8") as handle:
        handle.write(payload)
    print(f"wrote {tree.size()} elements to {arguments.output}")
    return 0


def _cmd_answer(arguments: argparse.Namespace) -> int:
    system = _build_system(arguments)
    started = time.perf_counter()
    outcome = system.answer(arguments.query, arguments.strategy)
    elapsed = time.perf_counter() - started
    warm_elapsed: float | None = None
    if arguments.repeat > 1:
        warm_started = time.perf_counter()
        for _ in range(arguments.repeat - 1):
            outcome = system.answer(arguments.query, arguments.strategy)
        warm_elapsed = (
            (time.perf_counter() - warm_started) / (arguments.repeat - 1)
        )
    print(f"strategy : {outcome.strategy}")
    print(f"views    : {outcome.view_ids}")
    print(f"answers  : {len(outcome.codes)} "
          f"({elapsed * 1e3:.2f} ms total, "
          f"{outcome.lookup_seconds * 1e3:.2f} ms lookup)")
    if warm_elapsed is not None:
        hit = "hit" if outcome.plan_cache_hit else "miss"
        print(f"warm     : {warm_elapsed * 1e3:.2f} ms/answer over "
              f"{arguments.repeat - 1} repeats (plan cache {hit})")
    for code in outcome.codes[: arguments.limit]:
        print(f"  {format_code(code)}")
    if len(outcome.codes) > arguments.limit:
        print(f"  ... {len(outcome.codes) - arguments.limit} more")
    if arguments.stats:
        print("stats    :")
        for section, values in system.stats().items():
            if isinstance(values, dict):
                parts = []
                for key, value in values.items():
                    if isinstance(value, dict):
                        # Nested sections (e.g. maintenance metric
                        # families, labels → values) flatten one level.
                        inner = ", ".join(
                            f"{k}={_render_stat(v)}"
                            for k, v in value.items()
                        )
                        parts.append(f"{key}[{inner}]")
                    else:
                        parts.append(f"{key}={_render_stat(value)}")
                print(f"  {section}: " + ", ".join(parts))
            else:
                print(f"  {section}: {values}")
    if arguments.profile:
        _print_profile(system)
    if arguments.check:
        truth = system.direct_codes(arguments.query)
        status = "OK" if truth == outcome.codes else "MISMATCH"
        print(f"direct-evaluation check: {status}")
        return 0 if status == "OK" else 2
    return 0


def _cmd_filter(arguments: argparse.Namespace) -> int:
    vfilter = VFilter()
    for view_id, expression in _load_views(arguments).items():
        vfilter.add_view(View.from_xpath(view_id, expression))
    query = parse_xpath(arguments.query)
    result = vfilter.filter(query)
    print(f"candidates ({len(result.candidates)}): {list(result.candidates)}")
    for path, entries in result.lists.items():
        print(f"LIST({path.to_xpath()}) = {entries}")
    return 0


def _cmd_lint(arguments: argparse.Namespace) -> int:
    from .analysis.lintcli import run_lint

    return run_lint(arguments)


def _cmd_explain(arguments: argparse.Namespace) -> int:
    query = parse_xpath(arguments.query)
    if arguments.document or arguments.full:
        # Full diagnostics need materialized fragments.
        from .core.explain import explain_query

        system = _build_system(arguments)
        explanation = explain_query(system, query)
        print(explanation.render())
        return 0 if explanation.answerable else 3
    print(f"query: {query.to_xpath(mark_answer=True)}")
    print("obligations:",
          sorted(str(obligation) for obligation in obligations_of(query)))
    for view_id, expression in _load_views(arguments).items():
        view = View.from_xpath(view_id, expression)
        covered = sorted(leaf_cover_labels(view, query))
        print(f"  LC({view_id}: {expression}) = {covered}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiple materialized view selection for XPath "
                    "query rewriting (ICDE 2008 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write an XMark-like document")
    generate.add_argument("output")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--pretty", action="store_true")
    generate.set_defaults(handler=_cmd_generate)

    def add_common(sub: argparse.ArgumentParser, with_document: bool) -> None:
        sub.add_argument("query", help="XPath query in XP{/, //, *, []}")
        sub.add_argument("--view", action="append", metavar="ID=EXPR")
        sub.add_argument("--views", metavar="FILE",
                         help="file of 'id expression' lines")
        if with_document:
            sub.add_argument("--document", metavar="XML",
                             help="XML file (default: generated XMark)")
            sub.add_argument("--scale", type=float, default=1.0)
            sub.add_argument("--seed", type=int, default=42)

    answer = commands.add_parser("answer", help="answer a query from views")
    add_common(answer, with_document=True)
    answer.add_argument("--strategy", choices=("HV", "MV", "MN", "CB"),
                        default="HV")
    answer.add_argument("--limit", type=int, default=10,
                        help="answers to print (default 10)")
    answer.add_argument("--check", action="store_true",
                        help="cross-check against direct evaluation")
    answer.add_argument("--repeat", type=int, default=1,
                        help="answer the query N times to exercise the "
                             "plan cache (default 1)")
    answer.add_argument("--stats", action="store_true",
                        help="print plan-cache/memo/stage counters")
    answer.add_argument("--profile", action="store_true",
                        help="print cumulative per-stage times (parse, "
                             "vfilter, cover, selection, refine, join, "
                             "extract)")
    answer.set_defaults(handler=_cmd_answer)

    filter_ = commands.add_parser("filter", help="show VFILTER candidates")
    add_common(filter_, with_document=False)
    filter_.set_defaults(handler=_cmd_filter)

    explain = commands.add_parser("explain", help="show leaf covers")
    add_common(explain, with_document=True)
    explain.add_argument(
        "--full", action="store_true",
        help="materialize the views and show full selection diagnostics",
    )
    explain.set_defaults(handler=_cmd_explain)

    serve = commands.add_parser(
        "serve", help="run the concurrent HTTP/JSON query service"
    )
    serve.add_argument("--view", action="append", metavar="ID=EXPR")
    serve.add_argument("--views", metavar="FILE",
                       help="file of 'id expression' lines")
    serve.add_argument("--document", metavar="XML",
                       help="XML file (default: generated XMark)")
    serve.add_argument("--scale", type=float, default=0.5)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--threads", type=int, default=4,
                       help="scheduler worker threads (default 4)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission queue depth (default 64)")
    serve.add_argument("--timeout-ms", type=float, default=10_000.0,
                       help="default per-request deadline (default 10s)")
    serve.add_argument("--smoke", type=int, default=0, metavar="N",
                       help="serve on an ephemeral port, drive N HTTP "
                            "requests, exit nonzero on any 5xx")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.add_argument("--profile", action="store_true",
                       help="with --smoke: print cumulative per-stage "
                            "times after the run")
    serve.set_defaults(handler=_cmd_serve)

    slowlog = commands.add_parser(
        "slowlog",
        help="fetch a running server's slow-query log (/debug/slow)",
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=8080)
    slowlog.add_argument("--limit", type=int, default=0,
                         help="show only the N slowest (default: all)")
    slowlog.add_argument("--json", action="store_true",
                         help="raw JSON instead of the rendered tree")
    slowlog.set_defaults(handler=_cmd_slowlog)

    lint = commands.add_parser(
        "lint", help="run xmvrlint over the source tree"
    )
    from .analysis.lintcli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
