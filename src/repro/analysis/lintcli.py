"""Command-line front end for xmvrlint.

Two entry points share this module: ``python -m repro lint`` (the
subcommand registered in :mod:`repro.cli`) and the ``xmvrlint`` console
script declared in ``pyproject.toml``.  Both accept the same options
and honor the same exit-code contract (0 clean / 1 violations /
2 error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .engine import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_VIOLATIONS,
    LintError,
    ProjectContext,
    all_rules,
    apply_baseline,
    apply_return_none_fixes,
    build_project_context,
    lint_paths,
    load_baseline,
    render_human,
    render_json,
    render_sarif,
    unused_baseline_entries,
    write_baseline,
)

__all__ = [
    "add_lint_arguments",
    "run_lint",
    "explain_rule",
    "graph_payload",
    "render_graph_dot",
    "main",
]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint options on ``parser`` (shared with repro.cli)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        "--rules",
        dest="select",
        metavar="RULES",
        help="comma-separated rule ids or ranges to run, e.g. "
        "'L2,L4' or 'L2-L9'; a range selects the rules inside it "
        "(default: all)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="auto-insert '-> None' on obvious procedures flagged by L5",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the DESIGN.md invariant entry for a rule id and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        help="tolerate the violations recorded in this baseline file "
        "(mypy-style ratchet; regenerate with --write-baseline)",
    )
    parser.add_argument(
        "--baseline-strict",
        action="store_true",
        help="with --baseline: fail (exit 2) when the baseline holds "
        "entries that no longer fire, so stale slots cannot hide "
        "future regressions",
    )
    parser.add_argument(
        "--graph",
        choices=("dot", "json"),
        help="instead of linting, emit the `#: state:` derivation DAG "
        "and the L11 lock-acquisition graph for the given paths in "
        "DOT or JSON and exit",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        type=Path,
        help="write the current violations to a baseline file and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        type=Path,
        help="per-file fact cache directory "
        "(default: .xmvrlint-cache in the current directory)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file fact cache",
    )


def _design_path() -> Path | None:
    """DESIGN.md, looked up from the repo the linted tree lives in."""
    for candidate in (Path.cwd(), *Path.cwd().parents):
        probe = candidate / "DESIGN.md"
        if probe.is_file():
            return probe
    return None


def explain_rule(rule_id: str) -> str:
    """The DESIGN.md §10 invariant entry for ``rule_id``.

    Entries are the ``**Lk — title.** body`` bold paragraphs of the
    invariant catalog; falls back to the rule's one-line summary when
    DESIGN.md is not found.  Unknown ids raise :class:`LintError`.
    """
    wanted = rule_id.strip().upper()
    by_id = {rule.rule_id: rule for rule in all_rules()}
    if wanted not in by_id:
        raise LintError(
            f"unknown rule id {rule_id!r}; known: {', '.join(sorted(by_id))}"
        )
    design = _design_path()
    if design is not None:
        text = design.read_text(encoding="utf-8")
        pattern = re.compile(
            rf"^\*\*{re.escape(wanted)}\s.*?(?=^\*\*[A-Z]+\d+\s|^#|\Z)",
            re.MULTILINE | re.DOTALL,
        )
        match = pattern.search(text)
        if match is not None:
            return match.group(0).rstrip()
    return f"{wanted}: {by_id[wanted].summary}"


def graph_payload(pctx: ProjectContext) -> dict[str, object]:
    """The ``--graph`` document: the ``#: state:`` derivation DAG plus
    the L11 lock-acquisition graph, as one JSON-serializable dict."""
    derivation = pctx.statedeps.derivation_graph()
    concurrency = pctx.concurrency
    lock_nodes = [
        {"id": f"{token[0]}.{token[1]}", "kind": rec.kind}
        for token, rec in sorted(concurrency.locks.items())
    ]
    lock_edges = [
        {
            "source": f"{source[0]}.{source[1]}",
            "target": f"{target[0]}.{target[1]}",
        }
        for source, target in sorted(concurrency.edges)
    ]
    return {
        "derivation": derivation,
        "locks": {"nodes": lock_nodes, "edges": lock_edges},
    }


def render_graph_dot(payload: dict[str, object]) -> str:
    """Render a :func:`graph_payload` document as one DOT digraph with
    a cluster per graph.  Weak derivation edges are dashed; soft state
    is drawn as ellipses, hard state as boxes, counters as plaintext."""
    shapes = {"hard": "box", "soft": "ellipse", "counter": "plaintext"}
    lines = [
        "digraph xmvr_state {",
        "  rankdir=LR;",
        "  node [fontsize=10];",
        "  subgraph cluster_derivation {",
        '    label="derivation DAG (#: state:)";',
    ]
    derivation = payload["derivation"]
    assert isinstance(derivation, dict)
    for node in derivation["nodes"]:
        shape = shapes.get(str(node["kind"]), "ellipse")
        lines.append(f'    "{node["id"]}" [shape={shape}];')
    for edge in derivation["edges"]:
        style = " [style=dashed]" if edge["weak"] else ""
        lines.append(f'    "{edge["source"]}" -> "{edge["target"]}"{style};')
    lines.append("  }")
    locks = payload["locks"]
    assert isinstance(locks, dict)
    lines.append("  subgraph cluster_locks {")
    lines.append('    label="lock acquisition order (L11)";')
    for node in locks["nodes"]:
        lines.append(f'    "{node["id"]}" [shape=diamond];')
    for edge in locks["edges"]:
        lines.append(f'    "{edge["source"]}" -> "{edge["target"]}";')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _run_graph(arguments: argparse.Namespace) -> int:
    pctx = build_project_context(
        arguments.paths, cache_dir=_cache_dir(arguments)
    )
    payload = graph_payload(pctx)
    if arguments.graph == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_graph_dot(payload), end="")
    return EXIT_CLEAN


def _cache_dir(arguments: argparse.Namespace) -> Path | None:
    if arguments.no_cache:
        return None
    if arguments.cache_dir is not None:
        return arguments.cache_dir
    return Path(".xmvrlint-cache")


def run_lint(arguments: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    try:
        if arguments.explain:
            print(explain_rule(arguments.explain))
            return EXIT_CLEAN
        if arguments.graph:
            return _run_graph(arguments)
        select = (
            arguments.select.split(",") if arguments.select else None
        )
        rules = all_rules(select)
        if arguments.list_rules:
            for rule in rules:
                print(f"{rule.rule_id}: {rule.summary}")
            return EXIT_CLEAN
        cache_dir = _cache_dir(arguments)
        violations = lint_paths(arguments.paths, rules, cache_dir=cache_dir)
        if arguments.fix:
            fixed = apply_return_none_fixes(violations)
            if fixed:
                print(f"xmvrlint: fixed {fixed} signature(s)", file=sys.stderr)
                violations = lint_paths(
                    arguments.paths, rules, cache_dir=cache_dir
                )
        if arguments.write_baseline is not None:
            write_baseline(violations, arguments.write_baseline)
            print(
                f"xmvrlint: wrote baseline for {len(violations)} "
                f"violation(s) to {arguments.write_baseline}",
                file=sys.stderr,
            )
            return EXIT_CLEAN
        if arguments.baseline is not None:
            baseline = load_baseline(arguments.baseline)
            if arguments.baseline_strict:
                stale = unused_baseline_entries(violations, baseline)
                if stale:
                    listing = ", ".join(
                        f"{key} (x{count})" for key, count in stale.items()
                    )
                    raise LintError(
                        f"{arguments.baseline}: stale baseline entries no "
                        f"longer fire: {listing}; prune them so the "
                        "ratchet cannot hide regressions"
                    )
            violations = apply_baseline(violations, baseline)
    except LintError as error:
        print(f"xmvrlint: error: {error}", file=sys.stderr)
        return EXIT_ERROR
    if arguments.format == "json":
        print(render_json(violations))
    elif arguments.format == "sarif":
        print(render_sarif(violations, rules))
    else:
        print(render_human(violations))
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xmvrlint",
        description="Project-invariant static analysis for the XMVR "
                    "reproduction (rules L2-L19; see DESIGN.md §10, "
                    "§13 and §15)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
