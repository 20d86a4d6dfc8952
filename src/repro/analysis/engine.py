"""``xmvrlint`` engine: rule registry, suppressions, output, exit codes.

The linter is deliberately small and dependency-free: Python's ``ast``
and ``tokenize`` modules are the whole parsing stack.  Rules are plugin
classes registered with :func:`register`; each receives a parsed
:class:`FileContext` and yields :class:`Violation` objects.

Suppressions
------------
A comment anywhere on a flagged line (for function-level rules: the
``def`` line the violation is reported at) disables named rules::

    pattern.ret.axis = None  # xmvrlint: disable=L2 -- justification

``disable=all`` disables every rule for the line, and
``disable-file=L4`` (on any line) disables a rule for the whole file.
Text after the rule list is free-form justification.  For the
concurrency rules (L10–L14) and the derived-state rules (L15–L19) the
justification is *mandatory*: a line pragma without ``-- <reason>``
does not suppress them — the engine enforces "zero unjustified
suppressions" rather than trusting review.

Exit codes
----------
``0`` — clean, ``1`` — violations found, ``2`` — usage or internal
error (unreadable/unparsable file, unknown rule id).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import pickle
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .callgraph import Project, build_project
from .dataflow import FileSummary, summarize_module
from .effects import ProgramFacts, analyze

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .concurrency import ConcurrencyFacts
    from .statedeps import StateFacts

__all__ = [
    "EXIT_CLEAN",
    "EXIT_VIOLATIONS",
    "EXIT_ERROR",
    "CONCURRENCY_RULES",
    "STATE_RULES",
    "JUSTIFIED_RULES",
    "Violation",
    "FileContext",
    "Rule",
    "ProjectRule",
    "ProjectContext",
    "LintError",
    "register",
    "all_rules",
    "build_project_context",
    "lint_paths",
    "render_human",
    "render_json",
    "render_sarif",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "baseline_counts",
    "unused_baseline_entries",
    "apply_return_none_fixes",
]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2

#: Bump when the cached record layout or any analysis changes shape —
#: stale cache entries are then simply misses.
LINT_CACHE_VERSION = 5

#: Fix tag understood by :func:`apply_return_none_fixes`.
FIX_RETURN_NONE = "add-return-none"

#: Rules whose line suppressions require a ``-- justification`` to
#: take effect (the concurrency rules: a race hidden by a bare pragma
#: is still a race).
CONCURRENCY_RULES = frozenset({"L10", "L11", "L12", "L13", "L14"})

#: The derived-state ownership rules: same mandatory-justification
#: policy (a stale cache hidden by a bare pragma is still stale).
STATE_RULES = frozenset({"L15", "L16", "L17", "L18", "L19"})

#: Every rule whose suppression demands a ``-- reason``.
JUSTIFIED_RULES = CONCURRENCY_RULES | STATE_RULES


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule hit at a source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    fix: str | None = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }
        if self.fix is not None:
            payload["fix"] = self.fix
        return payload


class LintError(Exception):
    """Unrecoverable problem (exit code 2): bad file, bad rule id."""


_SUPPRESS = re.compile(
    r"xmvrlint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)


_JUSTIFIED = re.compile(r"\s*--\s*\S")


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], set[str], set[int]]:
    """Scan comments for suppression pragmas.

    Returns ``(per_line, per_file, justified_lines)``; rule ids are
    upper-cased, the wildcard ``all``/``*`` becomes ``"*"``.  A line
    lands in ``justified_lines`` when its pragma carries a ``--
    <reason>`` tail — required for the concurrency rules.
    """
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    justified: set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return per_line, per_file, justified
    for line, text in comments:
        match = _SUPPRESS.search(text)
        if match is None:
            continue
        rules = {
            "*" if item.strip() in ("all", "*") else item.strip().upper()
            for item in match.group(2).split(",")
        }
        if match.group(1) == "disable-file":
            per_file.update(rules)
        else:
            per_line.setdefault(line, set()).update(rules)
            if _JUSTIFIED.match(text[match.end():]):
                justified.add(line)
    return per_line, per_file, justified


@dataclass(slots=True)
class FileContext:
    """Everything a rule needs about one source file."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    justified_lines: set[int] = field(default_factory=set)

    @property
    def parts(self) -> tuple[str, ...]:
        return Path(self.relpath).parts

    def suppressed(self, line: int, rule_id: str) -> bool:
        if "*" in self.file_suppressions or rule_id in self.file_suppressions:
            return True
        if rule_id in JUSTIFIED_RULES and line not in self.justified_lines:
            return False
        active = self.line_suppressions.get(line, ())
        return "*" in active or rule_id in active

    @classmethod
    def load(cls, path: Path, root: Path | None = None) -> "FileContext":
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"{path}: cannot read: {error}") from error
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            raise LintError(f"{path}: syntax error: {error}") from error
        try:
            relpath = str(path.relative_to(root)) if root else str(path)
        except ValueError:
            relpath = str(path)
        per_line, per_file, justified = _parse_suppressions(source)
        return cls(
            path=path,
            relpath=Path(relpath).as_posix(),
            source=source,
            tree=tree,
            line_suppressions=per_line,
            file_suppressions=per_file,
            justified_lines=justified,
        )


class Rule:
    """Base class for lint rules; subclasses register with @register."""

    rule_id: str = ""
    summary: str = ""
    #: Longer help text surfaced in SARIF output (``fullDescription`` /
    #: ``help``); empty keeps the SARIF entry minimal.
    description: str = ""

    def applies_to(self, context: FileContext) -> bool:
        return True

    def check(self, context: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self,
        context: FileContext,
        node: ast.AST,
        message: str,
        fix: str | None = None,
    ) -> Violation:
        return Violation(
            rule=self.rule_id,
            path=context.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
            fix=fix,
        )


@dataclass(slots=True)
class ProjectContext:
    """Whole-program facts shared by every project rule in one run.

    The expensive fixpoints (:func:`repro.analysis.effects.analyze`)
    run lazily and at most once per lint invocation, however many
    project rules are active.
    """

    project: Project
    relpath_by_module: dict[str, str] = field(default_factory=dict)
    _facts: ProgramFacts | None = None
    _concurrency: object | None = None
    _statedeps: object | None = None

    @property
    def facts(self) -> ProgramFacts:
        if self._facts is None:
            self._facts = analyze(self.project)
        return self._facts

    @property
    def concurrency(self) -> "ConcurrencyFacts":
        """Lock-set / acquisition-graph facts (rules L10-L14), computed
        lazily and at most once per run."""
        if self._concurrency is None:
            from .concurrency import analyze_concurrency

            self._concurrency = analyze_concurrency(self.project)
        return self._concurrency  # type: ignore[return-value]

    @property
    def statedeps(self) -> "StateFacts":
        """Derivation-DAG facts (rules L15-L19), computed lazily and at
        most once per run."""
        if self._statedeps is None:
            from .statedeps import analyze_statedeps

            self._statedeps = analyze_statedeps(self.project)
        return self._statedeps  # type: ignore[return-value]

    def location_of(self, fqname: str) -> tuple[str, int]:
        """(relpath, lineno) of a function's definition."""
        module = fqname.split(":", 1)[0]
        relpath = self.relpath_by_module.get(module, module)
        function = self.project.functions.get(fqname)
        return relpath, function.lineno if function is not None else 1


class ProjectRule(Rule):
    """Base for rules that need the whole program, not one file.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`Rule.check` is intentionally inert.  Violations are still
    attributed to (file, line), so line suppressions and ``disable-file``
    pragmas work exactly as they do for per-file rules.
    """

    def check(self, context: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, pctx: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


_RANGE = re.compile(r"^([A-Za-z]+)(\d+)-(?:([A-Za-z]+))?(\d+)$")


def _expand_selection(
    items: Iterable[str], known: Iterable[str]
) -> list[str]:
    """Expand ``L2-L9``-style ranges to the ``known`` ids inside them
    (a retired id in the middle of a range is skipped); plain ids pass
    through.  A range that selects no known id is an error."""
    registered = set(known)
    expanded: list[str] = []
    for raw in items:
        item = raw.strip().upper()
        if not item:
            continue
        match = _RANGE.match(item)
        if match is None:
            expanded.append(item)
            continue
        prefix, low, end_prefix, high = match.groups()
        if end_prefix is not None and end_prefix != prefix:
            raise LintError(
                f"bad rule range {raw!r}: prefixes {prefix} and "
                f"{end_prefix} differ"
            )
        selected = [
            f"{prefix}{number}"
            for number in range(int(low), int(high) + 1)
            if f"{prefix}{number}" in registered
        ]
        if not selected:
            raise LintError(
                f"bad rule range {raw!r}: selects no rule; "
                f"known: {', '.join(sorted(registered))}"
            )
        expanded.extend(selected)
    return expanded


def all_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate registered rules, optionally restricted to ids in
    ``select`` (plain ids or ``L2-L9`` ranges).  Unknown plain ids and
    ranges that select nothing raise :class:`LintError` (exit code 2)."""
    # Rules live in a sibling module; importing it populates the
    # registry exactly once.
    from . import rules as _rules  # noqa: F401

    if select is None:
        wanted = sorted(_REGISTRY)
    else:
        wanted = _expand_selection(select, _REGISTRY)
        unknown = [item for item in wanted if item not in _REGISTRY]
        if unknown:
            raise LintError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_REGISTRY))}"
            )
    return [_REGISTRY[rule_id]() for rule_id in wanted]


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.exists():
            files.append(path)
        elif not path.exists():
            raise LintError(f"{path}: no such file or directory")
    # De-duplicate while preserving order (overlapping path arguments).
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


# ----------------------------------------------------------------------
# per-file fact cache
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _FileFacts:
    """Everything the engine needs about one file, cacheable on disk.

    ``violations`` holds *pre-suppression* hits for every registered
    per-file rule, so one record serves any ``--select`` subset; a
    suppression edit changes the content hash, so stale suppression
    state cannot be served.  The :class:`FileSummary` carries the
    whole-program IR — on a warm run the project pass needs no AST.
    """

    version: int
    relpath: str
    rule_ids: tuple[str, ...]
    violations: dict[str, tuple[Violation, ...]]
    line_suppressions: dict[int, set[str]]
    file_suppressions: set[str]
    summary: FileSummary
    justified_lines: set[int] = field(default_factory=set)


def _cache_key(relpath: str, payload: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(f"xmvrlint:{LINT_CACHE_VERSION}:{relpath}:".encode())
    digest.update(payload)
    return digest.hexdigest()


def _cache_load(cache_dir: Path, key: str) -> _FileFacts | None:
    record_path = cache_dir / f"{key}.pkl"
    try:
        with open(record_path, "rb") as handle:
            record = pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    if (
        isinstance(record, _FileFacts)
        and record.version == LINT_CACHE_VERSION
    ):
        return record
    return None


def _cache_store(cache_dir: Path, key: str, record: _FileFacts) -> None:
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        tmp_path = cache_dir / f"{key}.tmp"
        tmp_path.write_bytes(payload)
        tmp_path.replace(cache_dir / f"{key}.pkl")
    except OSError:
        # A read-only or full cache directory degrades to cold linting.
        pass


def _compute_file_facts(path: Path, root: Path) -> _FileFacts:
    """Cold path: parse, run every registered per-file rule, lower to
    the IR."""
    context = FileContext.load(path, root=root)
    file_rules = [
        rule for rule in all_rules() if not isinstance(rule, ProjectRule)
    ]
    violations: dict[str, tuple[Violation, ...]] = {}
    for rule in file_rules:
        if rule.applies_to(context):
            violations[rule.rule_id] = tuple(rule.check(context))
    return _FileFacts(
        version=LINT_CACHE_VERSION,
        relpath=context.relpath,
        rule_ids=tuple(rule.rule_id for rule in file_rules),
        violations=violations,
        line_suppressions=context.line_suppressions,
        file_suppressions=context.file_suppressions,
        summary=summarize_module(
            context.tree, context.relpath, source=context.source
        ),
        justified_lines=context.justified_lines,
    )


def _file_facts(
    path: Path, root: Path, cache_dir: Path | None
) -> _FileFacts:
    if cache_dir is None:
        return _compute_file_facts(path, root)
    try:
        payload = path.read_bytes()
    except OSError as error:
        raise LintError(f"{path}: cannot read: {error}") from error
    try:
        relpath = str(path.relative_to(root))
    except ValueError:
        relpath = str(path)
    relpath = Path(relpath).as_posix()
    key = _cache_key(relpath, payload)
    cached = _cache_load(cache_dir, key)
    registered = {
        rule.rule_id
        for rule in all_rules()
        if not isinstance(rule, ProjectRule)
    }
    if cached is not None and registered <= set(cached.rule_ids):
        return cached
    record = _compute_file_facts(path, root)
    _cache_store(cache_dir, key, record)
    return record


def _suppressed(facts: _FileFacts, line: int, rule_id: str) -> bool:
    if "*" in facts.file_suppressions or rule_id in facts.file_suppressions:
        return True
    if rule_id in JUSTIFIED_RULES and line not in facts.justified_lines:
        # Concurrency/derived-state suppressions must carry a
        # justification; a bare pragma leaves the violation standing.
        return False
    active = facts.line_suppressions.get(line, ())
    return "*" in active or rule_id in active


def build_project_context(
    paths: Sequence[str | Path],
    root: Path | None = None,
    cache_dir: Path | None = None,
) -> ProjectContext:
    """Assemble the whole-program :class:`ProjectContext` for ``paths``
    without running any rules — the entry point ``xmvrlint --graph``
    uses to export the derivation DAG and lock graph."""
    if root is None:
        root = Path.cwd()
    records: dict[str, _FileFacts] = {}
    for path in iter_python_files(paths):
        facts = _file_facts(path, root, cache_dir)
        records[facts.relpath] = facts
    summaries = {relpath: facts.summary for relpath, facts in records.items()}
    return ProjectContext(
        project=build_project(summaries),
        relpath_by_module={
            facts.summary.module: relpath
            for relpath, facts in records.items()
        },
    )


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
    cache_dir: Path | None = None,
) -> list[Violation]:
    """Lint every ``*.py`` under ``paths``; returns surviving violations
    (suppressed ones are dropped here).

    With ``cache_dir`` set, per-file facts (rule hits, suppressions and
    the whole-program IR) are cached keyed on a content hash — a warm
    re-lint of an unchanged tree re-parses nothing and only re-runs the
    cheap project fixpoints.
    """
    active = list(rules) if rules is not None else all_rules()
    if root is None:
        root = Path.cwd()
    selected = {rule.rule_id for rule in active}
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    found: list[Violation] = []
    records: dict[str, _FileFacts] = {}
    for path in iter_python_files(paths):
        facts = _file_facts(path, root, cache_dir)
        records[facts.relpath] = facts
        for rule_id, hits in facts.violations.items():
            if rule_id not in selected:
                continue
            for violation in hits:
                if not _suppressed(facts, violation.line, violation.rule):
                    found.append(violation)
    if project_rules and records:
        summaries = {
            relpath: facts.summary for relpath, facts in records.items()
        }
        project = build_project(summaries)
        pctx = ProjectContext(
            project=project,
            relpath_by_module={
                facts.summary.module: relpath
                for relpath, facts in records.items()
            },
        )
        for rule in project_rules:
            for violation in rule.check_project(pctx):
                facts_for = records.get(violation.path)
                if facts_for is not None and _suppressed(
                    facts_for, violation.line, violation.rule
                ):
                    continue
                found.append(violation)
    found.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return found


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
def baseline_counts(violations: Sequence[Violation]) -> dict[str, int]:
    """Violations aggregated to ``"path::rule" -> count`` keys (line
    numbers deliberately excluded so unrelated edits don't churn the
    baseline)."""
    counts: dict[str, int] = {}
    for violation in violations:
        key = f"{violation.path}::{violation.rule}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_baseline(path: Path) -> dict[str, int]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise LintError(f"{path}: cannot read baseline: {error}") from error
    except ValueError as error:
        raise LintError(f"{path}: bad baseline JSON: {error}") from error
    counts = payload.get("counts") if isinstance(payload, dict) else None
    if not isinstance(counts, dict) or not all(
        isinstance(value, int) for value in counts.values()
    ):
        raise LintError(f"{path}: bad baseline: expected {{'counts': ...}}")
    return dict(counts)


def write_baseline(violations: Sequence[Violation], path: Path) -> None:
    payload = {
        "comment": (
            "xmvrlint baseline: known violations tolerated by --baseline; "
            "the ratchet only shrinks — fix a violation, then regenerate "
            "with --write-baseline"
        ),
        "counts": baseline_counts(violations),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    violations: Sequence[Violation], baseline: dict[str, int]
) -> list[Violation]:
    """Drop up to ``baseline[path::rule]`` violations per key — the
    mypy-style ratchet that lets a new rule land without a flag day."""
    budget = dict(baseline)
    surviving: list[Violation] = []
    for violation in violations:
        key = f"{violation.path}::{violation.rule}"
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            surviving.append(violation)
    return surviving


def unused_baseline_entries(
    violations: Sequence[Violation], baseline: dict[str, int]
) -> dict[str, int]:
    """``path::rule`` keys whose baseline budget was not fully consumed
    by ``violations`` — stale entries the ratchet says must be pruned
    (the fix landed; tolerating the slot would let a regression hide)."""
    fired = baseline_counts(violations)
    stale: dict[str, int] = {}
    for key, budget in sorted(baseline.items()):
        leftover = budget - fired.get(key, 0)
        if leftover > 0:
            stale[key] = leftover
    return stale


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def render_human(violations: Sequence[Violation]) -> str:
    if not violations:
        return "xmvrlint: clean"
    lines = [
        f"{v.path}:{v.line}:{v.column + 1}: {v.rule} {v.message}"
        for v in violations
    ]
    lines.append(f"xmvrlint: {len(violations)} violation(s)")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> str:
    return json.dumps(
        {
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
        },
        indent=2,
        sort_keys=True,
    )


def render_sarif(
    violations: Sequence[Violation],
    rules: Sequence[Rule] | None = None,
) -> str:
    """SARIF 2.1.0, the format GitHub code scanning ingests for inline
    PR annotations."""
    if rules is None:
        rules = all_rules()
    rule_objects: list[dict[str, object]] = []
    for rule in sorted(rules, key=lambda rule: rule.rule_id):
        entry: dict[str, object] = {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
        }
        if rule.description:
            entry["fullDescription"] = {"text": rule.description}
            entry["help"] = {"text": rule.description}
        rule_objects.append(entry)
    results = [
        {
            "ruleId": violation.rule,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": violation.line,
                            "startColumn": violation.column + 1,
                        },
                    }
                }
            ],
        }
        for violation in violations
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "xmvrlint",
                        "informationUri": (
                            "https://example.invalid/xmvrlint"
                        ),
                        "rules": rule_objects,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# --fix: insert "-> None" on obvious procedures
# ----------------------------------------------------------------------
def _return_none_insertions(path: Path, lines_to_fix: set[int]) -> list[tuple[int, int]]:
    """For each ``def`` starting on a line in ``lines_to_fix``, locate
    the position of the ``:`` ending its signature.  Returns ``(row,
    col)`` insertion points (1-based row), found with ``tokenize`` so
    strings/comments inside default arguments cannot confuse the scan.
    """
    source = path.read_text(encoding="utf-8")
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    insertions: list[tuple[int, int]] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if (
            token.type == tokenize.NAME
            and token.string == "def"
            and token.start[0] in lines_to_fix
        ):
            depth = 0
            scan = index + 1
            while scan < len(tokens):
                probe = tokens[scan]
                if probe.type == tokenize.OP:
                    if probe.string in "([{":
                        depth += 1
                    elif probe.string in ")]}":
                        depth -= 1
                    elif probe.string == ":" and depth == 0:
                        insertions.append(probe.start)
                        break
                scan += 1
            index = scan
        index += 1
    return insertions


def apply_return_none_fixes(violations: Sequence[Violation]) -> int:
    """Rewrite files, adding ``-> None`` for fixable L5 violations.

    Only violations tagged :data:`FIX_RETURN_NONE` are touched — the
    rule marks a function fixable exactly when it provably returns
    nothing (no ``return value``, no ``yield``).  Returns the number of
    signatures rewritten.
    """
    by_path: dict[str, set[int]] = {}
    for violation in violations:
        if violation.fix == FIX_RETURN_NONE:
            by_path.setdefault(violation.path, set()).add(violation.line)
    fixed = 0
    for relpath, lines in by_path.items():
        path = Path(relpath)
        insertions = _return_none_insertions(path, lines)
        if not insertions:
            continue
        text_lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # Bottom-up so earlier insertion points stay valid.
        for row, col in sorted(insertions, reverse=True):
            line = text_lines[row - 1]
            text_lines[row - 1] = line[:col] + " -> None" + line[col:]
            fixed += 1
        path.write_text("".join(text_lines), encoding="utf-8")
    return fixed
