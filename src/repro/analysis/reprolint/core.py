"""reprolint core: module contexts, the rule registry, and the runner.

The repo's headline guarantees — bit-identical faulted recovery,
bit-identical parallel histograms and compiled inference, unbiased
low-precision aggregation — all rest on *invariants* (seeded RNG only,
paired shared-memory create/unlink, fork-safe pool state, phase-charged
timing, idempotent PS pushes).  Runtime tests only catch a violation
when they happen to execute the bad path; :mod:`repro.analysis.reprolint`
enforces the contracts statically, over the AST, on every file.

This module is deliberately dependency-free (stdlib ``ast`` only) so the
linter can run before the scientific stack imports.

Vocabulary:

* :class:`Finding` — one violation (rule code, message, location,
  whether an inline suppression absorbed it).
* :class:`ModuleContext` — one parsed module: source, AST, parent links,
  the import-alias table used to resolve dotted call names, and the
  suppression table parsed from ``# reprolint: disable=...`` comments.
* :class:`Rule` — a registered checker; subclasses implement
  :meth:`Rule.check` (per module) and/or :meth:`Rule.check_project`.
* :func:`lint_paths` — the runner: walks files, builds the whole-program
  :class:`~repro.analysis.reprolint.project.Project`, applies rules and
  suppressions, returns a :class:`LintResult`.

Suppression syntax (both forms take a comma-separated code list or
``all``)::

    x = time.time()  # reprolint: disable=RP002 -- justification here
    # reprolint: disable-file=RP004 -- whole-module waiver

A suppression only silences findings reported *on its line* (or, for
``disable-file``, anywhere in the module); suppressed findings are still
recorded so reporters can show them and CI can audit the waiver count.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .project import LintConfig, Project

__all__ = [
    "Finding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
]

#: ``# reprolint: disable=RP001,RP002`` (inline) — codes end at the first
#: token that is not a code or comma, so a justification may follow.
_INLINE_RE = re.compile(
    r"#\s*reprolint:\s*disable=((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*|all)"
)
#: ``# reprolint: disable-file=RP004`` — module-wide waiver.
_FILE_RE = re.compile(
    r"#\s*reprolint:\s*disable-file=((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*|all)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Rule code (``"RP001"``).
        name: Rule slug (``"unseeded-randomness"``).
        message: Human-readable description of the violation.
        path: Module path as given to the runner (POSIX separators).
        line: 1-based source line of the offending node.
        col: 0-based column of the offending node.
        suppressed: True when an inline/file suppression absorbed it.
    """

    rule: str
    name: str
    message: str
    path: str
    line: int
    col: int
    suppressed: bool = False


class ModuleContext:
    """A parsed module plus the lookup tables rules need.

    Args:
        source: Module source text.
        rel_path: Path used for reporting *and* for path-scoped rules
            (e.g. RP002's seam allowlist, RP005's kernel packages); use
            POSIX separators.  Tests exercise path-scoped rules by
            passing a pretend path like ``"repro/histogram/x.py"``.
    """

    def __init__(self, source: str, rel_path: str) -> None:
        self.source = source
        self.rel_path = rel_path.replace("\\", "/")
        self.path_parts: tuple[str, ...] = tuple(
            part for part in self.rel_path.split("/") if part
        )
        self.tree = ast.parse(source, filename=rel_path)
        self.lines = source.splitlines()
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.aliases = self._collect_aliases()
        self._inline, self._filewide = self._collect_suppressions()

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """The nearest ``class`` statement containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def enclosing_functions(self, node: ast.AST) -> list[ast.FunctionDef]:
        """Enclosing function defs, innermost first."""
        return [
            ancestor
            for ancestor in self.ancestors(node)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def _collect_aliases(self) -> dict[str, str]:
        """Map local names to dotted import targets.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter`` maps ``perf_counter -> time.perf_counter``; ``from
        multiprocessing import shared_memory`` maps ``shared_memory ->
        multiprocessing.shared_memory``.  Relative imports keep their
        textual module path (never shadowing the stdlib names the rules
        match on).
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{module}.{alias.name}" if module else alias.name
                    aliases[local] = target
        return aliases

    def qualname(self, node: ast.expr) -> str | None:
        """Resolve an attribute chain to a dotted name via the alias table.

        ``np.random.rand`` resolves to ``numpy.random.rand``; names whose
        base was never imported resolve to None (a local variable that
        merely *looks* like a module is not a violation).
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.aliases.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # suppressions
    # ------------------------------------------------------------------

    def _collect_suppressions(
        self,
    ) -> tuple[dict[int, set[str]], set[str]]:
        inline: dict[int, set[str]] = {}
        filewide: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _INLINE_RE.search(text)
            if match is not None:
                codes = _parse_codes(match.group(1))
                inline.setdefault(lineno, set()).update(codes)
            match = _FILE_RE.search(text)
            if match is not None:
                filewide.update(_parse_codes(match.group(1)))
        return inline, filewide

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether ``code`` is waived on ``line`` (or module-wide)."""
        if "all" in self._filewide or code in self._filewide:
            return True
        codes = self._inline.get(line)
        if codes is None:
            return False
        return "all" in codes or code in codes


def _parse_codes(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


class Rule:
    """Base class for registered checkers.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`summary`, and
    :attr:`invariant` (which PR's contract the rule guards — surfaced by
    ``--list-rules`` and the docs), and implement :meth:`check` (per
    module) and/or :meth:`check_project` (whole-program, once per run).
    """

    code: str = "RP000"
    name: str = "abstract"
    summary: str = ""
    invariant: str = ""

    def check(self, ctx: ModuleContext, project: "Project") -> Iterator[Finding]:
        """Yield findings for one module (suppressions applied later).

        ``project`` is the whole-program model every run builds.  The
        default is no findings, so whole-program rules need not override.
        """
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Yield whole-program findings (graph/dataflow rules).

        Called once per run, after every module's :meth:`check`.  The
        default is no findings, so per-module rules need not override.
        """
        return iter(())

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.code,
            name=self.name,
            message=message,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    _ensure_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Registered rules filtered by ``select`` / ``ignore`` code lists."""
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore is not None:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


def _ensure_builtin_rules() -> None:
    # Imported lazily so `core` stays importable from `rules` without a
    # cycle; importing the rule modules runs their @register decorators.
    from . import graph_rules as _graph_rules  # noqa: F401
    from . import rules as _rules  # noqa: F401


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Every finding, suppressed ones included, ordered by
            (path, line, col, rule).
        files_checked: Number of modules parsed.
    """

    findings: list[Finding]
    files_checked: int

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings not absorbed by a suppression (these fail the run)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings absorbed by an inline or file-wide suppression."""
        return [f for f in self.findings if f.suppressed]

    def counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule code (sorted by code)."""
        out: dict[str, int] = {}
        for finding in self.unsuppressed:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    @property
    def ok(self) -> bool:
        """True when the tree is clean (no unsuppressed findings)."""
        return not self.unsuppressed


def _finding_key(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def _run_rules(
    contexts: Sequence[ModuleContext],
    checkers: Sequence[Rule],
    project: "Project",
) -> list[Finding]:
    """Per-module checks, then whole-program checks, suppressions applied.

    Suppression lookup goes through the finding's *path* (not the module
    the rule happened to be iterating), so a graph rule anchoring a
    finding in another module still honors that module's waivers.
    """
    by_path = {ctx.rel_path: ctx for ctx in contexts}

    def absorb(finding: Finding) -> Finding:
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
            return replace(finding, suppressed=True)
        return finding

    findings: list[Finding] = []
    for ctx in contexts:
        for rule in checkers:
            findings.extend(absorb(f) for f in rule.check(ctx, project))
    for rule in checkers:
        findings.extend(absorb(f) for f in rule.check_project(project))
    findings.sort(key=_finding_key)
    return findings


def lint_source(
    source: str, rel_path: str, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one module given as text; returns all findings (sorted).

    Shorthand for a one-module :func:`lint_sources` run.
    """
    return lint_sources({rel_path: source}, rules).findings


def lint_sources(
    sources: Mapping[str, str],
    rules: Sequence[Rule] | None = None,
    config: "LintConfig | None" = None,
) -> LintResult:
    """Whole-program lint over in-memory modules (fixture entry point).

    Args:
        sources: rel_path → source text; paths use POSIX separators and
            should start at ``repro/`` so package-scoped rules engage.
        rules: Rule subset (default: every registered rule).
        config: Declared contracts (default: the built-in defaults, no
            pyproject discovery — fixtures stay hermetic).
    """
    from .project import Project

    checkers = list(rules) if rules is not None else all_rules()
    contexts = [
        ModuleContext(text, rel_path)
        for rel_path, text in sorted(sources.items())
    ]
    project = Project(contexts, config)
    findings = _run_rules(contexts, checkers, project)
    return LintResult(findings=findings, files_checked=len(contexts))


def _parse_error(rel_path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="RP000",
        name="parse-error",
        message=f"could not parse module: {exc.msg}",
        path=rel_path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
    )


def _rel_path(path: Path, root: Path | None) -> str:
    rel = path
    if root is not None:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
    return rel.as_posix()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                yield sub
        else:
            yield path


def lint_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint files and directories; the package entry point's engine.

    The file set is deduplicated and globally sorted by *reported path*
    before any rule runs, so findings come out byte-identical whatever
    order the filesystem (or the caller's path list) produced — ordering
    is an engine guarantee, not a reporter courtesy.

    Args:
        paths: Files or directory roots (directories are walked for
            ``*.py``, skipping ``__pycache__``).
        root: Paths in findings are reported relative to this (default:
            the current working directory when paths are relative).
        rules: Rule subset (default: every registered rule).

    The parsed modules form one :class:`Project` (import graph, call
    graph, declared contracts from the nearest ``pyproject.toml``);
    files that fail to parse are reported as RP000 and left out of it.
    """
    root_path = Path(root) if root is not None else None
    checkers = list(rules) if rules is not None else all_rules()
    file_list = [Path(p) for p in paths]
    by_rel: dict[str, Path] = {}
    for file_path in iter_python_files(file_list):
        by_rel.setdefault(_rel_path(file_path, root_path), file_path)

    findings: list[Finding] = []
    contexts: list[ModuleContext] = []
    files_checked = 0
    for rel in sorted(by_rel):
        files_checked += 1
        try:
            source = by_rel[rel].read_text(encoding="utf-8")
            contexts.append(ModuleContext(source, rel))
        except SyntaxError as exc:
            findings.append(_parse_error(rel, exc))

    from .project import LintConfig, Project

    anchor = root_path if root_path is not None else (
        file_list[0] if file_list else Path.cwd()
    )
    project = Project(contexts, LintConfig.discover(anchor))
    findings.extend(_run_rules(contexts, checkers, project))
    findings.sort(key=_finding_key)
    return LintResult(findings=findings, files_checked=files_checked)
