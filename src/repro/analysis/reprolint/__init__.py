"""reprolint — whole-program checker for the repo's reproducibility contracts.

Public surface:

* :func:`lint_paths` / :func:`lint_sources` / :func:`lint_source` — run
  the rules over files, in-memory modules, or one module; every run
  builds the whole-program project graph (RP007–RP010 need it).
* :class:`Finding`, :class:`LintResult` — results.
* :class:`Rule`, :func:`register`, :func:`all_rules` — extend the rule set.
* :class:`Project`, :class:`LintConfig` — the import/call-graph layer.
* :func:`render_text` / :func:`to_json` / :func:`render_json` — reporters.
* :func:`write_baseline` / :func:`load_baseline` / :func:`new_findings` —
  the CI diff gate.
* :func:`main` — the ``python -m repro.analysis`` entry point.

See ``docs/static-analysis.md`` for the rule catalogue (RP001–RP010),
the invariants each guards, and the suppression syntax.
"""

from .baseline import load_baseline, new_findings, write_baseline
from .cli import main
from .core import (
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
    lint_sources,
    register,
)
from .project import LintConfig, Project
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text, to_json

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "main",
    "new_findings",
    "register",
    "render_json",
    "render_text",
    "to_json",
    "write_baseline",
]
