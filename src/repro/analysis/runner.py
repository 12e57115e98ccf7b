"""The analyzer driver: file discovery, rule selection, the run loop.

``lint_paths`` is the programmatic face of ``repro lint``: discover
files, parse each once, run every selected rule over it (path-scoped
rules only see matching files), run whole-run ``finish`` hooks, then
sort and baseline-filter the findings into a
:class:`~repro.analysis.findings.LintResult`.
"""

from __future__ import annotations

from collections import Counter
from fnmatch import fnmatch
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.context import FileContext
from repro.analysis.baseline import apply_baseline
from repro.analysis.findings import Finding, LintResult, sort_findings
from repro.analysis.registry import (
    RULES,
    RuleInfo,
    resolve_rule,
    rules_by_id,
)
from repro.errors import LintUsageError
from repro.registry import Registry

#: Reserved id for "the file did not parse" findings — not a
#: registered rule (it cannot be excluded: unparseable code can't be
#: checked for anything else either).
SYNTAX_RULE_ID = "REP000"

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "node_modules"}


def iter_python_files(
    paths: Sequence["str | Path"],
) -> List[Tuple[Path, str]]:
    """(absolute path, display path) for every Python file under
    ``paths``, sorted by display path.  Directories are walked
    recursively; explicit file arguments are taken as-is."""
    found: Dict[str, Path] = {}
    for raw in paths:
        base = Path(raw)
        if base.is_file():
            found[_display(base)] = base.resolve()
        elif base.is_dir():
            for path in base.rglob("*.py"):
                if any(part in _SKIP_DIRS for part in path.parts):
                    continue
                found[_display(path)] = path.resolve()
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return sorted(
        ((found[display], display) for display in found),
        key=lambda pair: pair[1],
    )


def _display(path: Path) -> str:
    return path.as_posix()


def select_rules(
    registry: Registry[RuleInfo],
    include: Optional[Iterable[str]] = None,
    exclude: Optional[Iterable[str]] = None,
) -> List[RuleInfo]:
    """The rules a run should execute, in id order.

    ``include``/``exclude`` accept rule ids or names; unknown entries
    raise :class:`~repro.errors.LintUsageError` (exit code 2 at the
    CLI) rather than silently linting with fewer rules than asked.
    """
    if include is not None:
        chosen = {resolve_rule(registry, key).id for key in include}
    else:
        chosen = set(registry.names())
    if exclude is not None:
        chosen -= {resolve_rule(registry, key).id for key in exclude}
    selected = [
        info for info in rules_by_id(registry) if info.id in chosen
    ]
    if not selected:
        raise LintUsageError(
            "rule selection excluded every registered rule"
        )
    return selected


def _rule_applies(info: RuleInfo, display: str) -> bool:
    if not info.paths:
        return True
    return any(fnmatch(display, pattern) for pattern in info.paths)


def lint_paths(
    paths: Sequence["str | Path"],
    rules: Optional[Iterable[str]] = None,
    exclude: Optional[Iterable[str]] = None,
    registry: Optional[Registry[RuleInfo]] = None,
    baseline: Optional["Counter[str]"] = None,
) -> LintResult:
    """Run the selected rules over ``paths`` and collect findings."""
    target = RULES if registry is None else registry
    selected = select_rules(target, rules, exclude)
    files = iter_python_files(paths)
    shared: Dict[str, Any] = {}
    findings: List[Finding] = []
    for path, display in files:
        try:
            ctx = FileContext.parse(path, display, shared)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            findings.append(
                Finding(
                    rule=SYNTAX_RULE_ID,
                    path=display,
                    line=getattr(exc, "lineno", None) or 1,
                    column=getattr(exc, "offset", None) or 1,
                    message=f"file does not parse: {exc}",
                    severity="error",
                )
            )
            continue
        for info in selected:
            if not _rule_applies(info, display):
                continue
            for finding in info.check(ctx):
                if finding is None:
                    continue
                if ctx.suppressed(finding.line, finding.rule):
                    continue
                findings.append(finding)
    for info in selected:
        if info.finish is not None:
            findings.extend(
                finding
                for finding in info.finish(shared)
                if finding is not None
            )
    ordered = sort_findings(findings)
    baselined = 0
    if baseline:
        kept, baselined = apply_baseline(ordered, baseline)
        ordered = tuple(kept)
    return LintResult(
        findings=ordered,
        baselined=baselined,
        files=len(files),
        rules=tuple(info.id for info in selected),
    )
