"""Repo-specific static analysis: ``repro lint``.

The reproduction's correctness rests on conventions no unit test can
enforce directly — every :class:`~repro.eval.engine.SweepEngine`
shared field is only touched under ``self._lock``, every
``BEGIN IMMEDIATE`` reaches ``COMMIT`` or ``ROLLBACK`` on all paths,
hot-path float folds keep a pinned order so the golden tests stay
bit-identical, and every constructed engine is closed so interrupted
grids keep their work.  This package turns those conventions into
machine-checked invariants: a multi-pass AST analyzer whose rules are
registered with the :func:`rule` decorator into :data:`RULES` (a
:class:`repro.registry.Registry`, like the design, artifact and model
registries), run over a file set by :func:`lint_paths`, and surfaced
through the ``repro lint`` CLI with text/JSON rendering, a committed
baseline, and ``--plugins DIR`` discovery with raise/skip/replace
collision modes.
"""

from repro.analysis.findings import Finding, LintResult
from repro.analysis.registry import RULES, RuleInfo, rule
from repro.analysis.context import FileContext
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.plugins import load_plugins
from repro.analysis.runner import (
    SYNTAX_RULE_ID,
    iter_python_files,
    lint_paths,
    select_rules,
)

# Importing the subpackage registers every builtin rule into RULES.
from repro.analysis import rules as _builtin_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintResult",
    "RULES",
    "RuleInfo",
    "rule",
    "FileContext",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "load_plugins",
    "SYNTAX_RULE_ID",
    "iter_python_files",
    "lint_paths",
    "select_rules",
]
