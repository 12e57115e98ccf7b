"""Plugin rule discovery: ``repro lint --plugins DIR``.

Every ``*.py`` file in the directory is imported (sorted, so load
order is deterministic); modules call the same
:func:`~repro.analysis.registry.rule` decorator builtin rules use and
self-register into the registry passed here.  Collisions with
existing rule ids resolve per the scan mode — ``raise`` (default),
``skip`` (keep the incumbent), or ``replace`` (plugin wins) — the
importlib-registry contract from the related-work exemplars.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.registry import RULES, RuleInfo, target_registry
from repro.errors import LintError, LintUsageError
from repro.registry import Registry


def load_plugins(
    directory: "str | Path",
    registry: Optional[Registry[RuleInfo]] = None,
    on_collision: str = "raise",
) -> List[str]:
    """Import every plugin module in ``directory``; returns the
    module names loaded, in load order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise LintUsageError(
            f"plugin directory {directory} does not exist"
        )
    target = RULES if registry is None else registry
    loaded: List[str] = []
    with target.scanning(on_collision), target_registry(target):
        for path in sorted(directory.glob("*.py")):
            if path.name.startswith("_"):
                continue
            name = f"repro_lint_plugin_{path.stem}"
            spec = importlib.util.spec_from_file_location(name, path)
            if spec is None or spec.loader is None:
                raise LintError(f"cannot import plugin {path}")
            module = importlib.util.module_from_spec(spec)
            # Registered under the prefixed name so plugin modules can
            # import each other without colliding with real packages.
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except LintError:
                raise
            except Exception as exc:
                raise LintError(
                    f"plugin {path} failed to import: {exc}"
                ) from exc
            loaded.append(name)
    return loaded
