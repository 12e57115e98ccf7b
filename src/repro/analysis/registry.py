"""The decorator-registered rule registry.

:data:`RULES` is a :class:`repro.registry.Registry` keyed by rule id,
the same type as the design, artifact and model registries: a
:func:`rule` decorator attaches metadata — id, human name, category,
default severity, fixability, optional path scoping — to a check
function and registers it.  Collisions are resolved by the registry's
*scan mode* (``raise``/``skip``/``replace``), the same contract the
plugin loader exposes through ``repro lint --plugins DIR
--on-collision MODE``.  Rule lookup by id or name
(:func:`resolve_rule`) and the id format check stay here.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

from repro.errors import LintError, LintUsageError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.context import FileContext
    from repro.analysis.findings import Finding

#: A rule's per-file check: yields findings for one parsed file.
CheckFn = Callable[["FileContext"], Iterable["Finding"]]
#: A rule's optional whole-run pass, called once after every file:
#: receives the run-shared state dict rules stashed data into.
FinishFn = Callable[[Dict[str, Any]], Iterable["Finding"]]

_RULE_ID_RE = re.compile(r"^[A-Z][A-Z0-9]{2,15}$")


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: metadata plus its check callable(s)."""

    id: str
    name: str
    category: str
    severity: str
    fixable: bool
    check: CheckFn
    #: fnmatch patterns limiting which files the rule sees; empty
    #: means every linted file.
    paths: Tuple[str, ...] = ()
    finish: Optional[FinishFn] = None
    description: str = ""


#: The process-wide registry builtin rules register into on import,
#: keyed by rule id.
RULES: Registry[RuleInfo] = Registry(
    "rule", LintError, key=attrgetter("id")
)


def resolve_rule(registry: Registry[RuleInfo], key: str) -> RuleInfo:
    """Look a rule up by id (``REP001``) or name
    (``lock-discipline``)."""
    info = registry.get(key)
    if info is not None:
        return info
    for candidate in registry.infos():
        if candidate.name == key:
            return candidate
    raise LintUsageError(
        f"unknown rule {key!r}; known: "
        + ", ".join(
            f"{info.id} ({info.name})" for info in rules_by_id(registry)
        )
    )


def rules_by_id(registry: Registry[RuleInfo]) -> List[RuleInfo]:
    """The registered rules in id order (the order runs report in)."""
    return sorted(registry.infos(), key=attrgetter("id"))


#: Where :func:`rule` registers when no explicit registry is passed.
#: The plugin loader points this at a per-invocation clone so plugin
#: modules (which just use the plain decorator) never mutate the
#: process-wide builtin set.
_ACTIVE_REGISTRY: Optional[Registry[RuleInfo]] = None


@contextmanager
def target_registry(
    registry: Registry[RuleInfo],
) -> Iterator[Registry[RuleInfo]]:
    """Route decorator registrations to ``registry`` for the scope."""
    global _ACTIVE_REGISTRY
    previous, _ACTIVE_REGISTRY = _ACTIVE_REGISTRY, registry
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY = previous


def rule(
    name: str,
    *,
    id: str,
    category: str,
    severity: str = "error",
    fixable: bool = False,
    paths: Iterable[str] = (),
    finish: Optional[FinishFn] = None,
    registry: Optional[Registry[RuleInfo]] = None,
) -> Callable[[CheckFn], RuleInfo]:
    """Register a lint rule: ``@rule("lock-discipline", id="REP001",
    category="concurrency")`` above its check function.

    The check receives a :class:`~repro.analysis.context.FileContext`
    and yields findings; ``ctx.finding(...)`` builds them with
    location, snippet, and suppression handling filled in.  The
    decorator returns the :class:`RuleInfo` (like ``@artifact``), so
    the module-level name is the registered spec, not the bare
    function.
    """
    if not _RULE_ID_RE.match(id):
        raise LintError(
            f"rule id {id!r} must be 3-16 chars of "
            f"[A-Z0-9] starting with a letter (e.g. REP001)"
        )

    def decorate(check: CheckFn) -> RuleInfo:
        info = RuleInfo(
            id=id,
            name=name,
            category=category,
            severity=severity,
            fixable=fixable,
            check=check,
            paths=tuple(paths),
            finish=finish,
            description=(check.__doc__ or "").strip().split("\n")[0],
        )
        target = registry
        if target is None:
            target = (
                RULES if _ACTIVE_REGISTRY is None else _ACTIVE_REGISTRY
            )
        return target.register(info)

    return decorate
