"""Builtin rules; importing this package registers them.

Each module holds one rule (plus its helpers) and registers it into
:data:`repro.analysis.registry.RULES` via the ``@rule`` decorator at
import time — the same self-registration idiom, and the same
:class:`repro.registry.Registry` type, as the design, artifact and
model registries.
"""

from repro.analysis.rules import (  # noqa: F401
    determinism,
    durability,
    hygiene,
    locking,
    sql,
    taxonomy,
)
