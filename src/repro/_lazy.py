"""Lazy package exports (PEP 562), shared by every package root.

A package root names its public API in ``__all__`` and maps each name
to the submodule that defines it. :func:`attach` turns that map into
the module-level ``__getattr__`` and ``__dir__`` hooks, so importing a
package runs none of its submodules: a name's submodule is imported
the first time the name is read, and the value is then bound on the
package so later reads are plain attribute lookups. A command of the
CLI therefore loads (and, without cached bytecode, compiles) only the
modules it uses.

The roots keep an ``if TYPE_CHECKING:`` block of the same imports, so
static checkers see the names the eager roots used to bind.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def attach(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it exports; ``submodules`` lists submodules exported as themselves.
    """
    where: Dict[str, str] = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }
    shadowed = sorted(set(where) & set(exports))
    if shadowed:
        # Importing a submodule binds it on the package, over a lazy
        # name of the same spelling; such a name must be bound eagerly.
        raise ImportError(
            f"{package}: lazy names {shadowed} are also submodule names"
        )
    where.update((name, name) for name in submodules)

    def __getattr__(name: str) -> object:
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module(f"{package}.{submodule}")
        value = module if name in submodules else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *where})

    return __getattr__, __dir__
