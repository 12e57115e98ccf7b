"""Every package root's public names resolve.

The roots export their names lazily (``repro._lazy``), so a typo in an
export table would otherwise surface only when a caller first reads
the name.
"""

import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: Every package that declares a public API.
ROOTS = sorted(
    ".".join(("repro", *path.parent.relative_to(SRC).parts))
    for path in SRC.rglob("__init__.py")
    if "__all__" in path.read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", ROOTS)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    for attr in package.__all__:
        getattr(package, attr)
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert {key for key in namespace if key != "__builtins__"} == set(
        package.__all__
    )
