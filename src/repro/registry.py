"""One generic name-keyed registry for designs, artifacts, lint rules
and models.

A :class:`Registry` is an ordered ``name -> item`` map that domain
decorators (``@register_design``, ``@artifact``, ``@rule``,
``register_model``) fill at import time. A name that is already taken
resolves by *collision mode*: ``raise`` (the default; two items sharing
a name would corrupt every lookup keyed on it), ``skip`` (keep the
incumbent) or ``replace`` (the newcomer wins). :meth:`Registry.scanning`
sets the mode for a scope (plugin imports) and :meth:`Registry.clone`
gives an independent copy to scan into.

Behaviour only one domain needs stays in that domain's module, next to
its decorator: shared design instances, artifact lookup by result type,
rule lookup by id or name, and the built-in model guard.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.errors import ReproError

T = TypeVar("T")

#: How :meth:`Registry.register` resolves a name that is already taken.
COLLISION_MODES: Tuple[str, ...] = ("raise", "skip", "replace")


class RegistryError(ReproError):
    """An invalid registry operation (e.g. duplicate registration)."""


class Registry(Generic[T]):
    """An ordered name -> item map with raise/skip/replace collisions.

    ``kind`` labels items in messages (``unknown design 'X'``),
    ``error`` is the exception a collision raises, ``key`` reads an
    item's registered name, and ``casefold`` makes every lookup and
    collision check case-insensitive (the registered spelling is kept
    for :meth:`names`). Iteration yields names in registration order.
    """

    def __init__(
        self,
        kind: str,
        error: Type[Exception] = RegistryError,
        key: Callable[[T], str] = attrgetter("name"),
        casefold: bool = False,
    ) -> None:
        self.kind = kind
        self.error = error
        self.key = key
        self.casefold = casefold
        self._items: Dict[str, T] = {}
        self._mode = "raise"

    def _fold(self, name: str) -> str:
        return name.lower() if self.casefold else name

    def _check_mode(self, mode: str) -> None:
        if mode not in COLLISION_MODES:
            raise self.error(
                f"unknown collision mode {mode!r}; "
                f"expected one of {', '.join(COLLISION_MODES)}"
            )

    def register(self, item: T, on_collision: Optional[str] = None) -> T:
        """Add ``item`` under its name; returns the item that ended up
        registered (the incumbent when ``skip`` keeps it).

        ``on_collision`` overrides the mode set by :meth:`scanning`.
        """
        mode = self._mode if on_collision is None else on_collision
        self._check_mode(mode)
        name = self.key(item)
        slot = self._fold(name)
        incumbent = self._items.get(slot)
        if incumbent is not None:
            if mode == "raise":
                registered = self.key(incumbent)
                spelled = f" (as {registered!r})" if registered != name else ""
                raise self.error(
                    f"{self.kind} {name!r} is already registered"
                    f"{spelled}; rename it, or resolve the collision "
                    f"with the skip or replace mode"
                )
            if mode == "skip":
                return incumbent
        self._items[slot] = item
        return item

    @contextmanager
    def scanning(self, mode: str) -> Iterator["Registry[T]"]:
        """Make ``mode`` the default collision mode for the scope."""
        self._check_mode(mode)
        previous, self._mode = self._mode, mode
        try:
            yield self
        finally:
            self._mode = previous

    def clone(self) -> "Registry[T]":
        """An independent copy with the same settings and items."""
        copy = Registry(self.kind, self.error, self.key, self.casefold)
        copy._items = dict(self._items)
        return copy

    def filter(self, **metadata: Any) -> List[T]:
        """Items whose ``metadata`` has every ``key=value`` (a missing
        key never matches), in registration order."""
        wanted = metadata.items()
        return [
            item for item in self._items.values()
            if wanted <= getattr(item, "metadata", {}).items()
        ]

    def unknown(self, name: str) -> str:
        """The lookup-error text for an unregistered ``name``: it lists
        the registered names, so every front end reports the same."""
        return (
            f"unknown {self.kind} {name!r}; registered: "
            f"{', '.join(self.names()) or '(none)'}"
        )

    def get(self, name: str) -> Optional[T]:
        return self._items.get(self._fold(name))

    def names(self) -> Tuple[str, ...]:
        return tuple(self.key(item) for item in self._items.values())

    def infos(self) -> Tuple[T, ...]:
        return tuple(self._items.values())

    def __getitem__(self, name: str) -> T:
        try:
            return self._items[self._fold(name)]
        except KeyError:
            raise KeyError(self.unknown(name)) from None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._fold(name) in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._items)
