"""The catalog: dotted names → SQL++ values.

Names are identifiers or dotted identifiers (``hr.emp``), reflecting a
database/table or schema/table hierarchy (paper, Section II).  Values
are stored in model form; plain Python data passed in is converted via
:func:`repro.datamodel.from_python`.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.catalog.columns import ColumnSource
from repro.datamodel.convert import from_python
from repro.datamodel.values import Bag, LazyBag
from repro.errors import CatalogError

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$"
)


def validate_name(name: str) -> str:
    """Check that a catalog name is a (dotted) identifier; return it."""
    if not name:
        raise CatalogError("catalog names must be non-empty")
    for part in name.split("."):
        if not part or not all(char in _NAME_CHARS for char in part):
            raise CatalogError(f"invalid catalog name {name!r}")
        if part[0].isdigit():
            raise CatalogError(f"invalid catalog name {name!r}")
    return name


def weak_method(method: Callable[..., None]) -> Callable[..., None]:
    """The bound ``method`` as a callable that holds its object weakly
    and does nothing once that object is gone.  What a long-lived
    object keeps of the ones it notifies, so that it neither keeps them
    alive nor closes a reference cycle with them — a dropped
    ``Database`` is then freed at once, not at the next cycle
    collection."""
    owner, function = weakref.ref(method.__self__), method.__func__

    def call(*args: Any) -> None:
        target = owner()
        if target is not None:
            function(target, *args)

    return call


def extended(name: str, existing: Any, elements: List[Any]) -> Any:
    """The collection ``existing`` with ``elements`` (model values)
    appended: a new bag, or a new array that keeps its order, sharing
    the existing element objects.  Anything else cannot be appended to."""
    if isinstance(existing, LazyBag):
        raise CatalogError(
            f"cannot insert into lazy named value {name!r} (set_lazy): "
            "its elements come from the factory"
        )
    if isinstance(existing, Bag):
        return existing.extended(elements)
    if isinstance(existing, list):
        return existing + elements
    raise CatalogError(f"cannot insert into non-collection named value {name!r}")


class Catalog:
    """A mutable mapping of dotted names to SQL++ values."""

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}
        #: Bumped on every name-set change; lets callers (the Database
        #: query cache) key compiled plans to a catalog snapshot, since
        #: rewriting consults the set of catalog names.
        self.version = 0
        #: One counter per name, bumped on every mutation of that name
        #: (kept across ``drop``, so a re-created name never repeats a
        #: version).  Whatever is derived from one collection's data —
        #: its statistics (:mod:`repro.catalog.statistics`) — is pinned
        #: to this, and a change to another name leaves it alone.
        self._versions: Dict[str, int] = {}
        #: Per name, the version of its last create / replace / drop:
        #: what :meth:`appended_since` compares with.
        self._replaced: Dict[str, int] = {}
        #: Per name, the stored columns scans have shredded from it
        #: (:meth:`column_source`); discarded when the name is replaced
        #: or dropped.
        self._sources: Dict[str, ColumnSource] = {}
        self._watchers: List[Callable[[str, Optional[List[Any]]], None]] = []

    def watch(self, watcher: Callable[[str, Optional[List[Any]]], None]) -> None:
        """Call the bound method ``watcher(name, appended)`` after every
        mutation: ``appended`` is the list of new elements when an
        existing collection grew by :meth:`append`, None when the name
        was created, replaced or dropped.  Held weakly
        (:func:`weak_method`): the watcher reads this catalog."""
        self._watchers.append(weak_method(watcher))

    def version_of(self, name: str) -> int:
        """How many times ``name`` has been mutated (0: never set)."""
        return self._versions.get(name, 0)

    def appended_since(self, name: str, version: int) -> bool:
        """Whether every mutation of ``name`` after its ``version`` was
        an :meth:`append`: the value now under it is then the one of
        that version followed by the elements appended since (it shares
        that prefix, :func:`extended`)."""
        return self._replaced.get(name, 0) <= version

    def column_source(self, name: str, value: Any) -> Optional[ColumnSource]:
        """The stored columns (:mod:`repro.catalog.columns`) of the
        collection under ``name`` when ``value`` — what a scan is about
        to range over — is that very bag or array, pinned to the name's
        current version; None for anything else (a lazy bag, a value
        that is not the catalog's)."""
        if self._values.get(name) is not value:
            return None
        kind = type(value)
        if kind is Bag:
            elements = value._items
        elif kind is list:
            elements = value
        else:
            return None
        version = self._versions[name]
        source = self._sources.get(name)
        if source is None:
            source = self._sources[name] = ColumnSource(elements, version)
        elif source.version != version:
            # Only an append moves the version without discarding the
            # source (``_changed``): the shredded prefix still holds.
            source.advance(elements, version)
        return source

    def stored_columns(self, name: str) -> Optional[ColumnSource]:
        """The stored columns held for ``name`` (None: none yet)."""
        return self._sources.get(name)

    def _changed(self, name: str, appended: Optional[List[Any]]) -> None:
        version = self._versions[name] = self._versions.get(name, 0) + 1
        if appended is None:
            self._replaced[name] = version
            self._sources.pop(name, None)
        for watcher in self._watchers:
            watcher(name, appended)

    def set(self, name: str, value: Any) -> None:
        """Create or replace a named value (converted to model form)."""
        self.set_model(name, from_python(value))

    def set_model(self, name: str, value: Any) -> None:
        """Create or replace a named value that is already in model form
        (skips conversion; used by callers that validated the value)."""
        if validate_name(name) not in self._values:
            self.version += 1
        self._values[name] = value
        self._changed(name, None)

    def append(self, name: str, elements: List[Any]) -> None:
        """Append model-form ``elements`` to the collection under
        ``name`` (created as a bag when absent) by installing
        :func:`extended` of it: values handed out earlier stay the
        snapshots they were, and the cost is that of the new elements
        plus one pointer copy."""
        if name not in self._values:
            self.set_model(name, Bag(elements))
            return
        self._values[name] = extended(name, self._values[name], elements)
        self._changed(name, elements)

    def get(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise CatalogError(f"unknown named value {name!r}") from None

    def drop(self, name: str) -> None:
        if name not in self._values:
            raise CatalogError(f"unknown named value {name!r}")
        del self._values[name]
        self.version += 1
        self._changed(name, None)

    def names(self) -> List[str]:
        return sorted(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def namespace(self, prefix: str) -> List[str]:
        """Names under a dotted prefix (``hr`` → ``hr.emp``, ...)."""
        dotted = prefix + "."
        return [name for name in self.names() if name.startswith(dotted)]
