"""Stored columns: a catalog collection's attributes shredded once per version.

A scan of a catalog collection binds its alias as *positions* into the
collection's elements (:class:`repro.core.chunk.Chunk`), and a ``Path``
kernel on ``alias.attr`` reads the collection's stored column of
``attr`` through them: ``column[start:stop]`` on a whole chunk, a take
after a filter or a join.  A stored column holds each element's value of
the attribute — the first attribute of that name, MISSING where the
element has none — exactly what navigating the element gives, and
:data:`NOT_A_TUPLE` where the element is not a tuple: that position is
navigated when it is read, with the query's typing mode, so a stored
column never raises and never decides an error ahead of the query.

A column is filled only up to the last position a read asked for, so a
column grows with the chunks scans actually read.  The catalog keeps one
:class:`ColumnSource` per collection (:meth:`Catalog.column_source`),
pinned to the collection's version: ``insert`` moves it to the grown
collection, whose prefix is the one already shredded, so the columns are
extended past their old length and never refilled; ``set`` and ``drop``
discard it.  ``set_lazy`` sources, and values that are not the catalog's
collection (an array an expression built, a LET-bound or shadowing
variable), have no source and read through the per-value probe.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Sequence

from repro.datamodel.values import MISSING, Struct


class _NotATuple:
    """The type of :data:`NOT_A_TUPLE`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_A_TUPLE"


#: A stored column's entry for an element that is not a tuple.
NOT_A_TUPLE = _NotATuple()


class ColumnSource:
    """The stored columns of one catalog collection (module docstring):
    ``elements`` is the element list positions index, ``version`` the
    collection version it is, ``shredded`` how many element attributes
    have been read into columns so far.  Columns only ever grow, by
    appending under ``_lock``, so a read needs no lock: the queries of
    several threads can share a source."""

    __slots__ = ("elements", "version", "columns", "odd", "shredded", "_lock")

    def __init__(self, elements: List[Any], version: int):
        self.elements = elements
        self.version = version
        #: attribute → its stored column (a prefix of the elements).
        self.columns: Dict[str, List[Any]] = {}
        #: Attributes whose column holds a NOT_A_TUPLE.
        self.odd: set = set()
        self.shredded = 0
        self._lock = threading.Lock()

    def advance(self, elements: List[Any], version: int) -> None:
        """Move to ``version`` of the collection, ``elements`` being the
        old ones followed by those appended since (``insert``)."""
        self.elements = elements
        self.version = version

    def read(
        self,
        attr: str,
        positions: Sequence[int],
        navigate: Callable[[Any, str, Any], Any],
        config: Any,
    ) -> List[Any]:
        """``attr`` of the elements at ``positions`` (a ``range`` or a
        list of ints), a non-tuple element navigated by ``navigate``."""
        column = self.columns.get(attr)
        if column is None:
            column = self.columns.setdefault(attr, [])
        contiguous = type(positions) is range
        if contiguous:
            stop = positions.stop
        else:
            stop = max(positions) + 1 if positions else 0
        if stop > len(column):
            self._fill(attr, column, stop)
        if contiguous:
            values = column[positions.start : stop]
        else:
            values = list(map(column.__getitem__, positions))
        if attr in self.odd and NOT_A_TUPLE in values:
            elements = self.elements
            values = [
                navigate(elements[at], attr, config) if value is NOT_A_TUPLE else value
                for value, at in zip(values, positions)
            ]
        return values

    def _fill(self, attr: str, column: List[Any], stop: int) -> None:
        """Shred ``attr`` of the elements from the column's end to
        ``stop``, in one step (no partial column is ever visible)."""
        with self._lock:
            piece = self.elements[len(column) : stop]
            values = [
                (MISSING if (at := e._shape.index.get(attr)) is None else e._values[at])
                if type(e) is Struct
                else NOT_A_TUPLE
                for e in piece
            ]
            if any(type(e) is not Struct for e in piece):
                self.odd.add(attr)
            column.extend(values)
            self.shredded += len(values)
