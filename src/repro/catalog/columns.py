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

A lateral range over ``alias.attr`` (``FROM hr.emp AS e, e.projects AS
p``) reads the source's *child* of ``attr`` (:meth:`ColumnSource.child`):
the elements of every element's ``attr`` value laid end to end, a
:class:`ColumnSource` of its own, so ``p`` is held as positions into it
and ``p.name`` reads its stored columns — and ``p.xs AS y`` ranges over
a child of the child.  A child encodes the permissive FROM cases once:
an array gives its elements with their positions as AT values, a bag its
elements with AT MISSING, NULL, MISSING or a parent that is not a tuple
none, any other value itself with AT MISSING; strict typing uses it
only where every value ranged is an array or a bag.  ``offsets`` says
where each parent's elements start.  A child is filled up to the last
parent position a read asked for, extended past its end once ``insert``
has grown the parent, and discarded with its parent: it is a snapshot
per collection version, like a stored column.
"""

from __future__ import annotations

import threading
from itertools import chain, count, repeat
from operator import sub
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chunk import taken
from repro.datamodel.values import MISSING, Bag, Struct, positions_of


class _NotATuple:
    """The type of :data:`NOT_A_TUPLE`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_A_TUPLE"


#: A stored column's entry for an element that is not a tuple.
NOT_A_TUPLE = _NotATuple()


class ColumnSource:
    """The stored columns of one catalog collection, or of a child
    (module docstring): ``elements`` is the element list positions
    index, ``version`` the collection version it is (None for a child),
    ``shredded`` how many element attributes have been read into
    columns so far, ``flattened`` how many elements its children have
    been extended over.  Columns and children only ever grow, by
    appending under ``_lock``, so a read needs no lock: the queries of
    several threads can share a source."""

    __slots__ = (
        "elements", "version", "columns", "odd", "shredded", "children",
        "offsets", "at", "flattened", "_lock",
    )

    def __init__(self, elements: List[Any], version: Optional[int]):
        self.elements = elements
        self.version = version
        #: attribute → its stored column (a prefix of the elements).
        self.columns: Dict[str, List[Any]] = {}
        #: Attributes whose column holds a NOT_A_TUPLE.
        self.odd: set = set()
        self.shredded = 0
        #: attribute → the child source of its values (:meth:`child`).
        self.children: Dict[str, ColumnSource] = {}
        #: A child's: where the elements of each parent flattened so far
        #: start, then where the last one ends; and each element's AT value.
        self.offsets: Optional[List[int]] = None
        self.at: Optional[List[Any]] = None
        self.flattened = 0
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
        values = taken(self._column(attr, positions), positions)
        if attr in self.odd:
            elements = self.elements
            for k in positions_of(values, NOT_A_TUPLE):
                values[k] = navigate(elements[positions[k]], attr, config)
        return values

    def flatten(
        self, attr: str, positions: Sequence[int]
    ) -> Tuple["ColumnSource", Sequence[int], List[int]]:
        """``(child, places, owners)``: the child of ``attr``, the
        positions in it of the elements the parents at ``positions``
        range over, in order (a ``range`` when ``positions`` is one),
        and for each the index in ``positions`` of its parent."""
        child = self.child(attr)
        offsets = child.offsets
        stop = _stop(positions)
        if stop >= len(offsets):
            self._flatten(attr, child, stop)
        if type(positions) is range:
            bounds = offsets[positions.start : stop + 1]
            places: Sequence[int] = range(bounds[0], bounds[-1])
            sizes = map(sub, bounds[1:], bounds)
        else:
            starts = list(map(offsets.__getitem__, positions))
            stops = [offsets[at + 1] for at in positions]
            places = list(chain.from_iterable(map(range, starts, stops)))
            sizes = map(sub, stops, starts)
        owners = list(chain.from_iterable(map(repeat, count(), sizes)))
        return child, places, owners

    def child(self, attr: str) -> "ColumnSource":
        """The child source of ``attr`` (module docstring)."""
        child = self.children.get(attr)
        if child is None:
            with self._lock:
                child = self.children.get(attr)
                if child is None:
                    child = ColumnSource([], None)
                    child.offsets, child.at = [0], []
                    self.children[attr] = child
        return child

    def _column(self, attr: str, positions: Sequence[int]) -> List[Any]:
        """The stored column of ``attr``, filled past ``positions``."""
        column = self.columns.get(attr)
        if column is None:
            column = self.columns.setdefault(attr, [])
        stop = _stop(positions)
        if stop > len(column):
            self._fill(attr, column, stop)
        return column

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

    def _flatten(self, attr: str, child: "ColumnSource", stop: int) -> None:
        """Extend ``child`` over the parents from its end to ``stop``:
        each parent's elements and AT values, then its end offset, so a
        reader that sees the offset sees the elements."""
        column = self._column(attr, range(stop))
        with self._lock:
            offsets, elements, at = child.offsets, child.elements, child.at
            start = len(offsets) - 1
            for value in column[start:stop]:
                if isinstance(value, list):
                    elements.extend(value)
                    at.extend(range(len(value)))
                elif isinstance(value, Bag):
                    items = list(value)
                    elements.extend(items)
                    at.extend(repeat(MISSING, len(items)))
                elif not (value is None or value is MISSING or value is NOT_A_TUPLE):
                    elements.append(value)
                    at.append(MISSING)
                offsets.append(len(elements))
            self.flattened += max(stop - start, 0)


def _stop(positions: Sequence[int]) -> int:
    """One past the last position of ``positions``."""
    if type(positions) is range:
        return positions.stop
    return max(positions) + 1 if positions else 0
