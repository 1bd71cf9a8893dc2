"""The chunk: the one form in which binding rows move between operators.

A query block's FROM delivers bindings of its variables (paper, Section
III-A); the block executor moves them a chunk at a time.  A
:class:`Chunk` is a row count plus one *column* per bound variable — the
variable's value in each row — so an expression kernel reads a variable
as a list it already has, and keeping, repeating or reordering rows is a
take of each column (:meth:`Chunk.take`).

A variable a scan of a catalog collection binds is held as *positions*
into that collection's elements instead (``stored``): the scan allocates
nothing per element, its column is the element list read at those
positions when something asks for it, and a ``Path`` kernel on
``alias.attr`` reads the collection's stored column of ``attr``
(:class:`repro.catalog.columns.ColumnSource`) through the same
positions.  A take carries positions along like any column.

A per-row binding dict is built only where an ``Environment`` needs one
(:meth:`Chunk.rows`): env-space fallbacks, rows-mode closures, ``SELECT
*``, ORDER BY keys that see the output.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(source, positions)``: a variable held as positions into a stored
#: collection (a ``range`` while contiguous, else a list of ints).
Stored = Tuple[Any, Sequence[int]]


class Chunk:
    """``size`` binding rows as columns (module docstring).

    ``columns`` maps a variable to its values; ``stored`` maps a variable
    to ``(source, positions)``, its column derived on first read.
    ``memo`` (created by the first kernel that needs it) caches the
    columns kernels derive from the chunk's variables (``Path`` columns,
    keyed structurally), so each is computed once per chunk whichever
    kernel asks first."""

    __slots__ = ("size", "columns", "stored", "memo", "_rows")

    def __init__(
        self,
        size: int,
        columns: Dict[str, List[Any]],
        stored: Optional[Dict[str, Stored]] = None,
    ):
        self.size = size
        self.columns = columns
        self.stored = stored if stored is not None else {}
        self.memo: Optional[Dict[Any, List[Any]]] = None
        self._rows: Optional[List[Dict[str, Any]]] = None

    @classmethod
    def from_rows(cls, rows: List[Dict[str, Any]]) -> "Chunk":
        """The chunk of a list of binding dicts (a caller's rows)."""
        names = dict.fromkeys(name for row in rows for name in row)
        return cls(
            len(rows), {name: [row.get(name) for row in rows] for name in names}
        )

    @classmethod
    def of_row(cls, binding: Dict[str, Any]) -> "Chunk":
        """The one-row chunk of one binding (rows mode's pull)."""
        chunk = cls(1, {name: [value] for name, value in binding.items()}, None)
        chunk._rows = [binding]
        return chunk

    def __len__(self) -> int:
        return self.size

    def names(self) -> List[str]:
        """The variables the chunk binds."""
        return list(dict.fromkeys(chain(self.columns, self.stored)))

    def column(self, name: str) -> List[Any]:
        """The values of ``name``, one per row (a chunk of no rows binds
        every name, to no values)."""
        column = self.columns.get(name)
        if column is None:
            if name not in self.stored and not self.size:
                return []
            source, positions = self.stored[name]
            column = self.columns[name] = taken(source.elements, positions)
        return column

    def bind(self, name: str, column: List[Any]) -> None:
        """Add (or rebind) the variable ``name`` (LET, window values)."""
        if name in self.columns or name in self.stored:
            self.stored.pop(name, None)
            self.memo = None
        self.columns[name] = column
        self._rows = None

    def bind_stored(self, name: str, source: Any, positions: Sequence[int]) -> None:
        """Add (or rebind) ``name`` as ``positions`` into ``source``."""
        if name in self.columns or name in self.stored:
            self.columns.pop(name, None)
            self.memo = None
        self.stored[name] = (source, positions)
        self._rows = None

    def project(self, names: Iterable[str]) -> "Chunk":
        """The same rows binding only the variables in ``names``, their
        columns, positions and derived columns (``memo``) shared."""
        stored = {name: entry for name, entry in self.stored.items() if name in names}
        columns = {
            name: column
            for name, column in self.columns.items()
            if name in names and name not in stored
        }
        chunk = Chunk(self.size, columns, stored)
        if self.memo is None:
            self.memo = {}
        chunk.memo = self.memo
        return chunk

    def rows(self) -> List[Dict[str, Any]]:
        """One binding dict per row, for an ``Environment``."""
        rows = self._rows
        if rows is None:
            names = self.names()
            if self.size == 1:
                rows = [{name: self.column(name)[0] for name in names}]
            elif not names:
                rows = [{} for __ in range(self.size)]
            else:
                columns = [self.column(name) for name in names]
                rows = [dict(zip(names, values)) for values in zip(*columns)]
            self._rows = rows
        return rows

    # -- rows kept, repeated, cut and joined -------------------------------

    def take(self, picks: Sequence[int]) -> "Chunk":
        """The rows at ``picks`` (any order, repeats allowed)."""
        stored = self.stored
        taken = {
            name: (source, list(map(positions.__getitem__, picks)))
            for name, (source, positions) in stored.items()
        }
        columns = {
            name: list(map(column.__getitem__, picks))
            for name, column in self.columns.items()
            if name not in stored
        }
        return Chunk(len(picks), columns, taken)

    def keep(self, picks: Sequence[int]) -> "Chunk":
        """The rows at ``picks``, ascending positions of a filter's
        survivors: the chunk itself when every row survived."""
        if len(picks) == self.size:
            return self
        return self.take(picks) if picks else Chunk(0, {})

    def slice(self, start: int, stop: int) -> "Chunk":
        stop = min(stop, self.size)
        stored = self.stored
        return Chunk(
            max(stop - start, 0),
            {
                name: column[start:stop]
                for name, column in self.columns.items()
                if name not in stored
            },
            {
                name: (source, positions[start:stop])
                for name, (source, positions) in stored.items()
            },
        )

    def split(self) -> List["Chunk"]:
        """One one-row chunk per row, in order."""
        if self.size == 1:
            return [self]
        return [self.slice(k, k + 1) for k in range(self.size)]

    def merged(self, right: "Chunk") -> "Chunk":
        """Two chunks of equal size side by side (``right``'s variables
        win), as a join pairs them."""
        columns = {
            name: column
            for name, column in self.columns.items()
            if name not in self.stored
        }
        stored = dict(self.stored)
        for name in right.columns:
            if name not in right.stored:
                stored.pop(name, None)
                columns[name] = right.columns[name]
        for name, entry in right.stored.items():
            columns.pop(name, None)
            stored[name] = entry
        return Chunk(self.size, columns, stored)

    @staticmethod
    def concat(chunks: List["Chunk"]) -> "Chunk":
        """The rows of ``chunks`` in order.  A variable every chunk holds
        as positions into one source stays positions (one ``range`` when
        they are contiguous); any other is a column."""
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return Chunk(0, {})
        first = chunks[0]
        columns: Dict[str, List[Any]] = {}
        stored: Dict[str, Stored] = {}
        for name in first.names():
            entries = [chunk.stored.get(name) for chunk in chunks]
            source = entries[0][0] if entries[0] is not None else None
            if source is not None and all(
                entry is not None and entry[0] is source for entry in entries
            ):
                stored[name] = (source, _joined([entry[1] for entry in entries]))
            else:
                columns[name] = list(
                    chain.from_iterable(chunk.column(name) for chunk in chunks)
                )
        return Chunk(sum(chunk.size for chunk in chunks), columns, stored)

    @staticmethod
    def gather(pairs: List[Tuple["Chunk", int]]) -> "Chunk":
        """The rows ``(chunk, index)`` of ``pairs``, in order: the payload
        a sort kept from many chunks."""
        offsets: Dict[int, int] = {}
        chunks: List[Chunk] = []
        total = 0
        for chunk, __ in pairs:
            if id(chunk) not in offsets:
                offsets[id(chunk)] = total
                chunks.append(chunk)
                total += chunk.size
        picks = [offsets[id(chunk)] + index for chunk, index in pairs]
        return Chunk.concat(chunks).take(picks)


def taken(values: List[Any], positions: Sequence[int]) -> List[Any]:
    """``values`` at ``positions``: a slice for a ``range``, else a take."""
    if type(positions) is range:
        return values[positions.start : positions.stop]
    return list(map(values.__getitem__, positions))


#: The survivors of a one-row chunk whose row survived.
_FIRST = (0,)


def survivors(verdicts: List[Any]) -> Sequence[int]:
    """The positions whose verdict is TRUE (a filter keeps them)."""
    if len(verdicts) == 1:
        return _FIRST if verdicts[0] is True else ()
    return [k for k, verdict in enumerate(verdicts) if verdict is True]


def _joined(parts: List[Sequence[int]]) -> Sequence[int]:
    """Position sequences end to end: one ``range`` when they are
    contiguous ranges, else a list."""
    if all(type(part) is range for part in parts) and all(
        a.stop == b.start for a, b in zip(parts, parts[1:])
    ):
        return range(parts[0].start, parts[-1].stop)
    return list(chain.from_iterable(parts))


def cut(chunks: Iterable[Chunk], size: int) -> Iterable[Chunk]:
    """``chunks`` regrouped into chunks of exactly ``size`` rows (the
    last one shorter), each yielded as soon as it is full."""
    pending: List[Chunk] = []
    count = 0
    for chunk in chunks:
        if not chunk.size:
            continue
        if not pending and chunk.size == size:
            yield chunk
            continue
        pending.append(chunk)
        count += chunk.size
        while count >= size:
            whole = Chunk.concat(pending)
            yield whole.slice(0, size)
            count -= size
            pending = [whole.slice(size, whole.size)] if count else []
    if pending:
        yield Chunk.concat(pending)
