"""Lightweight collection statistics for cost-based planning.

The planner's join-order selection (docs/PLANNER.md) needs three cheap
facts about each base collection: how many rows it has, roughly how many
distinct values each top-level attribute takes (so an equi-join's output
can be estimated as ``|L|*|R| / ndv(key)``), and how often a joined path
is MISSING (rows whose key is absent never match an equi-join, so they
shrink the effective input).  Exact statistics would cost a full pass
with hashing per attribute; instead :func:`collect_stats` samples a
bounded prefix — good enough to *rank* join orders, which only needs
relative cardinalities, not exact ones.

Statistics are collected lazily and cached per collection by
:class:`StatsProvider`, pinned to that collection's own catalog version:
they refresh when the named value is replaced, advance by the delta
when it is appended to, ignore every other name's changes, and cost
nothing for catalogs that never run a planned query.

Sampling can be arbitrarily wrong — a prefix sample sees neither skew
in the tail nor correlations between filters — so the provider also
carries :class:`FeedbackHints`: *observed* cardinalities fed back from
executed plans by the query store (docs/OBSERVABILITY.md).  The planner
prefers a feedback hint over the sampled estimate for the same scan or
join shape, which is how a misestimated join order corrects itself on
the next execution of the same query fingerprint.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.catalog.catalog import weak_method
from repro.datamodel.equality import group_key
from repro.datamodel.values import Bag, LazyBag, Struct

#: How many elements of a collection are examined for distinct-key and
#: MISSING-rate estimates.  The row count itself is always exact.
SAMPLE_LIMIT = 1024


@dataclass
class CollectionStats:
    """Sampled statistics for one named collection."""

    name: str
    #: Exact element count of the collection.
    row_count: int
    #: How many elements contributed to the sampled estimates.
    sample_size: int
    #: Estimated distinct values per top-level attribute, scaled from
    #: the sample to the full collection (capped at ``row_count``).
    ndv: Dict[str, int] = field(default_factory=dict)
    #: Fraction of sampled elements where the attribute was MISSING
    #: (absent from the element, or the element is not a tuple).
    missing_rate: Dict[str, float] = field(default_factory=dict)
    #: The sample the estimates were computed from, which
    #: :meth:`advanced` continues: per attribute how many distinct
    #: identities were seen and how many sampled elements carried it,
    #: over a prefix of at most ``_limit`` elements — and, only while
    #: that prefix can still grow, the identities themselves.
    _seen: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _present: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _distinct: Dict[str, set] = field(default_factory=dict, repr=False, compare=False)
    _limit: int = field(default=SAMPLE_LIMIT, repr=False, compare=False)

    def ndv_for(self, attr: str) -> Optional[int]:
        return self.ndv.get(attr)

    def missing_for(self, attr: str) -> float:
        return self.missing_rate.get(attr, 0.0)

    def summary(self) -> str:
        """One EXPLAIN line worth of statistics."""
        parts = [f"rows={self.row_count}"]
        for attr in sorted(self.ndv)[:4]:
            parts.append(f"ndv({attr})≈{self.ndv[attr]}")
            rate = self.missing_rate.get(attr, 0.0)
            if rate > 0.0:
                parts.append(f"missing({attr})={rate:.0%}")
        return " ".join(parts)

    def advanced(self, elements: List[Any]) -> "CollectionStats":
        """The statistics of the collection with ``elements`` appended.

        The estimator is a prefix sample with an exact row count, so
        folding in only the new elements gives exactly what
        :func:`collect_stats` gives over the whole collection, at the
        cost of the delta (nothing but arithmetic once the sample is
        full).  The result takes over this object's sample, which is
        extended in place: advance only the newest statistics.
        """
        seen, present, distinct = self._seen, self._present, self._distinct
        sample = elements[: max(self._limit - self.sample_size, 0)]
        sample_size = self.sample_size + len(sample)
        if sample:
            for element in sample:
                if not isinstance(element, Struct):
                    continue
                for attr, attr_value in element.items():
                    present[attr] = present.get(attr, 0) + 1
                    try:
                        identity = group_key(attr_value)
                    except Exception:
                        continue
                    distinct.setdefault(attr, set()).add(identity)
            seen = {attr: len(identities) for attr, identities in distinct.items()}
            if sample_size >= self._limit:
                distinct = {}  # the sample is full: only the counts are needed
        row_count = self.row_count + len(elements)
        ndv: Dict[str, int] = {}
        missing_rate: Dict[str, float] = {}
        if sample_size:
            scale = row_count / sample_size
            for attr, seen_count in seen.items():
                # A key that looks unique in the sample likely stays
                # unique; a key with few values has been seen in full.
                # Linear scaling between the two is the standard cheap
                # estimator.
                if seen_count >= present.get(attr, 0):
                    estimate = int(seen_count * scale)
                else:
                    estimate = seen_count
                ndv[attr] = max(1, min(row_count, estimate))
            for attr, count in present.items():
                missing_rate[attr] = 1.0 - (count / sample_size)
        return CollectionStats(
            self.name, row_count, sample_size, ndv, missing_rate,
            seen, present, distinct, self._limit,
        )


def collect_stats(
    name: str, value: Any, sample_limit: int = SAMPLE_LIMIT
) -> Optional[CollectionStats]:
    """Sampled statistics for a materialized collection, or None.

    Lazy bags are skipped (counting them would traverse the generator,
    defeating their purpose); non-collections carry no useful planning
    signal.
    """
    if isinstance(value, LazyBag):
        return None
    if isinstance(value, Bag):
        elements = value.to_list()
    elif isinstance(value, list):
        elements = value
    else:
        return None
    return CollectionStats(name, 0, 0, _limit=sample_limit).advanced(elements)


class FeedbackHints:
    """Observed cardinalities keyed by plan-shape identity.

    Keys are the stable shape texts built by
    :func:`repro.core.planner.scan_feedback_key` /
    :func:`~repro.core.planner.join_feedback_key` (base collection plus
    sorted filter/key prints), so a hint only ever applies to the exact
    scan or join it was measured on.  Each hint carries the *stamp* it
    was observed under — the epochs of the collections its shape reads
    (:meth:`StatsProvider.stamp`) — and is only as good as that stamp:
    once one of those collections is replaced or drifts past
    :attr:`TOLERANCE`, yesterday's actuals say nothing about today's
    rows.  A change to any other collection leaves the hint alone.

    ``version`` bumps whenever the hint set changes in a plan-relevant
    way, so a new observation triggers exactly one replan of the plans
    that read the same collections instead of replanning forever or
    never.
    """

    #: Relative change below which an updated observation — or, for
    #: :class:`StatsProvider`, a grown collection — is treated as noise
    #: rather than a plan-relevant shift.
    TOLERANCE = 0.1

    #: Bound on retained hints; least-recently-touched evicted first.
    MAX_HINTS = 512

    def __init__(self) -> None:
        self._rows: "OrderedDict[str, Tuple[float, Any]]" = OrderedDict()
        self.version = 0

    def __len__(self) -> int:
        return len(self._rows)

    def record(
        self, key: str, rows: float, stamp: Any, expected: Optional[float] = None
    ) -> bool:
        """Fold one observation in; True when plans may change: when it
        differs by more than the tolerance from what plans assume now —
        the hint already there or, without one (a hint left over from
        another stamp counts as none), the estimate ``expected`` the
        observed plan was built on; always when there is neither."""
        entry = self._rows.get(key)
        previous = entry[0] if entry is not None and entry[1] == stamp else expected
        rows = float(rows)
        self._rows[key] = (rows, stamp)
        self._rows.move_to_end(key)
        while len(self._rows) > self.MAX_HINTS:
            self._rows.popitem(last=False)
        if previous is None or abs(previous - rows) > self.TOLERANCE * max(
            previous, rows, 1.0
        ):
            self.version += 1
            return True
        return False

    def get(self, key: str) -> Optional[Tuple[float, Any]]:
        """``(rows, stamp observed under)`` for a plan shape, or None."""
        return self._rows.get(key)


_TOLERANCE = f"tolerance {FeedbackHints.TOLERANCE * 100:.0f} %"

#: ``(name, epoch)`` or, on a plan, ``(name, epoch, hint version)``.
Stamp = Tuple[Tuple[Any, ...], ...]


class _Epoch:
    """The plan-relevant state of one name: which epoch it is in, why
    that epoch began, how often the feedback hints that read it have
    changed, and — once collected — its statistics, the catalog version
    they are exact for, and the statistics drift is measured against."""

    __slots__ = ("epoch", "began", "hints", "version", "stats", "base")

    def __init__(self) -> None:
        self.epoch = 0
        self.began = "first seen"
        self.hints = 0
        #: ``Catalog.version_of(name)`` that ``stats`` describes; None:
        #: not collected since the epoch began (statistics are lazy).
        self.version: Optional[int] = None
        self.stats: Optional[CollectionStats] = None
        #: ``stats`` as first collected in this epoch.
        self.base: Optional[CollectionStats] = None


def _ignore(event: str) -> None:
    """The event counter of a provider nobody counts for."""


class StatsProvider:
    """Per-collection statistics, epochs and feedback for the planner.

    **Statistics** are collected lazily (``stats_for(name)`` returns
    None for unknown names, lazy values and non-collections) and pinned
    to ``Catalog.version_of(name)``.  The provider watches its catalog:
    a replaced or dropped name forgets its statistics (re-sampled on
    next use, so ``set`` itself pays nothing); an *appended* one has its
    already-collected entry advanced by the new elements alone, which —
    the estimator being a prefix sample with an exact row count —
    equals ``collect_stats`` over the whole collection.

    **Epochs.**  Whatever was derived from statistics — a block plan, a
    feedback hint, the query store's "already traced" mark — is stamped
    (:meth:`stamp`) with the epoch of every collection it read.  A
    name's epoch moves when it is replaced or dropped, and when it is
    appended to only once its row count (or an attribute's ndv, which
    the estimates divide by) has moved more than
    :attr:`FeedbackHints.TOLERANCE` since the epoch began; so a change
    to ``A`` never touches what was derived from ``B``, and a small
    append touches nothing.  :attr:`generation` moves with every epoch
    and every plan-relevant hint change: holders compare that one
    integer and look at their stamp (:meth:`stale`) only when it moved.

    The provider also owns the :class:`FeedbackHints` the query store
    records observed cardinalities into; the planner reaches them via
    :meth:`feedback_rows`.
    """

    def __init__(self, catalog, count: Optional[Callable[[str], None]] = None):
        self._catalog = catalog
        self._epochs: Dict[str, _Epoch] = {}
        self.feedback = FeedbackHints()
        self.generation = 0
        #: The bound method ``count("stats_collected" | "stats_advanced")``
        #: called per event (the database's ``metrics.increment``), held
        #: weakly: evaluators reference the provider from inside their
        #: closure cycles, and must not keep a dropped database's
        #: metrics and query store alive until the next cycle collection.
        self._count = weak_method(count) if count is not None else _ignore
        catalog.watch(self._changed)

    def _epoch(self, name: str) -> _Epoch:
        state = self._epochs.get(name)
        if state is None:
            state = self._epochs[name] = _Epoch()
        return state

    def stats_for(self, name: str) -> Optional[CollectionStats]:
        state = self._epoch(name)
        version = self._catalog.version_of(name)
        if state.version != version:
            stats = None
            if name in self._catalog:
                stats = collect_stats(name, self._catalog[name])
                self._count("stats_collected")
            state.version = version
            state.stats = state.base = stats
        return state.stats

    # -- epochs --------------------------------------------------------

    def _changed(self, name: str, appended: Optional[List[Any]]) -> None:
        """The catalog's watcher: keep ``name``'s statistics exact and
        decide whether its epoch moves."""
        state = self._epoch(name)
        if state.version is None and appended is not None:
            # Nothing collected since the epoch began, so nothing was
            # derived in it either: statistics stay lazy.
            return
        version = self._catalog.version_of(name)
        if appended is None or state.stats is None or state.version != version - 1:
            state.version = state.stats = state.base = None
            began = "dropped" if name not in self._catalog else "replaced"
        else:
            state.version = version
            state.stats = state.stats.advanced(appended)
            self._count("stats_advanced")
            began = _drift(state.base, state.stats)
            if began is None:
                return
            state.base = state.stats
        state.epoch += 1
        state.began = began
        self.generation += 1

    def stamp(self, names: Iterable[str], hints: bool = False) -> Stamp:
        """The epochs ``names`` are in now (with ``hints``, also how
        often the hints reading each have changed: a plan's stamp)."""
        stamp = []
        for name in names:
            state = self._epoch(name)
            if state.version is None:
                # A stamp holder derived something from this name: make
                # sure appends to it are followed from here on.
                self.stats_for(name)
            stamp.append(
                (name, state.epoch, state.hints) if hints else (name, state.epoch)
            )
        return tuple(stamp)

    def stale(self, stamp: Stamp) -> Optional[str]:
        """Why what carries ``stamp`` must be derived again, or None
        while every name it read is in the epoch (and hint version) it
        was stamped with."""
        for name, epoch, *hints in stamp:
            state = self._epoch(name)
            if state.epoch != epoch:
                return f"{name} {state.began}"
            if hints and hints[0] != state.hints:
                return f"new cardinality feedback on {name}"
        return None

    def drift(self, name: str, rows_then: int) -> str:
        """``events +6.7 % rows since planned (tolerance 10 %)``."""
        stats = self.stats_for(name)
        rows_now = stats.row_count if stats is not None else rows_then
        moved = 100.0 * (rows_now - rows_then) / max(rows_then, 1)
        return f"{name} {moved:+.1f} % rows since planned ({_TOLERANCE})"

    # -- cardinality feedback ------------------------------------------

    @property
    def feedback_version(self) -> int:
        return self.feedback.version

    def feedback_rows(self, key: Optional[str]) -> Optional[float]:
        """The observed output rows for a plan shape, or None (never
        observed, or observed in an earlier epoch of a collection the
        shape reads)."""
        entry = self.feedback.get(key) if key is not None else None
        if entry is None or self.stale(entry[1]) is not None:
            return None
        return entry[0]

    def record_feedback(
        self,
        key: Optional[str],
        rows: float,
        reads: Iterable[str],
        expected: Optional[float] = None,
    ) -> bool:
        """Record one observed cardinality of a shape reading the
        collections ``reads``, whose plan estimated ``expected`` rows;
        True when plans over them may change."""
        if key is None:
            return False
        reads = tuple(reads)
        if not self.feedback.record(key, rows, self.stamp(reads), expected):
            return False
        for name in reads:
            self._epoch(name).hints += 1
        self.generation += 1
        return True


def _drift(base: CollectionStats, now: CollectionStats) -> Optional[str]:
    """Why statistics that grew from ``base`` to ``now`` left the
    tolerance — the row count, or the distinct-value estimate of an
    attribute (selectivities and join sizes divide by it, and under a
    full sample it only scales with the row count) — or None."""
    tolerance = FeedbackHints.TOLERANCE
    if now.row_count - base.row_count > tolerance * max(base.row_count, 1):
        moved = 100.0 * (now.row_count - base.row_count) / max(base.row_count, 1)
        return f"grew {moved:+.1f} % rows ({_TOLERANCE})"
    for attr, ndv in now.ndv.items():
        before = base.ndv.get(attr, 0)
        if ndv - before > tolerance * max(before, 1):
            return f"ndv({attr}) moved {before} → {ndv} ({_TOLERANCE})"
    return None


def source_name(expr) -> Optional[str]:
    """The catalog name a FROM source expression scans, or None.

    Recognizes ``VarRef`` (``FROM users``) and dotted ``Path`` chains
    over a VarRef (``FROM hr.emp``) — the shapes the evaluator resolves
    against the catalog.
    """
    from repro.syntax import ast

    parts = []
    node = expr
    while isinstance(node, ast.Path):
        parts.append(node.attr)
        node = node.base
    if not isinstance(node, ast.VarRef):
        return None
    parts.append(node.name)
    return ".".join(reversed(parts))
