"""The seven workloads: what is set up, what one pass runs, what is right.

Every workload exposes the same small surface to the round runner in
:mod:`harness`:

``setup()``      generate inputs from the seed and load them (timed, part of
                 ``setup_s``)
``warm_up()``    every template twice: first compile, then the query store's
                 feedback-sampled run (timed, part of ``setup_s``)
``prepare()``    full-scale oracle digests (untimed)
``precheck()``   every template at n=500 three ways - default config,
                 ``optimize=False`` reference path, Python oracle - raising
                 on any disagreement (untimed)
``begin_pass()`` untimed reset before each measured pass
``ops``          the ordered list of :class:`Op` that makes one pass
``close()``      remove what set-up left on disk

and, for the traced round, ``compile_cases()``, ``main_collection()`` and
``extra_layers()`` (see :class:`Workload`).

``repro`` is imported inside functions, never at module import, so the
``compare`` verb works without the engine.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import datagen
import oracles

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"

Data = Dict[str, List[Dict[str, Any]]]

#: Rows per collection for the three-way agreement check.
CHECK_ROWS = 500


class Disagreement(Exception):
    """The engine, its reference path and the oracle do not agree."""


# ---------------------------------------------------------------------------
# Plain form of engine results
# ---------------------------------------------------------------------------


def plain(value: Any) -> Any:
    """An engine result as the plain values :mod:`oracles` compares:
    structs become dicts, bags :class:`oracles.BagOf`, arrays lists."""
    from repro.datamodel.values import Bag, Struct

    if isinstance(value, Struct):
        return {name: plain(item) for name, item in value.items()}
    if isinstance(value, Bag):
        return oracles.BagOf(plain(item) for item in value)
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def result_digest(result: Any, ordered: bool) -> Tuple[int, str]:
    return oracles.digest((plain(row) for row in result), ordered)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


class Op:
    """One timed operation of a pass and what its result must be."""

    __slots__ = (
        "name", "kind", "run", "rows", "verify", "error", "rows_in", "db",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        run: Callable[[], Any],
        rows: Optional[int] = None,
        verify: Optional[Callable[[Any], bool]] = None,
        error: Optional[str] = None,
        rows_in: int = 0,
        db: Any = None,
    ):
        self.name = name
        #: ``query`` (leaves a QueryMetrics record on ``db``), ``insert``
        #: or ``cli``.
        self.kind = kind
        self.run = run
        #: Expected result cardinality, checked on every timed op.
        self.rows = rows
        #: Full comparison against the oracle, run on the first measured
        #: pass of a round, outside the timed interval.
        self.verify = verify
        #: Name of the error class the op is *expected* to raise.
        self.error = error
        self.rows_in = rows_in
        self.db = db

    def correct(self, result: Any, raised: Optional[BaseException], full: bool) -> bool:
        if self.error is not None:
            return raised is not None and type(raised).__name__ == self.error
        if raised is not None:
            return False
        if self.rows is not None and _cardinality(result) != self.rows:
            return False
        if full and self.verify is not None:
            return self.verify(result)
        return True


def _cardinality(result: Any) -> Optional[int]:
    try:
        return len(result)
    except TypeError:
        return None


@dataclass(frozen=True)
class Template:
    """A query text, the collections it scans and its Python oracle."""

    name: str
    sql: str
    oracle: Optional[Callable[[Data], List[Any]]]
    scans: Tuple[str, ...]
    ordered: bool = False
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Query templates
# ---------------------------------------------------------------------------

BATCH_TEMPLATES = (
    Template(
        "filter",
        "SELECT o.oid AS oid, o.total AS total FROM orders AS o "
        "WHERE o.total > 250 AND o.qty >= 3",
        oracles.filter_, ("orders",),
    ),
    Template(
        "group_lo",
        "SELECT o.region AS region, COUNT(*) AS n, SUM(o.total) AS s, "
        "AVG(o.qty) AS q FROM orders AS o GROUP BY o.region",
        oracles.group_lo, ("orders",),
    ),
    Template(
        "group_hi",
        "SELECT o.user_id AS uid, COUNT(*) AS n, SUM(o.qty) AS q, "
        "MAX(o.qty) AS m FROM orders AS o GROUP BY o.user_id",
        oracles.group_hi, ("orders",),
    ),
    Template(
        "join",
        "SELECT u.uid AS uid, o.oid AS oid, o.total AS total "
        "FROM users AS u JOIN orders AS o ON o.user_id = u.uid "
        "WHERE o.qty >= 6",
        oracles.join, ("orders", "users"),
    ),
    Template(
        "join_group",
        "SELECT u.tier AS tier, COUNT(*) AS n, SUM(o.qty) AS q "
        "FROM users AS u JOIN orders AS o ON o.user_id = u.uid "
        "GROUP BY u.tier",
        oracles.join_group, ("orders", "users"),
    ),
    Template(
        "absent",
        "SELECT o.oid AS oid FROM orders AS o WHERE o.total IS MISSING "
        "OR (o.region IS NOT NULL AND o.coupon IS NOT MISSING)",
        oracles.absent, ("orders",),
    ),
    Template(
        "or_in",
        "SELECT o.oid AS oid FROM orders AS o WHERE o.status = 'new' "
        "OR o.status = 'paid' OR o.status = 'lost'",
        oracles.or_in, ("orders",),
    ),
    Template(
        "exists_semi",
        "SELECT u.uid AS uid FROM users AS u WHERE EXISTS "
        "(SELECT o.oid FROM orders AS o "
        "WHERE o.user_id = u.uid AND o.qty = 8)",
        oracles.exists_semi, ("orders", "users"),
    ),
    Template(
        "decorrelate",
        "SELECT u.uid AS uid, (SELECT SUM(o.qty) FROM orders AS o "
        "WHERE o.user_id = u.uid) AS q FROM users AS u",
        oracles.decorrelate, ("orders", "users"),
    ),
    Template(
        "case_arith",
        "SELECT o.oid AS oid, CASE WHEN o.qty >= 5 THEN o.total * 0.5 "
        "ELSE o.total + 1 END AS price FROM orders AS o WHERE o.qty <> 4",
        oracles.case_arith, ("orders",),
    ),
    Template(
        "distinct",
        "SELECT DISTINCT o.status AS status, o.region AS region "
        "FROM orders AS o",
        oracles.distinct, ("orders",),
    ),
    Template(
        "order_full",
        "SELECT o.oid AS oid, o.qty AS qty FROM orders AS o "
        "WHERE o.qty >= 7 ORDER BY o.qty DESC, o.oid",
        oracles.order_full, ("orders",), ordered=True,
    ),
    Template(
        "prune_empty",
        "SELECT o.oid AS oid FROM orders AS o WHERE o.qty > 5 AND o.qty < 3",
        oracles.prune_empty, ("orders",),
    ),
)

NESTED_TEMPLATES = (
    Template(
        "unnest",
        "SELECT e.name AS name, p.name AS proj "
        "FROM hr.emp AS e, e.projects AS p WHERE p.hours >= 30",
        oracles.unnest, ("hr.emp",),
    ),
    Template(
        "unnest_group",
        "SELECT p.name AS proj, COUNT(*) AS n, SUM(p.hours) AS h "
        "FROM hr.emp AS e, e.projects AS p GROUP BY p.name",
        oracles.unnest_group, ("hr.emp",),
    ),
    Template(
        "group_as",
        "SELECT dept AS dept, (SELECT VALUE v.e.name FROM g AS v) AS names "
        "FROM hr.emp AS e GROUP BY e.dept AS dept GROUP AS g",
        oracles.group_as, ("hr.emp",),
    ),
    Template(
        "topk",
        "SELECT e.id AS id, e.salary AS salary FROM hr.emp AS e "
        "ORDER BY e.salary DESC, e.id LIMIT 10",
        oracles.topk, ("hr.emp",), ordered=True,
    ),
    Template(
        "limit_early",
        "SELECT e.id AS id FROM hr.emp AS e WHERE e.salary >= 100000 LIMIT 20",
        oracles.limit_early, ("hr.emp",),
    ),
    Template(
        "exists_nested",
        "SELECT e.id AS id FROM hr.emp AS e WHERE EXISTS "
        "(SELECT VALUE p FROM e.projects AS p WHERE p.hours > 35)",
        oracles.exists_nested, ("hr.emp",),
    ),
    Template(
        "nested_select",
        "SELECT e.id AS id, (SELECT VALUE p.name FROM e.projects AS p "
        "WHERE p.hours >= 20) AS big FROM hr.emp AS e",
        oracles.nested_select, ("hr.emp",),
    ),
    Template(
        "unpivot",
        "SELECT sym AS sym, AVG(price) AS avg_price "
        "FROM prices AS c, UNPIVOT c AS price AT sym "
        "WHERE sym <> 'day' GROUP BY sym",
        oracles.unpivot, ("prices",),
    ),
    Template(
        "hetero_group",
        "SELECT ev.kind AS kind, COUNT(*) AS n, AVG(ev.latency) AS avg, "
        "COUNT(ev.latency) AS c FROM events AS ev GROUP BY ev.kind",
        oracles.hetero_group, ("events",),
    ),
    Template(
        "hetero_tags",
        "SELECT t AS tag, COUNT(*) AS n FROM events AS ev, ev.tags AS t "
        "GROUP BY t",
        oracles.hetero_tags, ("events",),
    ),
    Template(
        "window_rank",
        "SELECT e.id AS id, RANK() OVER (PARTITION BY e.dept "
        "ORDER BY e.salary DESC) AS rk FROM hr.emp AS e",
        oracles.window_rank, ("hr.emp",),
    ),
    Template(
        "construct",
        "SELECT VALUE {'who': e.name, 'n': COLL_COUNT(e.projects), "
        "'first': e.projects[0].name} FROM hr.emp AS e",
        oracles.construct, ("hr.emp",),
    ),
)

#: Not legal under stop-on-error typing on this data: ``construct``
#: indexes an empty array and ``hetero_tags`` ranges over an absent
#: attribute, both of which permissive mode turns into MISSING.
STRICT_ILLEGAL = ("construct", "hetero_tags")

STRICT_TEMPLATES = tuple(
    template for template in NESTED_TEMPLATES
    if template.name not in STRICT_ILLEGAL
) + (
    Template(
        "stop_on_error",
        "SELECT VALUE ev.latency * 2 FROM events_dirty AS ev",
        None, ("events_dirty",), error="TypeCheckError",
    ),
)

DASHBOARD_TEMPLATES = (
    Template(
        "count_by_kind",
        "SELECT ev.kind AS kind, COUNT(*) AS n FROM events AS ev "
        "GROUP BY ev.kind",
        oracles.count_by_kind, ("events",),
    ),
    Template(
        "avg_latency",
        "SELECT ev.kind AS kind, AVG(ev.latency) AS avg FROM events AS ev "
        "WHERE ev.user.plan = 'pro' GROUP BY ev.kind",
        oracles.avg_latency, ("events",),
    ),
    Template(
        "top_latency",
        "SELECT ev.id AS id, ev.latency AS latency FROM events AS ev "
        "WHERE ev.latency > 0 ORDER BY ev.latency DESC, ev.id LIMIT 10",
        oracles.top_latency, ("events",), ordered=True,
    ),
    Template(
        "tags_count",
        "SELECT t AS tag, COUNT(*) AS n FROM events AS ev, ev.tags AS t "
        "GROUP BY t",
        oracles.tags_count, ("events",),
    ),
)

CLI_TEMPLATE = Template(
    "cli_group",
    "SELECT u.tier AS tier, COUNT(*) AS n, AVG(u.age) AS age "
    "FROM users AS u GROUP BY u.tier",
    oracles.tier_summary, ("users",),
)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load(db: Any, data: Data) -> None:
    for name, rows in data.items():
        db.set(name, rows)


def _query_op(db: Any, template: Template, data: Data) -> Op:
    """An op running ``template`` on ``db`` with its oracle on ``data``."""
    sql = template.sql
    op = Op(
        template.name, "query", lambda: db.execute(sql), error=template.error,
        rows_in=sum(len(data[name]) for name in template.scans), db=db,
    )
    if template.oracle is not None:
        ordered = template.ordered
        expected = oracles.digest(template.oracle(data), ordered)
        op.rows = expected[0]
        op.verify = lambda result: result_digest(result, ordered) == expected
    return op


def _three_way(db: Any, template: Template, data: Data, label: str) -> None:
    """Default config, ``optimize=False`` and the oracle must agree."""
    if template.oracle is None:
        expected: Any = ("raised", template.error)
    else:
        expected = oracles.digest(template.oracle(data), template.ordered)
    outcomes = []
    for optimize in (None, False):
        try:
            result = db.execute(template.sql, optimize=optimize)
            outcomes.append(result_digest(result, template.ordered))
        except Exception as exc:  # compared below, never swallowed
            outcomes.append(("raised", type(exc).__name__))
    if outcomes != [expected, expected]:
        raise Disagreement(
            f"{label}/{template.name} at n={CHECK_ROWS}: default={outcomes[0]} "
            f"reference={outcomes[1]} oracle={expected}"
        )


class Workload:
    """Defaults shared by the seven workloads."""

    typing_mode = "permissive"
    #: Templates compiled by the traced compile section.
    templates: Tuple[Template, ...] = ()

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.ops: List[Op] = []
        self.data: Data = {}
        #: Seconds spent in ``Database.set`` during set-up, and the rows set.
        self.set_seconds = 0.0
        self.set_rows = 0

    def _database(self, query_store: bool = True) -> Any:
        from repro import Database

        return Database(typing_mode=self.typing_mode, query_store=query_store)

    def _timed_load(self, db: Any, data: Data) -> None:
        started = perf_counter()
        _load(db, data)
        self.set_seconds = perf_counter() - started
        self.set_rows = sum(len(rows) for rows in data.values())

    def generate(self) -> Any:
        """The inputs made from the seed, as JSON-able plain data."""
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def begin_pass(self) -> None:
        pass

    def close(self) -> None:
        pass

    def compile_cases(self) -> List[Tuple[Callable[[bool], Any], str]]:
        """``(make_db(query_store), sql)`` per template; the databases
        hold a 20-row sample, enough for name resolution."""
        sample = {name: rows[:20] for name, rows in self.data.items()}

        def make_db(query_store: bool) -> Any:
            db = self._database(query_store)
            _load(db, sample)
            return db

        return [(make_db, template.sql) for template in self.templates]

    def main_collection(self) -> Tuple[str, List[Any]]:
        name = max(self.data, key=lambda key: len(self.data[key]))
        return name, self.data[name]

    def extra_layers(self, op_p50_ms: Dict[str, float]) -> Dict[str, float]:
        """Layer metrics only this workload can measure."""
        return {}


class QueryWorkload(Workload):
    """Warm queries over one loaded database (workloads 3, 4 and 5)."""

    def __init__(
        self,
        name: str,
        seed: int,
        templates: Sequence[Template],
        make_data: Callable[[int, bool], Data],
        typing_mode: str = "permissive",
        fanout_probe: Optional[str] = None,
    ):
        super().__init__(name, seed)
        self.templates = tuple(templates)
        self.make_data = make_data
        self.typing_mode = typing_mode
        #: Template also run at ``parallel=2`` by the traced round.
        self.fanout_probe = fanout_probe

    def generate(self) -> Data:
        return self.make_data(self.seed, False)

    def setup(self) -> None:
        self.data = self.generate()
        self.db = self._database()
        self._timed_load(self.db, self.data)

    def warm_up(self) -> None:
        from repro.errors import SQLPPError

        for _ in range(2):
            for template in self.templates:
                try:
                    self.db.execute(template.sql)
                except SQLPPError:
                    if template.error is None:
                        raise

    def prepare(self) -> None:
        self.ops = [
            _query_op(self.db, template, self.data) for template in self.templates
        ]

    def precheck(self) -> None:
        small = self.make_data(self.seed, True)
        db = self._database()
        _load(db, small)
        for template in self.templates:
            _three_way(db, template, small, self.name)

    def extra_layers(self, op_p50_ms: Dict[str, float]) -> Dict[str, float]:
        if self.fanout_probe is None:
            return {}
        import layers

        sql = next(t.sql for t in self.templates if t.name == self.fanout_probe)
        return {
            "core.parallel.fanout_overhead_ms": layers.fanout_overhead_ms(self.db, sql)
        }


def _batch_data(seed: int, small: bool) -> Data:
    n_orders, n_users = (CHECK_ROWS, 50) if small else (20_000, 2_000)
    return {
        "orders": datagen.orders(seed, n_orders, n_users),
        "users": datagen.users(seed, n_users),
    }


def _nested_data(dirty: bool) -> Callable[[int, bool], Data]:
    def make(seed: int, small: bool) -> Data:
        n = CHECK_ROWS if small else 8_000
        data = {
            "hr.emp": datagen.employees(seed, n),
            "events": datagen.events(seed, n, dirty=dirty),
            "prices": datagen.prices(seed, 50 if small else 400),
        }
        if not dirty:
            # One mistyped row, three quarters of the way in, for the
            # stop-on-error template.
            rows = datagen.events(seed, 200, dirty=False, start_id=1_000_000)
            rows[150]["latency"] = "timeout"
            data["events_dirty"] = rows
        return data

    return make


# ---------------------------------------------------------------------------
# Compatibility kit (workloads 1 and 2)
# ---------------------------------------------------------------------------


class KitWorkload(Workload):
    """The compat-kit cases: ``cold`` builds a fresh database per op,
    warm keeps one database per case with its compile cache hot."""

    def __init__(self, name: str, seed: int, cold: bool):
        super().__init__(name, seed)
        self.cold = cold

    def generate(self) -> List[str]:
        """The kit is fixed; the seed decides the order its cases run in."""
        from repro.compat import all_cases

        ids = [case.case_id for case in all_cases()]
        random.Random(f"{self.seed}:kit").shuffle(ids)
        return ids

    def setup(self) -> None:
        from repro.compat import all_cases
        from repro.formats.sqlpp_text import loads

        by_id = {case.case_id: case for case in all_cases()}
        cases = self.cases = [by_id[case_id] for case_id in self.generate()]
        self.case_data = [
            [(name, loads(literal)) for name, literal in case.data.items()]
            for case in cases
        ]
        self.expected = [
            loads(case.expected) if case.expected is not None else None
            for case in cases
        ]
        started = perf_counter()
        self.dbs = [self._build(index) for index in range(len(cases))]
        self.set_seconds = perf_counter() - started
        self.set_rows = sum(
            _cardinality(value) or 1
            for data in self.case_data for _, value in data
        )
        self.ops = [self._op(index) for index in range(len(cases))]

    def _build(self, index: int, query_store: bool = True) -> Any:
        from repro import Database

        case = self.cases[index]
        db = Database(
            typing_mode=case.typing_mode, sql_compat=case.sql_compat,
            query_store=query_store,
        )
        for name, value in self.case_data[index]:
            db.set(name, value)
        return db

    def _op(self, index: int) -> Op:
        from repro.compat.runner import _results_equal

        case = self.cases[index]
        query = case.query
        expected = self.expected[index]
        ordered = case.ordered
        op = Op(
            case.case_id, "query", lambda: None,
            rows=_cardinality(expected) if expected is not None else None,
            # The kit runner's own comparison: top-level collections
            # compare as bags unless the case is ordered.
            verify=lambda result: _results_equal(result, expected, ordered),
            error=case.expect_error,
            rows_in=sum(_cardinality(value) or 1 for _, value in self.case_data[index]),
        )
        if self.cold:
            build = self._build

            def run() -> Any:
                op.db = build(index)
                return op.db.execute(query)
        else:
            db = op.db = self.dbs[index]

            def run() -> Any:
                # Looked up per call, so a traced round's wrapper is seen.
                return db.execute(query)

        op.run = run
        return op

    def warm_up(self) -> None:
        for _ in range(2):
            for op in self.ops:
                try:
                    op.run()
                except Exception:
                    if op.error is None:
                        raise

    def precheck(self) -> None:
        """Default config, reference path and the hand-written
        expectation agree on every case (the kit's data is already
        smaller than n=500)."""
        for index, op in enumerate(self.ops):
            case = self.cases[index]
            for optimize in (None, False):
                db = self._build(index)
                try:
                    result, raised = db.execute(case.query, optimize=optimize), None
                except Exception as exc:
                    result, raised = None, exc
                if not op.correct(result, raised, full=True):
                    raise Disagreement(
                        f"{self.name}/{case.case_id} optimize={optimize}: "
                        f"got {result!r} / {raised!r}"
                    )

    def compile_cases(self) -> List[Tuple[Callable[[bool], Any], str]]:
        return [
            (lambda query_store, index=index: self._build(index, query_store),
             case.query)
            for index, case in enumerate(self.cases)
        ]

    def main_collection(self) -> Tuple[str, List[Any]]:
        name, value = max(
            (pair for pairs in self.case_data for pair in pairs),
            key=lambda pair: _cardinality(pair[1]) or 0,
        )
        return name, list(value)


# ---------------------------------------------------------------------------
# ingest_query (workload 6)
# ---------------------------------------------------------------------------


class IngestWorkload(Workload):
    """Writes beside reads: each ``insert`` of 200 events is followed by
    four dashboard queries; a pass grows ``events`` from ``START`` rows by
    ``STEPS`` inserts and the next pass starts over."""

    START = 2_000
    BATCH = 200
    STEPS = 20
    templates = DASHBOARD_TEMPLATES

    def generate(self) -> Dict[str, Any]:
        return {
            "events": datagen.events(self.seed, self.START, dirty=True),
            "batches": [
                datagen.events(
                    self.seed, self.BATCH, dirty=True,
                    start_id=self.START + step * self.BATCH,
                )
                for step in range(self.STEPS)
            ],
        }

    def setup(self) -> None:
        generated = self.generate()
        self.initial, self.batches = generated["events"], generated["batches"]
        self.data = {"events": self.initial}
        self.db = self._database()
        self._timed_load(self.db, self.data)

    def warm_up(self) -> None:
        for _ in range(2):
            for template in self.templates:
                self.db.execute(template.sql)
        self.db.insert("events", self.batches[0])
        self.begin_pass()

    def prepare(self) -> None:
        db = self.db
        rows = list(self.initial)
        self.ops = []
        for batch in self.batches:
            self.ops.append(
                Op("insert", "insert", lambda batch=batch: db.insert("events", batch))
            )
            rows = rows + batch
            self.ops.extend(
                _query_op(db, template, {"events": rows})
                for template in self.templates
            )

    def precheck(self) -> None:
        small = {"events": datagen.events(self.seed, CHECK_ROWS, dirty=True)}
        db = self._database()
        _load(db, small)
        for template in self.templates:
            _three_way(db, template, small, self.name)

    def begin_pass(self) -> None:
        self.db.set("events", self.initial)


# ---------------------------------------------------------------------------
# cli_cold_start (workload 7)
# ---------------------------------------------------------------------------


class CliWorkload(Workload):
    """One ``python -m repro --load ... -c ...`` process per op."""

    USERS = 2_000
    #: Serial processes per pass.
    RUNS = 5
    templates = (CLI_TEMPLATE,)

    def generate(self) -> Data:
        return {"users": datagen.users(self.seed, self.USERS)}

    def setup(self) -> None:
        self.data = self.generate()
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"cli_users.{self.seed}.{os.getpid()}.json"
        started = perf_counter()
        self.path.write_text(json.dumps(self.data["users"]))
        self.set_seconds = perf_counter() - started
        self.set_rows = self.USERS
        self.command = [
            sys.executable, "-m", "repro",
            "--load", f"users={self.path}", "-c", CLI_TEMPLATE.sql,
        ]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def _run(self) -> str:
        done = subprocess.run(
            self.command, env=self.env, cwd=str(HERE), capture_output=True,
            text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"CLI exited {done.returncode}: {done.stderr[-500:]}")
        return done.stdout

    def warm_up(self) -> None:
        for _ in range(2):
            self._run()

    def prepare(self) -> None:
        expected = oracles.digest(CLI_TEMPLATE.oracle(self.data), False)

        def verify(stdout: str) -> bool:
            from repro.formats.sqlpp_text import loads

            return result_digest(loads(stdout), False) == expected

        self.ops = [
            Op(CLI_TEMPLATE.name, "cli", self._run, verify=verify, rows_in=self.USERS)
            for _ in range(self.RUNS)
        ]

    def precheck(self) -> None:
        small = {"users": datagen.users(self.seed, CHECK_ROWS)}
        db = self._database()
        _load(db, small)
        _three_way(db, CLI_TEMPLATE, small, self.name)

    def extra_layers(self, op_p50_ms: Dict[str, float]) -> Dict[str, float]:
        import layers

        return layers.cli_layers(self, op_p50_ms[CLI_TEMPLATE.name])

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "kit_cold": lambda seed: KitWorkload("kit_cold", seed, cold=True),
    "kit_warm": lambda seed: KitWorkload("kit_warm", seed, cold=False),
    "batch_analytics": lambda seed: QueryWorkload(
        "batch_analytics", seed, BATCH_TEMPLATES, _batch_data, fanout_probe="join"
    ),
    "nested_streaming": lambda seed: QueryWorkload(
        "nested_streaming", seed, NESTED_TEMPLATES, _nested_data(dirty=True)
    ),
    "strict_nested": lambda seed: QueryWorkload(
        "strict_nested", seed, STRICT_TEMPLATES, _nested_data(dirty=False),
        typing_mode="strict",
    ),
    "ingest_query": lambda seed: IngestWorkload("ingest_query", seed),
    "cli_cold_start": lambda seed: CliWorkload("cli_cold_start", seed),
}


def generated_inputs(name: str, seed: int) -> str:
    """A workload's generated inputs as canonical JSON text (what the
    determinism tests compare)."""
    return json.dumps(WORKLOADS[name](seed).generate(), sort_keys=True)
