"""Command-line interface: a SQL++ REPL, script runner and kit runner.

Usage::

    python -m repro                     # interactive REPL
    python -m repro query.sqlpp         # run a script of ;-separated queries
    python -m repro --compat-kit        # run the compatibility kit
    python -m repro -c "SELECT VALUE 1" # one-shot query
    python -m repro lint query.sqlpp    # static analysis, no execution
    python -m repro --check query.sqlpp # refuse to run on lint errors
    python -m repro report store.jsonl  # summarize a persisted query store

REPL dot-commands::

    .load <name> <path> [format]   load a file into a named value
    .set  <name> <literal>         define a named value from a literal
    .names                         list named values
    .mode core|compat              toggle the SQL-compatibility flag
    .typing permissive|strict      toggle the typing mode
    .explain <query>               show the rewritten Core query
    .plan <query>                  show the physical plan (same as EXPLAIN)
    .analyze <query>               run and show the annotated plan
    .trace <query>                 run and show the structured span tree
    .lint <query>                  statically analyze without running
    .rewrites [query]              list the semantic rewrite rules, or
                                   show the rewrites fired on a query
    .stats                         show session metrics counters
    .metrics                       show Prometheus-format metrics text
    .topqueries [n]                show the query store's top fingerprints
    .schema <name> <ddl>           impose a schema on a named value
    .quit

``EXPLAIN <query>`` (as a statement, in the REPL or via ``-c``) prints
the physical plan the optimizer chose — the FROM operator tree, pushed
predicates and the rewrites that fired (see docs/PLANNER.md).
``EXPLAIN ANALYZE <query>`` additionally *executes* the query and
annotates every operator with its invocation count, rows in/out and
wall time (see docs/OBSERVABILITY.md); ``--stats`` prints per-query
phase timings, and ``--timeout`` / ``--max-rows`` / ``--max-recursion``
stop runaway queries with a partial-progress report instead of a hang.

``--no-optimize`` runs the reference interpreter (the oracle) instead
of the engine: no semantic rewrites (docs/REWRITER.md), no physical
planning, the same answers.  ``--explain-rewrites`` prints, for each
query, the Core before/after the registry ran and every rewrite that
fired with its discharged safety conditions, instead of executing.

``--trace-out FILE`` records a structured span trace of every executed
query and writes one Chrome trace-event JSON file at exit (load it in
Perfetto or ``chrome://tracing``); ``--metrics-out FILE`` writes the
session's metrics in Prometheus text format at exit.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional, Tuple

from repro import __version__
from repro.catalog.database import Database
from repro.errors import ResourceExhausted, SQLPPError
from repro.formats.sqlpp_text import dumps


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        return _lint_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="sqlpp",
        description="SQL++ query processor (reproduction of Carey et al., "
        "ICDE 2024)",
    )
    parser.add_argument("script", nargs="?", help="script of ;-separated queries")
    parser.add_argument("-c", "--command", help="run one query and exit")
    parser.add_argument(
        "--core",
        action="store_true",
        help="composability mode (SQL-compatibility flag off)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="stop-on-error typing mode (default: permissive)",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="run the reference interpreter instead of the engine",
    )
    parser.add_argument(
        "--explain-rewrites",
        action="store_true",
        help="for each query, print the Core before/after the rewrite "
        "registry and the rewrites that fired, instead of executing",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-query phase timings (parse/rewrite/plan/execute) "
        "to stderr after each query",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="stop any query that runs longer than SECONDS",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        metavar="N",
        help="stop any query that materializes more than N binding rows",
    )
    parser.add_argument(
        "--max-recursion",
        type=int,
        metavar="N",
        help="stop any query nesting subqueries deeper than N",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record structured spans for every executed query and "
        "write a Chrome trace-event JSON file (Perfetto-loadable) "
        "to PATH at exit",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write session metrics in Prometheus text format to PATH "
        "at exit",
    )
    parser.add_argument(
        "--slow-log",
        metavar="PATH",
        help="append per-query metrics records (JSON lines) to PATH",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        help="persist the query store (fingerprinted workload history, "
        "plan-change/regression events) as JSON lines at PATH; "
        "summarize later with the `report` verb",
    )
    parser.add_argument(
        "--slow-log-threshold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --slow-log: only log queries slower than SECONDS "
        "(errors are always logged)",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a data file into a named value (repeatable)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="statically analyze every query before running it and "
        "refuse execution on error-severity findings "
        "(see docs/ANALYZER.md)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="with --check: lowest finding severity that refuses "
        "execution (default: error)",
    )
    parser.add_argument(
        "--compat-kit",
        action="store_true",
        help="run the SQL++ compatibility kit and print the report",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --compat-kit: print a machine-readable JSON report",
    )
    parser.add_argument(
        "--version", action="version", version=f"sqlpp {__version__}"
    )
    args = parser.parse_args(argv)

    if args.compat_kit:
        from repro.compat import format_report, run_cases

        results = run_cases()
        if args.json:
            import json as json_module

            from repro.compat.report import report_json

            print(json_module.dumps(report_json(results), indent=2))
        else:
            print(format_report(results))
        return 0 if all(result.passed for result in results) else 1

    metrics_sinks = None
    if args.slow_log:
        from repro.observability import JsonLinesSink

        metrics_sinks = [
            JsonLinesSink(args.slow_log, threshold_s=args.slow_log_threshold)
        ]
    db = Database(
        typing_mode="strict" if args.strict else "permissive",
        sql_compat=not args.core,
        optimize=not args.no_optimize,
        timeout_s=args.timeout,
        max_rows=args.max_rows,
        max_recursion=args.max_recursion,
        metrics_sinks=metrics_sinks,
        query_store=args.store if args.store else True,
    )
    for spec in args.load:
        name, __, path = spec.partition("=")
        if not path:
            parser.error(f"--load expects NAME=PATH, got {spec!r}")
        db.load(name, path)

    trace_context = None
    if args.trace_out:
        from repro.observability import TraceContext

        trace_context = TraceContext(name="sqlpp-session")
    try:
        if args.command:
            return _run_text(
                db,
                args.command,
                stats=args.stats,
                trace=trace_context,
                check=args.check,
                explain_rewrites=args.explain_rewrites,
                fail_on=args.fail_on,
            )
        if args.script:
            with open(args.script) as handle:
                return _run_text(
                    db,
                    handle.read(),
                    stats=args.stats,
                    trace=trace_context,
                    check=args.check,
                    explain_rewrites=args.explain_rewrites,
                    fail_on=args.fail_on,
                )
        return _repl(
            db,
            stats=args.stats,
            trace=trace_context,
            check=args.check,
            fail_on=args.fail_on,
        )
    finally:
        if trace_context is not None:
            trace_context.write_chrome_trace(args.trace_out)
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                handle.write(db.metrics.expose_text())
        db.close()


def _lint_main(argv: List[str]) -> int:
    """The ``lint`` verb: static analysis without execution.

    ``python -m repro lint query.sqlpp ...`` analyzes each script and
    prints caret-context findings (or one JSON document per input with
    ``--json``); exit status 1 when any finding is error-severity.
    ``--compat-kit`` lints every paper listing in the conformance
    corpus as a false-positive self-check: every listing must be free
    of error-severity findings in its own language modes.
    """
    parser = argparse.ArgumentParser(
        prog="sqlpp lint",
        description="statically analyze SQL++ scripts "
        "(see docs/ANALYZER.md for the rule catalog)",
    )
    parser.add_argument("files", nargs="*", help="SQL++ script files")
    parser.add_argument(
        "-c", "--command", help="lint one query given on the command line"
    )
    parser.add_argument(
        "--core", action="store_true", help="composability mode"
    )
    parser.add_argument(
        "--strict", action="store_true", help="stop-on-error typing mode"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a rule code (repeatable)",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a data file into a named value first (repeatable)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="lowest finding severity that fails the run "
        "(default: error)",
    )
    parser.add_argument(
        "--compat-kit",
        action="store_true",
        help="lint every compatibility-kit listing (false-positive "
        "self-check)",
    )
    args = parser.parse_args(argv)
    if args.compat_kit:
        return _lint_compat_kit(json_output=args.json)
    if not args.files and not args.command:
        parser.error("nothing to lint: give files, -c QUERY or --compat-kit")

    from repro.analysis import render_json, render_text

    db = Database(
        typing_mode="strict" if args.strict else "permissive",
        sql_compat=not args.core,
    )
    for spec in args.load:
        name, __, path = spec.partition("=")
        if not path:
            parser.error(f"--load expects NAME=PATH, got {spec!r}")
        db.load(name, path)

    inputs: List[Tuple[str, str]] = []
    if args.command:
        inputs.append(("<command>", args.command))
    for path in args.files:
        with open(path) as handle:
            inputs.append((path, handle.read()))

    status = 0
    for label, text in inputs:
        diagnostics = db.check(text, suppress=args.ignore)
        if args.json:
            print(render_json(diagnostics, filename=label))
        else:
            print(render_text(diagnostics, source=text, filename=label))
        if any(_at_least(d.severity, args.fail_on) for d in diagnostics):
            status = 1
    return status


#: Severity rank for ``--fail-on`` thresholds (higher = more severe).
_SEVERITY_RANK = {"info": 0, "warning": 1, "error": 2}


def _at_least(severity: str, threshold: str) -> bool:
    """Whether ``severity`` meets or exceeds the ``--fail-on`` bar."""
    return _SEVERITY_RANK.get(severity, 0) >= _SEVERITY_RANK[threshold]


def _report_main(argv: List[str]) -> int:
    """The ``report`` verb: summarize a persisted query store.

    ``python -m repro report store.jsonl`` reloads the JSON-lines store
    a previous ``--store`` session wrote (corrupt lines are skipped)
    and prints the workload report: top fingerprints by accumulated
    wall time, plan-change and latency-regression counts, q-errors.
    """
    parser = argparse.ArgumentParser(
        prog="sqlpp report",
        description="summarize a persisted query store "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument("store", help="query-store JSON-lines file")
    parser.add_argument(
        "-n",
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="how many fingerprints to show (default 10)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    from repro.observability import QueryStore

    try:
        store = QueryStore(path=args.store)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            import json as json_module

            print(json_module.dumps(store.snapshot(), indent=2))
        else:
            print(store.report(args.top))
    finally:
        store.close()
    return 0


def _lint_compat_kit(json_output: bool = False) -> int:
    """Lint every positive conformance listing in both typing modes.

    The corpus doubles as the analyzer's false-positive suite: the
    paper's listings are all valid, so any error-severity finding on
    one is an analyzer bug.
    """
    from repro.analysis import AnalyzerOptions, analyze
    from repro.analysis.diagnostics import ERROR
    from repro.compat.corpus import all_cases
    from repro.config import EvalConfig

    failures = []
    checked = 0
    for case in all_cases():
        if case.expect_error is not None:
            continue
        for typing_mode in ("permissive", "strict"):
            checked += 1
            options = AnalyzerOptions(
                config=EvalConfig(
                    sql_compat=case.sql_compat, typing_mode=typing_mode
                ),
                catalog_names=tuple(case.data),
            )
            errors = [
                d
                for d in analyze(case.query, options)
                if d.severity == ERROR
            ]
            if errors:
                failures.append((case.case_id, typing_mode, errors))
    if json_output:
        import json as json_module

        print(
            json_module.dumps(
                {
                    "checked": checked,
                    "failures": [
                        {
                            "case_id": case_id,
                            "typing_mode": typing_mode,
                            "diagnostics": [d.to_dict() for d in errors],
                        }
                        for case_id, typing_mode, errors in failures
                    ],
                },
                indent=2,
            )
        )
    else:
        for case_id, typing_mode, errors in failures:
            for diagnostic in errors:
                print(
                    f"{case_id} [{typing_mode}]: {diagnostic.code} "
                    f"{diagnostic.message}"
                )
        print(
            f"compat-kit lint: {checked} listing/mode combinations, "
            f"{len(failures)} with error findings"
        )
    return 1 if failures else 0


_EXPLAIN_PREFIX = re.compile(r"^\s*EXPLAIN(\s+ANALYZE)?\b", re.IGNORECASE)


def _strip_explain(text: str) -> Optional[Tuple[str, bool]]:
    """The query under an ``EXPLAIN [ANALYZE]`` verb as ``(query,
    analyze)``, or None when there is no such verb."""
    match = _EXPLAIN_PREFIX.match(text)
    if match is None:
        return None
    return text[match.end():].strip().rstrip(";"), match.group(1) is not None


def _print_stats(db: Database) -> None:
    """Phase timings for the query that just ran (``--stats``)."""
    last = db.metrics.last
    if last is None:
        return
    for line in last.format_phases():
        print(f"-- {line}", file=sys.stderr)


def _report_exhausted(exc: ResourceExhausted, stream) -> None:
    """The graceful partial-result report for a stopped query."""
    print(f"resource limit: {exc}", file=stream)
    print(
        f"  stopped after {exc.rows_produced} binding rows, "
        f"{exc.elapsed_s:.3f}s elapsed ({exc.kind})",
        file=stream,
    )


def _session_tracer(trace):
    """A fresh per-query ExecTracer feeding the session trace, or None."""
    if trace is None:
        return None
    from repro.observability import ExecTracer

    return ExecTracer(trace=trace)


def _refused(db: Database, text: str, fail_on: str = "error") -> bool:
    """The ``--check`` gate: True when static analysis finds findings
    at or above the ``--fail-on`` severity threshold.

    Every finding is printed (caret context included); only findings
    meeting the threshold block execution — by default errors, with
    ``--fail-on warning`` / ``--fail-on info`` tightening the gate.
    """
    from repro.analysis import render_text

    diagnostics = db.check(text)
    if not diagnostics:
        return False
    print(render_text(diagnostics, source=text), file=sys.stderr)
    return any(_at_least(d.severity, fail_on) for d in diagnostics)


def _run_text(
    db: Database,
    text: str,
    stats: bool = False,
    trace=None,
    check: bool = False,
    explain_rewrites: bool = False,
    fail_on: str = "error",
) -> int:
    from repro.syntax.parser import parse_script

    if explain_rewrites:
        from repro.syntax.printer import print_ast

        try:
            queries = parse_script(text)
        except SQLPPError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        status = 0
        for query in queries:
            try:
                print(db.explain_rewrites(print_ast(query)))
            except SQLPPError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
        return status

    explained = _strip_explain(text)
    if check and _refused(db, explained[0] if explained else text, fail_on):
        print(
            "error: refusing to execute (--check found findings at "
            f"or above --fail-on {fail_on})",
            file=sys.stderr,
        )
        return 1
    if explained is not None:
        query, analyze = explained
        try:
            if analyze:
                print(db.explain_analyze(query))
            else:
                print(db.explain_plan(query))
            return 0
        except ResourceExhausted as exc:
            _report_exhausted(exc, sys.stderr)
            return 1
        except SQLPPError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        queries = parse_script(text)
    except SQLPPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = 0
    for query in queries:
        from repro.syntax.printer import print_ast

        try:
            print(
                dumps(
                    db.execute(
                        print_ast(query), tracer=_session_tracer(trace)
                    )
                )
            )
        except ResourceExhausted as exc:
            _report_exhausted(exc, sys.stderr)
            status = 1
        except SQLPPError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
        if stats:
            _print_stats(db)
    return status


def _repl(
    db: Database,
    stats: bool = False,
    trace=None,
    check: bool = False,
    fail_on: str = "error",
) -> int:
    print(f"sqlpp {__version__} — type .help for commands, .quit to exit")
    buffer: List[str] = []
    while True:
        prompt = "sqlpp> " if not buffer else "  ...> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer.clear()
            continue
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            if not _dot_command(db, stripped):
                return 0
            continue
        buffer.append(line)
        if stripped.endswith(";") or (stripped and not buffer[:-1] and _is_complete(stripped)):
            text = "\n".join(buffer).rstrip().rstrip(";")
            buffer.clear()
            if not text.strip():
                continue
            try:
                explained = _strip_explain(text)
                if check and _refused(
                    db, explained[0] if explained else text, fail_on
                ):
                    print(f"refused (--check, --fail-on {fail_on})")
                    continue
                if explained is not None:
                    query, analyze = explained
                    if analyze:
                        print(db.explain_analyze(query))
                    else:
                        print(db.explain_plan(query))
                else:
                    print(dumps(db.execute(text, tracer=_session_tracer(trace))))
                    if stats:
                        _print_stats(db)
            except ResourceExhausted as exc:
                _report_exhausted(exc, sys.stdout)
            except SQLPPError as exc:
                print(f"error: {exc}")


def _is_complete(text: str) -> bool:
    """Single-line inputs without ';' still run if they parse."""
    from repro.syntax.parser import parse

    explained = _strip_explain(text)
    try:
        parse(text if explained is None else explained[0])
    except SQLPPError:
        return False
    return True


def _dot_command(db: Database, line: str) -> bool:
    """Handle a REPL dot-command; returns False to exit."""
    parts = line.split(None, 2)
    command = parts[0]
    try:
        if command in (".quit", ".exit"):
            return False
        if command == ".help":
            print(__doc__)
        elif command == ".names":
            for name in db.names():
                print(name)
        elif command == ".load" and len(parts) == 3:
            name, rest = parts[1], parts[2].split()
            db.load(name, rest[0], rest[1] if len(rest) > 1 else None)
            print(f"loaded {name}")
        elif command == ".set" and len(parts) == 3:
            db.load_value(parts[1], parts[2])
            print(f"set {parts[1]}")
        elif command == ".schema" and len(parts) == 3:
            db.set_schema(parts[1], parts[2])
            print(f"schema set on {parts[1]}")
        elif command == ".mode" and len(parts) >= 2:
            # dataclasses.replace keeps every other dial — optimize,
            # resource limits — instead of silently resetting them.
            import dataclasses

            db._config = dataclasses.replace(
                db._config, sql_compat=(parts[1] != "core")
            )
            print(f"mode: {'compat' if db._config.sql_compat else 'core'}")
        elif command == ".typing" and len(parts) >= 2:
            import dataclasses

            db._config = dataclasses.replace(db._config, typing_mode=parts[1])
            print(f"typing: {db._config.typing_mode}")
        elif command == ".explain" and len(parts) >= 2:
            print(db.explain(line.split(None, 1)[1]))
        elif command == ".plan" and len(parts) >= 2:
            print(db.explain_plan(line.split(None, 1)[1]))
        elif command == ".analyze" and len(parts) >= 2:
            print(db.explain_analyze(line.split(None, 1)[1]))
        elif command == ".lint" and len(parts) >= 2:
            from repro.analysis import render_text

            text = line.split(None, 1)[1]
            print(render_text(db.check(text), source=text))
        elif command == ".rewrites":
            if len(parts) >= 2:
                print(db.explain_rewrites(line.split(None, 1)[1]))
            else:
                from repro.core import rewrite_rules

                print(rewrite_rules.describe_rules())
        elif command == ".trace" and len(parts) >= 2:
            print(db.trace(line.split(None, 1)[1]).format_tree())
        elif command == ".stats":
            print(db.metrics.format_snapshot())
        elif command == ".metrics":
            print(db.metrics.expose_text(), end="")
        elif command == ".topqueries":
            store = db.query_store()
            if store is None:
                print("query store is disabled")
            else:
                n = 10
                if len(parts) >= 2:
                    try:
                        n = int(parts[1])
                    except ValueError:
                        print(f"usage: .topqueries [n], got {parts[1]!r}")
                        return True
                print(store.report(n))
        else:
            print(f"unknown command {command!r}; try .help")
    except (SQLPPError, OSError) as exc:
        print(f"error: {exc}")
    return True


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
