"""The Core-text golden: what the compile pipeline turns each query into.

``core_golden.json`` pins, as printed text, the ``pre_core`` tree (sugar
lowered only) and the ``core`` tree (semantically rewritten and folded)
that ``Database._compile_query`` builds for

* each compat-kit case, with its data loaded, in both typing modes and
  both ``sql_compat`` settings (a compile error is pinned by class and
  message instead);
* every statement of ``examples/lint_tour.sqlpp``, the same four ways.

Generated names (``$group``, ``$g_elem``, ``$semi`` ...) are part of the
text, so a change to traversal order or to the fresh-name supply shows
here.  ``test_core_golden.py`` compares the compiler against the file.
Regenerate it (from the repository root) with::

    PYTHONPATH=src python -m tests.syntax.core_golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Mapping, Tuple

GOLDEN = Path(__file__).with_name("core_golden.json")
LINT_TOUR = Path(__file__).parents[2] / "examples" / "lint_tour.sqlpp"
MODES = ("permissive", "strict")
COMPAT = (True, False)


def _compiled(query: str, data: Mapping[str, str]) -> Iterator[Tuple[str, Dict[str, str]]]:
    from repro import Database
    from repro.errors import SQLPPError
    from repro.syntax.printer import print_ast

    for mode in MODES:
        for compat in COMPAT:
            db = Database(typing_mode=mode, sql_compat=compat)
            for name, literal in data.items():
                db.load_value(name, literal)
            label = f"{mode}/{'sql' if compat else 'core'}"
            try:
                compiled = db._compile_query(query, db._effective_config())
            except SQLPPError as error:
                yield label, {"error": f"{type(error).__name__}: {error}"}
                continue
            yield label, {
                "pre_core": print_ast(compiled.pre_core),
                "core": print_ast(compiled.core),
            }


def collect() -> Dict[str, Dict[str, str]]:
    """Every golden row, by row id."""
    from repro.compat.corpus import all_cases
    from repro.syntax.parser import parse_script
    from repro.syntax.printer import print_ast

    out: Dict[str, Dict[str, str]] = {}
    for case in all_cases():
        for label, row in _compiled(case.query, case.data):
            out[f"kit/{case.case_id}/{label}"] = row
    for index, statement in enumerate(parse_script(LINT_TOUR.read_text())):
        for label, row in _compiled(print_ast(statement), {}):
            out[f"tour/{index:02d}/{label}"] = row
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
