"""The lint golden: every diagnostic the analyzer emits over a fixed corpus.

``lint_golden.json`` pins every field of every finding for

* each compat-kit case in both typing modes, with catalog names only
  (what ``sqlpp lint --compat-kit`` analyzes);
* the same cases through ``Database.check`` with their data loaded, so
  the lattice is seeded from sampled shapes;
* ``examples/lint_tour.sqlpp`` through ``Database.check``, both modes;
* every ``(query, options)`` pair the tests in ``test_rules.py`` analyze.

``test_lint_golden.py`` compares the analyzer against the file.
Regenerate it (from the repository root) with::

    PYTHONPATH=src python -m tests.analysis.lint_golden
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any, Dict, List

GOLDEN = Path(__file__).with_name("lint_golden.json")
LINT_TOUR = Path(__file__).parents[2] / "examples" / "lint_tour.sqlpp"
MODES = ("permissive", "strict")


def _rows(diagnostics: Any) -> List[Dict[str, Any]]:
    return [dataclasses.asdict(d) for d in diagnostics]


def _kit_rows(out: Dict[str, List[Dict[str, Any]]]) -> None:
    from repro import Database
    from repro.analysis import AnalyzerOptions, analyze
    from repro.compat.corpus import all_cases
    from repro.config import EvalConfig

    for case in all_cases():
        for mode in MODES:
            options = AnalyzerOptions(
                config=EvalConfig(typing_mode=mode, sql_compat=case.sql_compat),
                catalog_names=tuple(case.data),
            )
            out[f"kit/{case.case_id}/{mode}"] = _rows(analyze(case.query, options))
            db = Database(typing_mode=mode, sql_compat=case.sql_compat)
            for name, literal in case.data.items():
                db.load_value(name, literal)
            out[f"check/{case.case_id}/{mode}"] = _rows(db.check(case.query))


def _tour_rows(out: Dict[str, List[Dict[str, Any]]]) -> None:
    from repro import Database

    text = LINT_TOUR.read_text()
    for mode in MODES:
        out[f"tour/{mode}"] = _rows(Database(typing_mode=mode).check(text))


def _rules_rows(out: Dict[str, List[Dict[str, Any]]]) -> None:
    """Record what every test in ``test_rules.py`` hands the analyzer by
    running the tests with ``analyze`` wrapped; a failing assertion does
    not stop the recording."""
    from tests.analysis import test_rules

    names = {
        id(value): name
        for name, value in vars(test_rules).items()
        if name.endswith("_OPTS")
    }
    real = test_rules.analyze

    def recording(source: str, options: Any = None) -> Any:
        found = real(source, options)
        label = names.get(id(options), "default")
        out[f"rules/{label}/{source}"] = _rows(found)
        return found

    test_rules.analyze = recording
    try:
        for __, cls in inspect.getmembers(test_rules, inspect.isclass):
            if not cls.__name__.startswith("Test"):
                continue
            for name, method in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("test_"):
                    try:
                        method(cls())
                    except Exception:
                        pass
    finally:
        test_rules.analyze = real


def collect() -> Dict[str, List[Dict[str, Any]]]:
    """Every golden row, by row id."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    _kit_rows(out)
    _tour_rows(out)
    _rules_rows(out)
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
