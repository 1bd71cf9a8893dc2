"""ORDER BY over a mix of ints and floats, against literal expectations.

Numbers of both types order by value.  The expected lists are written
out by hand rather than taken from the oracle, because the oracle
(``optimize=False``) shares the engine's sort-key code: a fault there
would agree with itself.
"""

import pytest

from repro import Database
from tests.rows_mode import ROWS, run

XS = [2, 1.5, 3, 2.5, 1]
DIALS = [{}, ROWS, {"optimize": False}]


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.set("t", [{"x": x} for x in XS])
    return db


@pytest.mark.parametrize("dials", DIALS, ids=["batch", "stream", "oracle"])
def test_ascending(db, dials):
    result = run(
        db.execute_python, "SELECT VALUE t.x FROM t AS t ORDER BY t.x", **dials
    )
    assert result == [1, 1.5, 2, 2.5, 3]
    assert [type(x) for x in result] == [int, float, int, float, int]


@pytest.mark.parametrize("dials", DIALS, ids=["batch", "stream", "oracle"])
def test_descending_top_three(db, dials):
    result = run(
        db.execute_python,
        "SELECT VALUE t.x FROM t AS t ORDER BY t.x DESC LIMIT 3", **dials
    )
    assert result == [3, 2.5, 2]
