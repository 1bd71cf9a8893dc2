"""One FROM-item case analysis in the engine, pinned against the oracle.

What a range item (``expr AS v AT p``) and an UNPIVOT item bind for each
kind of source value — array, bag, NULL, MISSING, scalar, tuple — is
written once in the engine (``plan_ops.lateral_bindings``) and read by
the chunked scan, the chunked lateral flatten and the row-at-a-time
FROM loop.  Every form must bind exactly what the reference interpreter
binds (its own ``_range_bindings`` / ``_unpivot_bindings``), AT
positions included, and raise its strict-mode error with the same
message.
"""

from __future__ import annotations

import pytest

from repro import Database, errors
from repro.datamodel.equality import deep_equals
from repro.datamodel.values import Bag
from tests.rows_mode import ROWS, run

SOURCES = {
    "array": "[10, 20, 30]",
    "bag": "{{10, 20, 30}}",
    "null": "NULL",
    "missing": "MISSING",
    "scalar": "7",
    "tuple": "{'a': 1, 'b': 2}",
    "empty-array": "[]",
}

#: form -> (query template over ``{source}``, per-query dials)
FORMS = {
    "scan": ("SELECT VALUE {{'v': v, 'p': p}} FROM {source} AS v AT p", {}),
    "lateral": (
        "SELECT VALUE {{'id': h.id, 'v': v, 'p': p}} "
        "FROM [{{'id': 1, 'src': {source}}}, {{'id': 2, 'src': {source}}}] AS h, "
        "h.src AS v AT p",
        {},
    ),
    "left-lateral": (
        "SELECT VALUE {{'id': h.id, 'v': v, 'p': p}} "
        "FROM [{{'id': 1, 'src': {source}}}] AS h LEFT JOIN h.src AS v AT p ON TRUE",
        {},
    ),
    "unpivot-scan": ("SELECT VALUE {{'v': v, 'p': p}} FROM UNPIVOT {source} AS v AT p", {}),
    "unpivot-lateral": (
        "SELECT VALUE {{'v': v, 'p': p}} "
        "FROM [{{'src': {source}}}] AS h, UNPIVOT h.src AS v AT p",
        {},
    ),
}
FORMS.update(
    {
        f"{name}-streamed": (template, ROWS)
        for name, (template, __) in list(FORMS.items())
    }
)


def outcome(query, **dials):
    try:
        return ("value", run(Database().execute, query, **dials))
    except errors.SQLPPError as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.mark.parametrize("typing_mode", ["permissive", "strict"])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("source", SOURCES)
def test_every_form_binds_what_the_oracle_binds(source, form, typing_mode):
    template, dials = FORMS[form]
    query = template.format(source=SOURCES[source])
    oracle = outcome(query, optimize=False, typing_mode=typing_mode)
    engine = outcome(query, typing_mode=typing_mode, **dials)
    if oracle[0] == "error":
        assert engine == oracle  # same class, same message
        return
    assert engine[0] == "value", (engine, oracle)
    assert deep_equals(Bag(list(engine[1])), Bag(list(oracle[1]))), (engine, oracle)


def test_the_pinned_behaviour():
    # The expectations themselves, so agreement cannot mean both drifted.
    rows = Database().execute("SELECT VALUE [v, p] FROM [10, 20] AS v AT p")
    assert sorted(rows) == [[10, 0], [20, 1]]
    # A bag has no positions: AT binds MISSING, which an array drops.
    rows = Database().execute("SELECT VALUE [v, p] FROM {{10}} AS v AT p")
    assert list(rows) == [[10]]
    assert list(Database().execute("SELECT VALUE [v, p] FROM 7 AS v AT p")) == [[7]]
    assert len(Database().execute("SELECT VALUE v FROM NULL AS v")) == 0
    rows = Database().execute("SELECT VALUE [v, a] FROM UNPIVOT 7 AS v AT a")
    assert list(rows) == [[7, "_1"]]
    for dials in ({}, ROWS, {"optimize": False}):
        for query, message in (
            ("SELECT VALUE v FROM 7 AS v", "FROM expects a collection, got integer"),
            ("SELECT VALUE v FROM MISSING AS v", "FROM expects a collection, got missing"),
            (
                "SELECT VALUE v FROM [{'s': 'x'}] AS h, h.s AS v",
                "FROM expects a collection, got string",
            ),
            (
                "SELECT VALUE v FROM UNPIVOT [1] AS v AT a",
                "UNPIVOT expects a tuple, got array",
            ),
        ):
            with pytest.raises(errors.TypeCheckError, match=message):
                run(Database().execute, query, typing_mode="strict", **dials)


def test_a_lazy_bag_streams_through_every_form():
    db = Database()
    pulled = []

    def factory():
        for index in range(2500):
            pulled.append(index)
            yield {"v": index}

    db.set_lazy("lz", factory)
    query = "SELECT VALUE [l.v, p] FROM lz AS l AT p"
    expected = db.execute(query, optimize=False)
    for dials in ({}, ROWS):
        assert deep_equals(Bag(list(run(db.execute, query, **dials))), expected)
    # Pulled element by element: LIMIT stops the source early.
    del pulled[:]
    assert len(db.execute("SELECT VALUE l.v FROM lz AS l LIMIT 3")) == 3
    assert len(pulled) <= 4
