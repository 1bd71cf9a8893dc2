"""A plain query does not load the analyzer or the schema machinery.

``repro.analysis`` and ``repro.schema`` resolve their public names on
first use (PEP 562), so the engine reaching constant folding and the
plan verifier does not import the lint walk, and a database without
schemas does not import the schema language at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.schema

PLAIN_QUERY = """
import json, sys
import repro.cli
db = repro.Database()
db.set("t", [{"a": 1}, {"a": -1}])
db.execute("SELECT VALUE r.a FROM t AS r WHERE r.a > 0")
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith(("repro.analysis", "repro.schema"))
)))
"""

#: What the compile path needs: constant folding, the plan verifier and,
#: for a WHERE clause, the lattice the conjunction domain reads.
ALLOWED = {
    "repro.analysis",
    "repro.analysis.absint",
    "repro.analysis.lattice",
    "repro.analysis.verify_plan",
}


def test_plain_execute_loads_only_folding_and_the_verifier():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_VERIFY_PLANS", None)
    result = subprocess.run(
        [sys.executable, "-c", PLAIN_QUERY],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert loaded <= ALLOWED, sorted(loaded - ALLOWED)


@pytest.mark.parametrize("package", [repro.analysis, repro.schema])
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
