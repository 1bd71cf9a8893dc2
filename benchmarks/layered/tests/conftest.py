"""Put the harness directory on ``sys.path`` (its modules import each
other by bare name, the way ``run.py`` runs them)."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
if str(HARNESS) not in sys.path:
    sys.path.insert(0, str(HARNESS))
