"""Loader for the frozen seed outputs under ``tests/golden/``.

Each JSON file holds what the seed ``vectorized=False`` pipeline computed at
the last commit that carried it (see ``tests/golden/README.md`` for the
generating script); the equivalence tests compare production output against
it exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def load_golden(name: str):
    """The parsed content of ``tests/golden/<name>``."""
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def jsonable(value):
    """``value`` as JSON would hand it back (tuples -> lists, floats exact)."""
    return json.loads(json.dumps(value))
