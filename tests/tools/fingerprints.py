#!/usr/bin/env python3
"""Every perfbench workload's simulated results, under this process's string hashing.

    PYTHONHASHSEED=1 python tests/tools/fingerprints.py > one.json
    PYTHONHASHSEED=2 python tests/tools/fingerprints.py > two.json
    diff one.json two.json

``perfbench/run.py`` pins ``PYTHONHASHSEED=0``, so its fingerprints cannot
show a result that depends on string hashing (the order of a set or dict of
names).  This runs one smoke-size cycle of every workload through
``perfbench.harness.run_cycle`` in this process, at perfbench's default seed,
and prints each one's ops, model-refused ops, fingerprint and simulated
results as sorted JSON.  It exits 1 if a workload breaks a conservation law.
Two hash seeds must print the same bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.harness import run_cycle  # noqa: E402 - needs the path above
from perfbench.workloads import DEFAULT_SEED, REGISTRY  # noqa: E402


def fingerprints() -> dict:
    """One smoke cycle per workload: what it did and what it produced."""
    out = {}
    for name, entry in REGISTRY.items():
        outcome = run_cycle(entry, DEFAULT_SEED, entry.smoke)["outcome"]
        if outcome.violations:
            raise SystemExit(f"{name}: broken laws {outcome.violations}")
        out[name] = {"ops": outcome.ops, "failed_ops": outcome.failed_ops,
                     "fingerprint": outcome.fingerprint, "sim": outcome.sim}
    return out


if __name__ == "__main__":
    print(json.dumps(fingerprints(), indent=1, sort_keys=True))
