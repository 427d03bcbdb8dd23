#!/usr/bin/env python3
"""One benchmark run in one process: the ``BENCHMARK.json`` command.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
prints every metric by name and, as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The host side is a
closed, single-process, single-thread batch; BLAS thread pools are pinned to
one thread before numpy loads.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# String hashing is randomised per process and moves dict/set layouts -- and
# with them host time by up to ~25 % between otherwise identical runs -- so
# every run pins it (re-executing once if the interpreter started without).
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench import THREAD_ENV  # noqa: E402 - needs the path above; loads no numpy

for _name in THREAD_ENV:
    os.environ[_name] = "1"


def main(argv=None) -> int:
    from perfbench import harness  # imports numpy: after the thread pins above
    from perfbench.workloads import DEFAULT_SEED, REGISTRY

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="host-time budget for the run's cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the registry's smoke size (finishes in < 2 s)")
    parser.add_argument("--record", help="also write the full record (JSON) here")
    args = parser.parse_args(argv)

    record = harness.run(args.workload, seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), smoke=args.smoke)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(harness.contract_line(record, bool(args.trace)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
