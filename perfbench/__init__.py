"""perfbench: the repo's one benchmark (see ``perfbench/README.md``).

Seven named workloads drive the simulator through its public API only; every
number says which clock it uses (host seconds the user waits for, or
simulated results the paper reports).  Entry points:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  -- one run in one process (the ``BENCHMARK.json`` command);
* ``python -m perfbench --list | run | compare`` -- the all-workloads driver
  and the two-sets comparison tool.
"""

import sys
from pathlib import Path

#: BLAS thread pools the single-thread host loop pins to 1 (before numpy loads).
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Like the root ``conftest.py``: make ``src/`` importable straight from a checkout.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
