"""The one distribution summary every report row is cut from."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{n, avg, median, p95, p99, min, max}`` over ``values`` (all 0.0 when empty).

    The SNIPPETS lookup-harness ``summarize()`` shape.  Percentiles are
    NumPy's default (linear interpolation), and the median is the 50th
    percentile by that same rule, so a latency row's p50 and a hop row's
    median are one number.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return {"n": 0.0, "avg": 0.0, "median": 0.0, "p95": 0.0, "p99": 0.0,
                "min": 0.0, "max": 0.0}
    return {
        "n": float(data.size),
        "avg": float(data.mean()),
        "median": float(np.percentile(data, 50)),
        "p95": float(np.percentile(data, 95)),
        "p99": float(np.percentile(data, 99)),
        "min": float(data.min()),
        "max": float(data.max()),
    }
