"""The seed's one-pair-at-a-time session sampler: ``ChurnModel``'s oracle.

``ChurnModel.sample_sessions`` draws whole blocks of sessions; the lengths it
returns must equal this loop's value for value on the same generator.
"""

from __future__ import annotations

import numpy as np


def scalar_sessions(mean_uptime, mean_downtime, rng, horizon):
    """(up_times, down_times) covering ``horizon``, one exponential pair per step."""
    ups, downs, elapsed = [], [], 0.0
    while elapsed < horizon:
        up = float(rng.exponential(mean_uptime))
        down = float(rng.exponential(mean_downtime))
        ups.append(up)
        downs.append(down)
        elapsed += up + down
    return np.asarray(ups, dtype=float), np.asarray(downs, dtype=float)
