"""The seed population draw, kept as the test-only reference.

The seed built an overlay one node at a time: ``rng.bytes(20)`` for the
node's id (read big-endian), then ``rng.uniform(0, 1000)`` twice for its
coordinates.  ``repro.overlay.ids.random_population`` now takes those values
from one array draw; ``tests/test_population_draw.py`` requires it to return
exactly these values and to leave the generator in exactly this state.
(The seed also redrew an id equal to one already drawn; that happens with
probability about ``count**2 / 2**161`` and is now refused, so the loop here
does not model it.)

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def seed_population(rng: np.random.Generator,
                    count: int) -> Tuple[List[int], List[Tuple[float, float]]]:
    """``count`` ids and coordinates, one node at a time, in the seed's call order."""
    ids: List[int] = []
    coordinates: List[Tuple[float, float]] = []
    for _ in range(count):
        ids.append(int.from_bytes(rng.bytes(20), "big"))
        coordinates.append((float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 1000.0))))
    return ids, coordinates
