"""The seed neighbourhood query, kept as the test-only reference.

The seed answered ``DHTView.neighbors(node_id, count)`` with a window and a
sort: collect the ``2 * count + 2`` nearest positions on each side of the
query's ``bisect`` position into a candidate set, sort it by ``(ring distance,
id)`` and ``bisect`` each of the first ``count`` winners back to a position.
``NodeArrayState.neighbor_indices`` now walks the two chains outward instead;
``tests/test_overlay_node_state.py`` requires it to return this function's
positions, in this order, on every ring and query.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import bisect
from typing import List

from repro.overlay.ids import ID_SPACE


def seed_neighbor_indices(ids: List[int], node_id: int, count: int) -> List[int]:
    """Positions in the sorted ``ids`` of the ``count`` nodes closest to ``node_id``, excluding it."""
    if count <= 0:
        return []
    if not ids:
        raise LookupError("no live nodes in the placement index")
    value = node_id % ID_SPACE
    index = bisect.bisect_left(ids, value)
    size = len(ids)
    seen = {value}
    candidates: List[int] = []
    half = ID_SPACE // 2
    for step in range(1, min(size, count * 2 + 2) + 1):
        for candidate in (ids[(index + step - 1) % size], ids[(index - step) % size]):
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)

    def ring_key(candidate: int):
        delta = (candidate - value) % ID_SPACE
        return (delta if delta <= half else ID_SPACE - delta, candidate)

    candidates.sort(key=ring_key)
    id_index = bisect.bisect_left
    return [id_index(ids, candidate) for candidate in candidates[:count]]
