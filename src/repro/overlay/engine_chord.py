"""Chord ring routing as columns over the same 160-bit id arrays.

The second engine behind the :class:`~repro.overlay.engine.OverlayRouting`
protocol: classic Chord with per-node successor lists (``(capacity, r)``
int32) and full 160-entry finger tables (``(capacity, 160)`` int32,
``finger[i] = successor(id + 2^i)``).  Fingers for the whole population are
built by one flattened ``np.searchsorted`` over the limb-added start
points; routing greedily forwards each request to the closest preceding
finger (ties impossible — candidates are distinct ids), finishing on the
key's successor, which is Chord's ownership rule (vs Pastry's numerically-
closest).  Expected hops ~ (log2 N)/2, against Pastry's ~log16 N — the
head-to-head the SNIPPETS churn experiment draws out.

Churn is patched incrementally, exactly:

* **leave/fail of x:** every finger entry pointing at x has its start in
  ``(pred(x), x]``, so its new successor is x's old successor — one masked
  scatter; the r predecessors' successor lists are recomputed from the
  sorted view.
* **join of x:** x's own fingers/successors are computed fresh; existing
  entries move to x iff they point at ``succ(x)`` *and* their start falls
  in ``(pred(x), x]`` (recomputed from the owners' ids + the power-of-two
  offsets) — ~160 entries in expectation, found with one mask.

Tiny rings (n <= r + 2) fall back to a full rebuild, which at that size is
cheaper than the patch bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.overlay.engine import (
    ArrayRouterBase,
    BatchRouteResult,
    KeysLike,
    register_engine,
)
from repro.overlay.idmath import (
    add_mod,
    cw_dist,
    digests_from_limbs,
    is_zero,
    lex_argmax,
    lex_le,
    lex_lt,
    limbs_from_digests,
    limbs_from_ints,
)
from repro.overlay.ids import ID_BITS
from repro.overlay.node import OverlayNode

#: Limb forms of 2^i for every finger index.
_POW2_LIMBS = limbs_from_ints([1 << i for i in range(ID_BITS)])

#: Entries in every node's successor list (``r``).
SUCCESSOR_COUNT = 8


class ChordArrayRouter(ArrayRouterBase):
    """The Chord engine (see module docstring for semantics)."""

    name = "chord"

    def __init__(self, nodes: Sequence[OverlayNode], max_route_hops: int = 128) -> None:
        super().__init__(nodes, max_route_hops=max_route_hops)
        self._fingers = np.full((self._capacity, ID_BITS), -1, dtype=np.int32)
        self._succ = np.full((self._capacity, SUCCESSOR_COUNT), -1, dtype=np.int32)
        self._rebuild_all()

    @classmethod
    def from_network(cls, network, **kwargs) -> "ChordArrayRouter":
        """Build the engine over a network's live population."""
        kwargs.setdefault("max_route_hops", network.max_route_hops)
        return cls(network.live_nodes(), **kwargs)

    def _grow_capacity(self, new_capacity: int) -> None:
        pad = new_capacity - self._capacity
        super()._grow_capacity(new_capacity)
        self._fingers = np.pad(self._fingers, ((0, pad), (0, 0)), constant_values=-1)
        self._succ = np.pad(self._succ, ((0, pad), (0, 0)), constant_values=-1)

    # -- construction ----------------------------------------------------------
    def _successor_lists_for(self, positions: np.ndarray) -> np.ndarray:
        """Successor lists (slots) for the nodes at ``positions`` in sorted order."""
        n = self.live_count
        r = SUCCESSOR_COUNT
        steps = np.arange(1, r + 1)
        window = (positions[:, None] + steps[None, :]) % n
        lists = self._sorted_slots[window].astype(np.int32)
        if n - 1 < r:
            lists[:, n - 1:] = -1
        return lists

    def _fingers_for_slots(self, slots: np.ndarray) -> np.ndarray:
        """``finger[i] = successor(id + 2^i)`` for each slot, one searchsorted."""
        n = self.live_count
        starts = add_mod(self._ids_limbs[slots][:, None, :], _POW2_LIMBS[None, :, :])
        start_bytes = digests_from_limbs(starts.reshape(-1, 3))
        idx = np.searchsorted(self._sorted_bytes, start_bytes) % n
        return self._sorted_slots[idx].reshape(len(slots), ID_BITS).astype(np.int32)

    def _rebuild_all(self) -> None:
        self._fingers[:] = -1
        self._succ[:] = -1
        n = self.live_count
        if n == 0:
            return
        positions = np.arange(n)
        self._succ[self._sorted_slots] = self._successor_lists_for(positions)
        # Chunked so the temporary start digests stay ~13 MB even at 100k.
        for start in range(0, n, 4096):
            block = self._sorted_slots[start:start + 4096]
            self._fingers[block] = self._fingers_for_slots(block)

    # -- incremental churn patches --------------------------------------------
    def on_join(self, node: OverlayNode) -> None:
        slot = self._alloc_slot(node.node_id)
        self._fingers[slot] = -1
        self._succ[slot] = -1
        position = self._insert_sorted(slot)
        n = self.live_count
        if n <= SUCCESSOR_COUNT + 2:
            self._rebuild_all()
            return
        succ_slot = int(self._sorted_slots[(position + 1) % n])
        pred_limbs = self._ids_limbs[self._sorted_slots[(position - 1) % n]]
        # The newcomer's own state.
        block = np.array([slot], dtype=np.int32)
        self._fingers[slot] = self._fingers_for_slots(block)[0]
        self._succ[slot] = self._successor_lists_for(np.array([position]))[0]
        # Predecessors' successor lists now include the newcomer.
        pred_positions = (position - np.arange(1, SUCCESSOR_COUNT + 1)) % n
        self._succ[self._sorted_slots[pred_positions]] = (
            self._successor_lists_for(pred_positions))
        # Finger entries whose start falls in (pred, newcomer] move from the
        # old successor(start) -- the newcomer's successor -- to the newcomer.
        owner_rows, finger_cols = np.nonzero(self._fingers == succ_slot)
        if len(owner_rows):
            starts = add_mod(self._ids_limbs[owner_rows], _POW2_LIMBS[finger_cols])
            offset = cw_dist(pred_limbs[None, :], starts)
            span = cw_dist(pred_limbs, self._ids_limbs[slot])
            in_range = ~is_zero(offset) & lex_le(offset, span[None, :].reshape(1, 3))
            in_range = in_range.reshape(-1)
            self._fingers[owner_rows[in_range], finger_cols[in_range]] = slot

    def _on_departure(self, node_id: int) -> None:
        slot = self._slot_of.get(node_id)
        if slot is None:
            return
        position = int(self._positions()[slot])
        self._remove_sorted(slot)
        n = self.live_count
        if n <= SUCCESSOR_COUNT + 2:
            self._release_slot(slot)
            self._rebuild_all()
            return
        # successor(start) = x  =>  new successor = x's old successor.
        succ_slot = int(self._sorted_slots[position % n])
        self._fingers[self._fingers == slot] = succ_slot
        self._succ[self._succ == slot] = -1  # cleared; lists refilled below
        pred_positions = (position - 1 - np.arange(SUCCESSOR_COUNT)) % n
        self._succ[self._sorted_slots[pred_positions]] = (
            self._successor_lists_for(pred_positions))
        self._fingers[slot] = -1
        self._succ[slot] = -1
        self._release_slot(slot)

    def on_leave(self, node_id: int) -> None:
        self._on_departure(node_id)

    def on_fail(self, node_id: int) -> None:
        self._on_departure(node_id)

    # -- batched routing -------------------------------------------------------
    def route_many(self, keys: KeysLike, starts: KeysLike,
                   collect_paths: bool = False) -> BatchRouteResult:
        key_bytes = self._normalize_keys(keys)
        key_limbs = limbs_from_digests(key_bytes)
        current = self._slots_for_starts(starts, len(key_bytes)).copy()
        return self._hop_loop(
            current, self._successor_roots(key_bytes),
            lambda subset, slots: self._next_hops(slots, key_limbs[subset]), collect_paths)

    def _next_hops(self, current: np.ndarray, key_limbs: np.ndarray) -> np.ndarray:
        count = len(current)
        nxt = np.empty(count, dtype=np.int32)
        # Chunked: candidate gathers are (chunk, 160 + r, 3) uint64.
        for start in range(0, count, 2048):
            sl = slice(start, start + 2048)
            cur = current[sl]
            cur_limbs = self._ids_limbs[cur]
            keys = key_limbs[sl]
            key_offset = cw_dist(cur_limbs, keys)
            successor = self._succ[cur, 0]
            succ_offset = cw_dist(cur_limbs, self._ids_limbs[successor])
            # key in (cur, successor] -> the successor owns it: final hop.
            finished = lex_le(key_offset, succ_offset)
            candidates = np.concatenate([self._fingers[cur], self._succ[cur]], axis=1)
            safe = np.where(candidates >= 0, candidates, 0)
            offsets = cw_dist(cur_limbs[:, None, :], self._ids_limbs[safe])
            preceding = ((candidates >= 0) & ~is_zero(offsets)
                         & lex_lt(offsets, key_offset[:, None, :]))
            best = lex_argmax([offsets[..., 2], offsets[..., 1], offsets[..., 0]],
                              axis=1, valid=preceding)
            rows = np.arange(len(cur))
            chosen = candidates[rows, best]
            has_preceding = preceding.any(axis=1)
            step = np.where(has_preceding, chosen, successor)
            nxt[sl] = np.where(finished, successor, step)
        return nxt

    # -- accounting ------------------------------------------------------------
    def memory_footprint(self) -> Dict[str, int]:
        """Routing-column byte accounting (int32 finger/successor slots)."""
        out = self._base_footprint()
        out.update({
            "finger_bytes": int(self._fingers.nbytes),
            "successor_bytes": int(self._succ.nbytes),
        })
        out["total_bytes"] = (
            out["finger_bytes"] + out["successor_bytes"]
            + out["id_limbs_bytes"] + out["id_digest_bytes"] + out["sorted_view_bytes"]
        )
        out["bytes_per_node"] = out["total_bytes"] // max(1, self.live_count)
        return out

    # -- invariants (exercised by the oracle tests) ----------------------------
    def successor_list_ids(self, node_id: int) -> List[int]:
        """The node's successor list as ids (for invariant checks)."""
        slot = self._slot_of[node_id]
        return [self.slot_id(int(s)) for s in self._succ[slot] if s >= 0]

    def finger_ids(self, node_id: int) -> List[int]:
        """The node's 160 finger targets as ids (for invariant checks)."""
        slot = self._slot_of[node_id]
        return [self.slot_id(int(s)) for s in self._fingers[slot]]


register_engine("chord", ChordArrayRouter.from_network)
