"""Array-backed Pastry prefix routing, hop-for-hop identical to the seed.

"The seed" below is the per-node router this engine replaced (one ``LeafSet``
and ``RoutingTable`` object per node, one hop at a time); it is kept as the
oracle in ``tests/reference/seed_pastry.py``.

One dense ``(capacity, rows, 16)`` int32 table holds every node's routing
table (``table[slot, row, col]`` = slot of the entry, ``-1`` empty); digits
are uint8 nibble views over the S20 digests.  Construction replaces the
seed's N^2 pairwise ``consider()`` calls with a prefix-group recursion:
nodes sharing the first ``row`` digits form a contiguous run of the id-sorted
order and each digit bucket a slice of it, so each run's proximity matrix is
computed once (in owner chunks) and one ``argmin`` per bucket fills a column
of entries.  The work is still ~N^2 distances -- what the seed consumes --
but as a few large numpy reductions instead of 10^8 Python calls.

Exactness (the oracle in ``tests/test_routing_engine.py`` pins all of it):

* **Tables are order-independent.**  Seed construction has every node
  consider every other, so entry ``(row, col)`` of owner ``o`` is the argmin
  over matching candidates by ``(proximity, id)``: the bucket is in id order
  and ``argmin`` returns the first minimum, so no id key is needed.  Both
  sides measure with ``np.hypot`` (:meth:`OverlayNetwork.proximity
  <repro.overlay.network.OverlayNetwork.proximity>`), and ``join`` refuses
  non-finite coordinates, so ties fall the same way and no NaN sorts first.
* **Removal never refills.**  The seed's departure repair only deletes
  the departed id from routing tables; for each owner there is exactly
  one slot that can reference a given node (``row`` = shared prefix,
  ``col`` = the node's digit there), so removal is one
  gather/compare/scatter.
* **Joins are candidate-replacement.**  The newcomer's own table is one
  stable ``np.lexsort`` by (slot, proximity) of the others in id order;
  every existing owner compares the newcomer against its single slot.
* **Leaf sets are positional.**  At all times the seed leaf set equals
  the <= ``half_size`` nearest live ids per ring side (side = half-ring
  test), so the engine reads them straight out of the sorted live order —
  nothing to store, nothing to repair.

Routing applies the seed's three rules (leaf-set coverage, prefix-table
entry, rare case) per hop over the whole active batch; only the "rare
case" third rule (statistically a fraction of a percent of hops) drops to
a per-request scalar fallback so its candidate-pool semantics stay exact.
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
    HALF_RING_LIMBS,
    cw_dist,
    digest_bytes,
    digits_from_digests,
    lex_argmax,
    lex_argmin,
    lex_le,
    lex_lt,
    limbs_from_digests,
    ring_dist,
)
from repro.overlay.ids import DIGITS, ID_SPACE
from repro.overlay.node import OverlayNode

_HALF_RING_INT = 1 << 159
_COLUMNS = 16


def _shared_prefix_int(a: int, b: int) -> int:
    delta = a ^ b
    if delta == 0:
        return DIGITS
    return (160 - delta.bit_length()) // 4


class PastryArrayRouter(ArrayRouterBase):
    """The vectorized Pastry engine (see module docstring for semantics)."""

    name = "pastry"

    def __init__(self, nodes: Sequence[OverlayNode], leaf_set_half_size: int = 8,
                 max_route_hops: int = 128) -> None:
        super().__init__(nodes, max_route_hops=max_route_hops)
        self.leaf_set_half_size = leaf_set_half_size
        self._coords = np.zeros((self._capacity, 2), dtype=np.float64)
        live = [node for node in nodes if node.alive]
        for slot, node in enumerate(live):
            self._coords[slot] = node.coordinates
        self._digits = np.zeros((self._capacity, DIGITS), dtype=np.uint8)
        if live:
            self._digits[:len(live)] = digits_from_digests(self._ids_bytes[:len(live)])
        self._rows = self._required_rows()
        self._table = np.full((self._capacity, self._rows, _COLUMNS), -1, dtype=np.int32)
        self._build_tables()

    @classmethod
    def from_network(cls, network, **kwargs) -> "PastryArrayRouter":
        """Build the engine over a network's live population."""
        kwargs.setdefault("leaf_set_half_size", network.leaf_set_half_size)
        kwargs.setdefault("max_route_hops", network.max_route_hops)
        return cls(network.live_nodes(), **kwargs)

    # -- table sizing ----------------------------------------------------------
    def _required_rows(self) -> int:
        """Rows needed = deepest shared prefix over any pair, plus slack.

        The deepest shared prefix over *all* pairs is attained by an
        adjacent pair in id-sorted order, so one pass over the sorted view
        suffices.  Random 160-bit ids keep this near log16(N) (~5 rows at
        10k, ~6 at 100k) — the dense table stays tiny next to 40 rows.
        """
        n = self.live_count
        if n <= 1:
            return 2
        digits = self._digits[self._sorted_slots]
        unequal = digits[1:] != digits[:-1]
        deepest = int(unequal.argmax(axis=1).max())
        return min(DIGITS, deepest + 2)

    def _ensure_rows(self, required: int) -> None:
        if required <= self._rows:
            return
        required = min(DIGITS, required)
        pad = required - self._rows
        self._table = np.pad(self._table, ((0, 0), (0, pad), (0, 0)),
                             constant_values=-1)
        self._rows = required

    def _grow_capacity(self, new_capacity: int) -> None:
        pad = new_capacity - self._capacity
        super()._grow_capacity(new_capacity)
        self._coords = np.pad(self._coords, ((0, pad), (0, 0)))
        self._digits = np.pad(self._digits, ((0, pad), (0, 0)))
        self._table = np.pad(self._table, ((0, pad), (0, 0), (0, 0)),
                             constant_values=-1)

    # -- vectorized batch construction ----------------------------------------
    def _build_tables(self) -> None:
        n = self.live_count
        if n <= 1:
            return
        order = self._sorted_slots
        stack = [(0, 0, n)]
        while stack:
            row, lo, hi = stack.pop()
            if hi - lo <= 1 or row >= self._rows:
                continue
            members = order[lo:hi]
            digits = self._digits[members, row]
            bounds = np.searchsorted(digits, np.arange(_COLUMNS + 1))
            for col in range(_COLUMNS):
                if bounds[col + 1] - bounds[col] > 1:
                    stack.append((row + 1, lo + int(bounds[col]), lo + int(bounds[col + 1])))
            self._fill_row(row, members, digits, bounds)

    def _fill_row(self, row: int, members: np.ndarray, digits: np.ndarray,
                  bounds: np.ndarray) -> None:
        """Fill entry (row, col) for every owner in a prefix group.

        Candidates for column ``col`` are the group's digit-``col`` bucket;
        each owner outside it takes the bucket's first proximity minimum, its
        argmin by ``(proximity, id)`` -- the seed's ``consider()`` fixed point.
        """
        count = len(members)
        xs = self._coords[members, 0]
        ys = self._coords[members, 1]
        # Bound the owner x member proximity matrix to ~4M cells per chunk.
        chunk = max(1, min(4096, (1 << 22) // count))
        for start in range(0, count, chunk):
            stop = start + chunk
            owners = members[start:stop]
            owner_digits = digits[start:stop]
            proximity = np.hypot(xs[start:stop, None] - xs, ys[start:stop, None] - ys)
            for col in range(_COLUMNS):
                lo, hi = int(bounds[col]), int(bounds[col + 1])
                if lo == hi:
                    continue
                entry = members[lo + proximity[:, lo:hi].argmin(axis=1)]
                outside = owner_digits != col
                self._table[owners[outside], row, col] = entry[outside]

    # -- incremental churn patches --------------------------------------------
    def on_join(self, node: OverlayNode) -> None:
        """O(N) vectorized join patch — exact, no rebuild."""
        slot = self._alloc_slot(node.node_id)
        self._coords[slot] = node.coordinates
        self._digits[slot] = digits_from_digests(self._ids_bytes[slot:slot + 1])[0]
        self._table[slot] = -1
        self._insert_sorted(slot)
        others = self._sorted_slots[self._sorted_slots != slot]
        if len(others) == 0:
            return
        unequal = self._digits[others] != self._digits[slot][None, :]
        prefix = unequal.argmax(axis=1)
        self._ensure_rows(int(prefix.max()) + 2)
        delta = self._coords[others] - self._coords[slot][None, :]
        proximity = np.hypot(delta[:, 0], delta[:, 1])
        # The newcomer's own table: per-slot argmin by (proximity, id).  lexsort
        # is stable and ``others`` is in id order, so each slot's first row is it.
        slot_key = prefix.astype(np.int64) * _COLUMNS + self._digits[others, prefix]
        order = np.lexsort((proximity, slot_key))
        filled, first = np.unique(slot_key[order], return_index=True)
        self._table[slot].reshape(-1)[filled] = others[order[first]]
        # Existing owners consider the newcomer at its single slot.
        column = self._digits[slot, prefix]
        current = self._table[others, prefix, column]
        occupied = current >= 0
        safe = np.where(occupied, current, 0)
        cur_delta = self._coords[others] - self._coords[safe]
        cur_proximity = np.hypot(cur_delta[:, 0], cur_delta[:, 1])
        better = ~occupied | (proximity < cur_proximity) | (
            (proximity == cur_proximity) & (self._ids_bytes[slot] < self._ids_bytes[safe])
        )
        self._table[others[better], prefix[better], column[better]] = slot

    def _on_departure(self, node_id: int) -> None:
        """Clear the single slot per owner that can reference the departed
        node — the seed's remove-without-refill semantics."""
        slot = self._slot_of.get(node_id)
        if slot is None:
            return
        self._remove_sorted(slot)
        owners = self._sorted_slots
        if len(owners):
            unequal = self._digits[owners] != self._digits[slot][None, :]
            prefix = unequal.argmax(axis=1)
            safe_prefix = np.minimum(prefix, self._rows - 1)
            column = self._digits[slot, safe_prefix]
            hit = (prefix < self._rows) & (self._table[owners, safe_prefix, column] == slot)
            self._table[owners[hit], safe_prefix[hit], column[hit]] = -1
        self._table[slot] = -1
        self._release_slot(slot)

    def on_leave(self, node_id: int) -> None:
        self._on_departure(node_id)

    def on_fail(self, node_id: int) -> None:
        self._on_departure(node_id)

    # -- batched routing -------------------------------------------------------
    def route_many(self, keys: KeysLike, starts: KeysLike,
                   collect_paths: bool = False) -> BatchRouteResult:
        key_bytes = self._normalize_keys(keys)
        count = len(key_bytes)
        key_limbs = limbs_from_digests(key_bytes)
        key_digits = digits_from_digests(key_bytes)
        key_ints = [int.from_bytes(digest_bytes(key), "big") for key in key_bytes]
        current = self._slots_for_starts(starts, count).copy()
        roots = self._pastry_roots(key_bytes, key_limbs)
        return self._hop_loop(
            current, roots,
            lambda subset, slots: self._next_hops(
                slots, key_limbs[subset], key_digits[subset],
                [key_ints[i] for i in subset], roots[subset]),
            collect_paths)

    def _next_hops(self, current: np.ndarray, key_limbs: np.ndarray,
                   key_digits: np.ndarray, key_ints: List[int],
                   roots: np.ndarray) -> np.ndarray:
        count = len(current)
        nxt = np.full(count, -1, dtype=np.int32)
        cur_limbs = self._ids_limbs[current]
        own_dist = ring_dist(cur_limbs, key_limbs)

        # Rule 1: leaf-set coverage -> numerically closest member.
        members, kept, is_larger, fwd, back = self._leaf_windows(current)
        member_limbs = self._ids_limbs[members]
        member_dist = ring_dist(member_limbs, key_limbs[:, None, :])
        cand_dist = np.concatenate([member_dist, own_dist[:, None, :]], axis=1)
        cand_limbs = np.concatenate([member_limbs, cur_limbs[:, None, :]], axis=1)
        cand_valid = np.concatenate(
            [kept, np.ones((count, 1), dtype=bool)], axis=1)
        closest = lex_argmin(
            [cand_dist[..., 2], cand_dist[..., 1], cand_dist[..., 0],
             cand_limbs[..., 2], cand_limbs[..., 1], cand_limbs[..., 0]],
            axis=1, valid=cand_valid)
        rows = np.arange(count)
        closest_dist = cand_dist[rows, closest]
        strictly_closer = lex_lt(closest_dist, own_dist) & (closest < members.shape[1])
        member_count = kept.sum(axis=1)
        covers = self._covers(members, kept, is_larger, fwd, back, key_limbs, rows)
        gate = covers | (member_count < 2 * self.leaf_set_half_size)
        rule1 = gate & strictly_closer
        closest_member = members[rows, np.minimum(closest, members.shape[1] - 1)]
        nxt[rule1] = closest_member[rule1]

        # Rule 2: prefix-table gather at (shared prefix, next key digit).
        rest = ~rule1
        if rest.any():
            unequal = self._digits[current] != key_digits
            prefix = unequal.argmax(axis=1)
            safe_prefix = np.minimum(prefix, self._rows - 1)
            column = key_digits[rows, prefix]
            entry = np.where(prefix < self._rows,
                             self._table[current, safe_prefix, column], -1)
            rule2 = rest & (entry >= 0)
            nxt[rule2] = entry[rule2]
            # Rule 3 (rare case) / convergence jump, per leftover request.
            for i in np.flatnonzero(rest & ~rule2):
                fallback = self._rare_next_hop(int(current[i]), key_ints[i])
                nxt[i] = fallback if fallback >= 0 else roots[i]
        return nxt

    def _leaf_windows(self, current: np.ndarray):
        """Leaf-set members straight from the sorted live order.

        Returns the +-half window around each node (slots), the per-side
        keep mask (<= half nearest per side), the side flags, and the
        forward/backward clockwise distances.
        """
        n = self.live_count
        half = self.leaf_set_half_size
        width = 2 * half
        positions = self._positions()[current]
        offsets = np.concatenate([np.arange(1, half + 1), -np.arange(1, half + 1)])
        window = (positions[:, None] + offsets[None, :]) % n
        members = self._sorted_slots[window]
        reach = min(half, n - 1)
        valid = np.zeros(width, dtype=bool)
        steps = np.arange(1, half + 1)
        valid[:half] = steps <= n - 1
        valid[half:] = (steps <= n - 1) & (steps < n - reach)
        cur_limbs = self._ids_limbs[current][:, None, :]
        member_limbs = self._ids_limbs[members]
        fwd = cw_dist(cur_limbs, member_limbs)
        back = cw_dist(member_limbs, cur_limbs)
        is_larger = lex_le(fwd, HALF_RING_LIMBS[None, None, :])
        side_dist = np.where(is_larger[..., None], fwd, back)
        smaller = lex_lt(side_dist[:, None, :, :], side_dist[:, :, None, :])
        same_side = is_larger[:, :, None] == is_larger[:, None, :]
        rank = (smaller & same_side & valid[None, None, :]).sum(axis=2)
        kept = valid[None, :] & (rank < half)
        return members, kept, is_larger, fwd, back

    def _covers(self, members, kept, is_larger, fwd, back, key_limbs, rows):
        """The seed's ``LeafSet.covers``: key within the kept span."""
        small_kept = kept & ~is_larger
        large_kept = kept & is_larger
        has_both = small_kept.any(axis=1) & large_kept.any(axis=1)
        low_idx = lex_argmax([back[..., 2], back[..., 1], back[..., 0]],
                             axis=1, valid=small_kept)
        high_idx = lex_argmax([fwd[..., 2], fwd[..., 1], fwd[..., 0]],
                              axis=1, valid=large_kept)
        low = self._ids_limbs[members[rows, low_idx]]
        high = self._ids_limbs[members[rows, high_idx]]
        return has_both & lex_le(cw_dist(low, key_limbs), cw_dist(low, high))

    # -- the rare case, scalar ------------------------------------------------
    def _leaf_members_scalar(self, slot: int) -> List[int]:
        n = self.live_count
        half = self.leaf_set_half_size
        position = int(self._positions()[slot])
        owner = self.slot_id(slot)
        reach = min(half, n - 1)
        smaller: List[tuple] = []
        larger: List[tuple] = []
        seen = set()
        for step in range(1, half + 1):
            if step <= n - 1:
                seen.add(int(self._sorted_slots[(position + step) % n]))
            if step <= n - 1 and step < n - reach:
                seen.add(int(self._sorted_slots[(position - step) % n]))
        for candidate in seen:
            forward = (self.slot_id(candidate) - owner) % ID_SPACE
            if forward <= _HALF_RING_INT:
                larger.append((forward, candidate))
            else:
                smaller.append((ID_SPACE - forward, candidate))
        smaller.sort()
        larger.sort()
        return [s for _, s in smaller[:half]] + [s for _, s in larger[:half]]

    def _rare_next_hop(self, slot: int, key: int) -> int:
        """Pastry's third rule: any known node numerically closer to the key
        with at least as long a shared prefix.  Returns -1 for "converged"
        (the caller jumps to the root, as the seed does)."""
        owner = self.slot_id(slot)
        minimum = _shared_prefix_int(owner, key)
        delta = (owner - key) % ID_SPACE
        best_distance = min(delta, ID_SPACE - delta)
        best = -1
        pool: List[int] = []
        for entry in self._table[slot].reshape(-1):
            if entry >= 0 and _shared_prefix_int(self.slot_id(int(entry)), key) >= minimum:
                pool.append(int(entry))
        pool.extend(self._leaf_members_scalar(slot))
        for candidate in pool:
            delta = (self.slot_id(candidate) - key) % ID_SPACE
            candidate_distance = min(delta, ID_SPACE - delta)
            if candidate_distance < best_distance:
                best, best_distance = candidate, candidate_distance
        return best

    # -- accounting ------------------------------------------------------------
    def memory_footprint(self) -> Dict[str, int]:
        """Routing-column byte accounting (int32 slots, uint8 digits)."""
        out = self._base_footprint()
        out.update({
            "table_bytes": int(self._table.nbytes),
            "digit_bytes": int(self._digits.nbytes),
            "coord_bytes": int(self._coords.nbytes),
            "rows": int(self._rows),
        })
        out["total_bytes"] = (
            out["table_bytes"] + out["digit_bytes"] + out["coord_bytes"]
            + out["id_limbs_bytes"] + out["id_digest_bytes"] + out["sorted_view_bytes"]
        )
        out["bytes_per_node"] = out["total_bytes"] // max(1, self.live_count)
        return out


register_engine("pastry", PastryArrayRouter.from_network)
