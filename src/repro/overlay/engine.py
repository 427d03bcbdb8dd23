"""Pluggable array-backed overlay routing: protocol, registry, shared base.

The array engines in :mod:`repro.overlay.engine_pastry` and
:mod:`repro.overlay.engine_chord` are the overlay's only routers: routing
state is dense numpy columns over the 160-bit id space, and whole request
batches are resolved per hop (:meth:`OverlayRouting.route_many`).  (The seed
kept a leaf set and a routing table per node as Python objects, built with
O(N^2) pairwise ``consider()`` calls — infeasible at 10k+ nodes.  That router
survives as the path-identity oracle in ``tests/reference/seed_pastry.py``.)

This module holds what both engines share:

* :class:`OverlayRouting` — the small protocol an engine implements so
  :class:`~repro.overlay.network.OverlayNetwork` can register it
  (``attach_router``) and forward join/leave/fail churn as incremental
  patches (no full rebuilds on churn); callers route on the engine;
* :class:`ArrayRouterBase` — stable node *slots* (append-only with a free
  list, so table cells stay valid across churn), the id limb/byte columns,
  and the sorted live-id view used for batched root resolution;
* the engine registry (:func:`register_engine` / :func:`make_router`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro.overlay.idmath import LIMB_COUNT, lex_lt, limbs_from_digests, ring_dist
from repro.overlay.network import OverlayError, RouteResult
from repro.overlay.node import OverlayNode

KeysLike = Union[np.ndarray, Sequence[int]]


@runtime_checkable
class OverlayRouting(Protocol):
    """What an attachable overlay routing engine provides.

    ``name`` identifies the engine ("pastry", "chord", ...).  The churn
    hooks receive the same join/leave/fail events
    :class:`~repro.overlay.node_state.NodeArrayState` already consumes and
    must apply incremental patches, never full rebuilds.

    ``membership_epoch`` is a monotone counter that moves with every
    membership change.  A route is a pure function of (engine state, key,
    start), so results a caller keeps are exact while the epoch it read
    them under is unchanged; ``node_id in engine`` says whether the engine
    can route from that node.
    """

    name: str
    membership_epoch: int

    def __contains__(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live node the engine can route from."""
        ...  # pragma: no cover - protocol

    def route(self, key: int, start: int) -> RouteResult:
        """Route one key hop by hop from ``start``."""
        ...  # pragma: no cover - protocol

    def route_many(self, keys: KeysLike, starts: KeysLike,
                   collect_paths: bool = False) -> "BatchRouteResult":
        """Resolve a whole batch of lookups, one vectorized pass per hop."""
        ...  # pragma: no cover - protocol

    def on_join(self, node: OverlayNode) -> None:
        """Incremental patch for a newly joined node."""
        ...  # pragma: no cover - protocol

    def on_leave(self, node_id: int) -> None:
        """Incremental patch for a graceful departure."""
        ...  # pragma: no cover - protocol

    def on_fail(self, node_id: int) -> None:
        """Incremental patch for an abrupt failure."""
        ...  # pragma: no cover - protocol

    def memory_footprint(self) -> Dict[str, int]:
        """Bytes per routing column (the budget the bench asserts)."""
        ...  # pragma: no cover - protocol


@dataclass
class BatchRouteResult:
    """Outcome of :meth:`OverlayRouting.route_many`.

    ``hops`` and ``root_slots`` are per-request arrays; ``paths`` (only
    when requested) holds per-request node-id ints including start and
    root.  Slots are engine-internal — use :meth:`root_ids` for ids.
    """

    hops: np.ndarray
    root_slots: np.ndarray
    engine: Optional["ArrayRouterBase"] = field(default=None)
    paths: Optional[List[List[int]]] = field(default=None)

    def root_ids(self) -> List[int]:
        """The responsible node id (as int) per request."""
        assert self.engine is not None
        return [self.engine.slot_id(int(slot)) for slot in self.root_slots]


def _id_digest(value: int) -> bytes:
    return value.to_bytes(20, "big")


class ArrayRouterBase:
    """Slot bookkeeping + sorted live view shared by the array engines.

    Slots are *stable*: a node keeps its slot for its whole life, freed
    slots are recycled only after every reference to them has been patched
    out.  (The sorted indices of
    :class:`~repro.overlay.node_state.NodeArrayState` shift on insert,
    which is fine for searchsorted lookups but would invalidate stored
    table cells — hence the indirection through ``_sorted_slots``.)
    """

    name = "base"

    def __init__(self, nodes: Sequence[OverlayNode], max_route_hops: int = 128) -> None:
        self.max_route_hops = max_route_hops
        live = [node for node in nodes if node.alive]
        n = len(live)
        self._capacity = max(8, n + max(16, n // 8))
        self._ids_limbs = np.zeros((self._capacity, LIMB_COUNT), dtype=np.uint64)
        self._ids_bytes = np.zeros(self._capacity, dtype="S20")
        self._alive = np.zeros(self._capacity, dtype=bool)
        self._slot_ids: List[int] = [0] * self._capacity
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = []
        #: Bumped by every join and departure (see :class:`OverlayRouting`).
        self.membership_epoch = 0
        for slot, node in enumerate(live):
            value = node.node_id
            self._slot_ids[slot] = value
            self._slot_of[value] = slot
            self._ids_bytes[slot] = _id_digest(value)
        self._alive[:n] = True
        self._top = n  # high-water mark of ever-allocated slots
        if n:
            self._ids_limbs[:n] = limbs_from_digests(self._ids_bytes[:n])
        order = np.argsort(self._ids_bytes[:n], kind="stable")
        self._sorted_bytes = self._ids_bytes[:n][order].copy()
        self._sorted_slots = order.astype(np.int32)
        self._pos = np.zeros(self._capacity, dtype=np.int64)
        self._pos_dirty = True

    @property
    def live_count(self) -> int:
        """Number of live nodes the engine currently tracks."""
        return len(self._sorted_slots)

    def slot_id(self, slot: int) -> int:
        """The node id (int) occupying ``slot``."""
        return self._slot_ids[slot]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot_of

    # -- slot management ------------------------------------------------------
    def _grow_capacity(self, new_capacity: int) -> None:
        pad = new_capacity - self._capacity
        self._ids_limbs = np.pad(self._ids_limbs, ((0, pad), (0, 0)))
        self._ids_bytes = np.pad(self._ids_bytes, (0, pad))
        self._alive = np.pad(self._alive, (0, pad))
        self._slot_ids.extend([0] * pad)
        self._pos = np.zeros(new_capacity, dtype=np.int64)
        self._pos_dirty = True
        self._capacity = new_capacity

    def _alloc_slot(self, value: int) -> int:
        self.membership_epoch += 1
        if self._free:
            slot = self._free.pop()
        else:
            if self._top >= self._capacity:
                self._grow_capacity(self._capacity * 2)
            slot = self._top
            self._top += 1
        self._slot_ids[slot] = value
        self._slot_of[value] = slot
        self._ids_bytes[slot] = _id_digest(value)
        self._ids_limbs[slot] = limbs_from_digests(self._ids_bytes[slot:slot + 1])[0]
        self._alive[slot] = True
        return slot

    def _release_slot(self, slot: int) -> None:
        self.membership_epoch += 1
        self._slot_of.pop(self._slot_ids[slot], None)
        self._alive[slot] = False
        self._free.append(slot)

    def _insert_sorted(self, slot: int) -> int:
        idx = int(np.searchsorted(self._sorted_bytes, self._ids_bytes[slot:slot + 1])[0])
        self._sorted_bytes = np.insert(self._sorted_bytes, idx, self._ids_bytes[slot])
        self._sorted_slots = np.insert(self._sorted_slots, idx, np.int32(slot))
        self._pos_dirty = True
        return idx

    def _remove_sorted(self, slot: int) -> int:
        idx = int(np.searchsorted(self._sorted_bytes, self._ids_bytes[slot:slot + 1])[0])
        if idx >= len(self._sorted_slots) or self._sorted_slots[idx] != slot:
            raise OverlayError(f"router state desync removing slot {slot}")
        self._sorted_bytes = np.delete(self._sorted_bytes, idx)
        self._sorted_slots = np.delete(self._sorted_slots, idx)
        self._pos_dirty = True
        return idx

    def _positions(self) -> np.ndarray:
        if self._pos_dirty:
            self._pos[self._sorted_slots] = np.arange(len(self._sorted_slots))
            self._pos_dirty = False
        return self._pos

    # -- key / start normalization -------------------------------------------
    def _normalize_keys(self, keys: KeysLike) -> np.ndarray:
        if isinstance(keys, np.ndarray) and keys.dtype.kind == "S":
            return np.ascontiguousarray(keys).astype("S20")
        return np.array([_id_digest(key) for key in keys], dtype="S20")

    def _slots_for_starts(self, starts: KeysLike, count: int) -> np.ndarray:
        if isinstance(starts, int):
            starts = [starts] * count
        out = np.empty(count, dtype=np.int32)
        if len(starts) != count:
            raise OverlayError("starts length must match keys length")
        for i, start in enumerate(starts):
            slot = self._slot_of.get(start)
            if slot is None:
                raise OverlayError(f"routing from an unknown or failed node: {start!r}")
            out[i] = slot
        return out

    # -- batched root resolution ----------------------------------------------
    def _pastry_roots(self, key_bytes: np.ndarray, key_limbs: np.ndarray) -> np.ndarray:
        """Responsible node per key: numerically closest live id, ties to the
        smaller id — exactly :meth:`OverlayNetwork.responsible_node`."""
        n = len(self._sorted_slots)
        if n == 0:
            raise OverlayError("no live nodes in the overlay")
        idx = np.searchsorted(self._sorted_bytes, key_bytes)
        right = self._sorted_slots[idx % n]
        left = self._sorted_slots[(idx - 1) % n]
        right_dist = ring_dist(self._ids_limbs[right], key_limbs)
        left_dist = ring_dist(self._ids_limbs[left], key_limbs)
        left_closer = lex_lt(left_dist, right_dist)
        tied = ~left_closer & ~lex_lt(right_dist, left_dist)
        smaller_id = lex_lt(self._ids_limbs[left], self._ids_limbs[right])
        take_left = left_closer | (tied & smaller_id)
        return np.where(take_left, left, right).astype(np.int32)

    def _successor_roots(self, key_bytes: np.ndarray) -> np.ndarray:
        """Chord ownership: the first live id >= key (wrapping)."""
        n = len(self._sorted_slots)
        if n == 0:
            raise OverlayError("no live nodes in the overlay")
        idx = np.searchsorted(self._sorted_bytes, key_bytes) % n
        return self._sorted_slots[idx].astype(np.int32)

    # -- the batched hop loop ---------------------------------------------------
    def _hop_loop(self, current: np.ndarray, roots: np.ndarray, next_hops,
                  collect_paths: bool) -> BatchRouteResult:
        """Step every request from ``current`` until it reaches its root slot.

        Each engine's ``route_many`` supplies the roots and ``next_hops(subset,
        slots)``: the next slot of the still-active requests ``subset``, now at
        ``slots``.  ``current`` is advanced in place.
        """
        hops = np.zeros(len(current), dtype=np.int32)
        paths: Optional[List[List[int]]] = None
        if collect_paths:
            paths = [[self.slot_id(int(slot))] for slot in current]
        active = current != roots
        rounds = 0
        while active.any():
            if rounds >= self.max_route_hops:
                raise OverlayError(
                    f"batched routing exceeded {self.max_route_hops} hops")
            rounds += 1
            subset = np.flatnonzero(active)
            nxt = next_hops(subset, current[subset])
            current[subset] = nxt
            hops[subset] += 1
            if paths is not None:
                for i, slot in zip(subset, nxt):
                    paths[i].append(self.slot_id(int(slot)))
            active[subset] = nxt != roots[subset]
        return BatchRouteResult(hops=hops, root_slots=roots, engine=self, paths=paths)

    # -- scalar convenience ----------------------------------------------------
    def route(self, key: int, start: int) -> RouteResult:
        """Scalar wrapper over :meth:`route_many` (a batch of one)."""
        result = self.route_many([key], [start], collect_paths=True)
        assert result.paths is not None
        return RouteResult(
            key=key,
            root=self.slot_id(int(result.root_slots[0])),
            hops=int(result.hops[0]),
            path=tuple(result.paths[0]),
        )

    def _base_footprint(self) -> Dict[str, int]:
        return {
            "id_limbs_bytes": int(self._ids_limbs.nbytes),
            "id_digest_bytes": int(self._ids_bytes.nbytes),
            "sorted_view_bytes": int(self._sorted_bytes.nbytes + self._sorted_slots.nbytes),
            "capacity": int(self._capacity),
            "live_nodes": int(self.live_count),
        }


#: Registered engine factories: name -> factory(network, **kwargs).
ROUTER_ENGINES: Dict[str, object] = {}


def register_engine(name: str, factory) -> None:
    """Register an overlay routing engine factory under ``name``."""
    ROUTER_ENGINES[name] = factory


def make_router(name: str, network, **kwargs) -> OverlayRouting:
    """Build the named engine over ``network``'s live population."""
    try:
        factory = ROUTER_ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTER_ENGINES))
        raise OverlayError(f"unknown routing engine {name!r} (known: {known})") from None
    return factory(network, **kwargs)


__all__ = [
    "ArrayRouterBase",
    "BatchRouteResult",
    "OverlayRouting",
    "ROUTER_ENGINES",
    "make_router",
    "register_engine",
]
