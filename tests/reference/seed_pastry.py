"""The seed's per-node Pastry router: the array engine's path-identity oracle.

Until PR 18 this was ``repro.overlay.routing`` + ``repro.overlay.node.LeafSet``
+ the scalar half of ``OverlayNetwork`` (``build(routing_state=True)``): every
node keeps a :class:`LeafSet` and a :class:`RoutingTable` as Python objects,
built with O(N^2) pairwise ``consider()`` calls and routed through one hop at
a time.  ``src/`` routes through :mod:`repro.overlay.engine_pastry` only; this
module is what ``tests/test_routing_engine.py`` compares it against, hop for
hop and path for path.

:class:`SeedPastryRouter` owns the per-node state and follows membership
through the network's listener hooks -- attach it with
``network.attach_router(SeedPastryRouter(network))``.

A Pastry routing table has one row per shared-prefix length and one column per
identifier digit.  Entry ``(row, column)`` holds a node whose id shares the
first ``row`` digits with the owner and whose ``row``-th digit equals
``column``.  Among equally suitable candidates, Pastry keeps the one that is
*closest by the proximity metric* (network latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.overlay.ids import (
    BITS_PER_DIGIT,
    DIGITS,
    NodeId,
    clockwise_distance,
    distance,
)
from repro.overlay.network import OverlayError, OverlayNetwork, RouteResult
from repro.overlay.node import OverlayNode


class LeafSet:
    """The numerically closest live neighbours of a node, split by ring side."""

    def __init__(self, owner: NodeId, half_size: int = 8) -> None:
        if half_size < 1:
            raise ValueError("leaf set half size must be >= 1")
        self.owner = owner
        self.half_size = half_size
        self._smaller: List[NodeId] = []   # counter-clockwise neighbours, nearest first
        self._larger: List[NodeId] = []    # clockwise neighbours, nearest first

    # -- membership ---------------------------------------------------------
    def members(self) -> List[NodeId]:
        """All leaf-set members (both sides), nearest first per side."""
        return list(self._smaller) + list(self._larger)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._smaller or node_id in self._larger

    def __len__(self) -> int:
        return len(self._smaller) + len(self._larger)

    def consider(self, node_id: NodeId) -> bool:
        """Offer a node; keep it if it is among the closest on its side."""
        if node_id == self.owner:
            return False
        side, changed = self._side_of(node_id), False
        if node_id not in side:
            side.append(node_id)
            changed = True
        self._trim()
        return changed and node_id in self

    def remove(self, node_id: NodeId) -> bool:
        """Drop a (failed) node.  Returns True if it was a member."""
        for side in (self._smaller, self._larger):
            if node_id in side:
                side.remove(node_id)
                return True
        return False

    def _side_of(self, node_id: NodeId) -> List[NodeId]:
        # A node is on the "larger" (clockwise) side if it is nearer going
        # clockwise from the owner than counter-clockwise.
        clockwise = clockwise_distance(self.owner, node_id)
        counter = clockwise_distance(node_id, self.owner)
        return self._larger if clockwise <= counter else self._smaller

    def _trim(self) -> None:
        self._larger.sort(key=lambda nid: clockwise_distance(self.owner, nid))
        self._smaller.sort(key=lambda nid: clockwise_distance(nid, self.owner))
        del self._larger[self.half_size:]
        del self._smaller[self.half_size:]

    # -- queries used by the storage system ----------------------------------
    def immediate_neighbors(self) -> List[NodeId]:
        """The single nearest neighbour on each side (up to two nodes)."""
        result: List[NodeId] = []
        if self._smaller:
            result.append(self._smaller[0])
        if self._larger:
            result.append(self._larger[0])
        return result

    def nearest(self, count: int) -> List[NodeId]:
        """The ``count`` members numerically closest to the owner."""
        members = sorted(self.members(), key=lambda nid: distance(nid, self.owner))
        return members[:count]

    def covers(self, key: NodeId) -> bool:
        """Whether ``key`` falls within the span of the leaf set."""
        if not self._smaller or not self._larger:
            return False
        low = self._smaller[-1]
        high = self._larger[-1]
        return clockwise_distance(low, key) <= clockwise_distance(low, high)

    def closest_to(self, key: NodeId) -> NodeId:
        """The member (or the owner) numerically closest to ``key``."""
        candidates = self.members() + [self.owner]
        return min(candidates, key=lambda nid: (distance(nid, key), int(nid)))


@dataclass(frozen=True)
class RoutingEntry:
    """A routing-table slot: the node id it points at and its proximity."""

    node_id: NodeId
    proximity: float


class RoutingTable:
    """The prefix routing table of one overlay node."""

    ROWS = DIGITS
    COLUMNS = 1 << BITS_PER_DIGIT

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        # Sparse representation: {(row, column): RoutingEntry}
        self._entries: Dict[Tuple[int, int], RoutingEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[RoutingEntry]:
        """Iterate over all populated entries."""
        return iter(self._entries.values())

    def slot_for(self, node_id: NodeId) -> Optional[Tuple[int, int]]:
        """The (row, column) slot a node id belongs to, or None for the owner itself."""
        if node_id == self.owner:
            return None
        row = self.owner.shared_prefix_length(node_id)
        column = node_id.digit(row)
        return (row, column)

    def get(self, row: int, column: int) -> Optional[RoutingEntry]:
        """The entry at (row, column), if populated."""
        return self._entries.get((row, column))

    def consider(self, node_id: NodeId, proximity: float) -> bool:
        """Offer a node for inclusion; keep it if the slot is empty or it is closer.

        Returns True if the table changed.
        """
        slot = self.slot_for(node_id)
        if slot is None:
            return False
        current = self._entries.get(slot)
        if current is None or proximity < current.proximity or (
            proximity == current.proximity and node_id < current.node_id
        ):
            self._entries[slot] = RoutingEntry(node_id=node_id, proximity=proximity)
            return True
        return False

    def remove(self, node_id: NodeId) -> bool:
        """Remove a (failed) node from the table.  Returns True if it was present."""
        slot = self.slot_for(node_id)
        if slot is None:
            return False
        current = self._entries.get(slot)
        if current is not None and current.node_id == node_id:
            del self._entries[slot]
            return True
        return False

    def next_hop(self, key: NodeId) -> Optional[NodeId]:
        """Pastry's primary routing rule: the entry matching one more digit of ``key``."""
        row = self.owner.shared_prefix_length(key)
        if row >= self.ROWS:
            return None
        column = key.digit(row)
        entry = self._entries.get((row, column))
        return entry.node_id if entry is not None else None

    def candidates_with_longer_or_equal_prefix(self, key: NodeId) -> List[NodeId]:
        """Fallback candidates: entries sharing at least as long a prefix with ``key``.

        Used by the "rare case" rule of Pastry routing when the primary entry
        is missing: forward to any known node that is numerically closer to the
        key than the present node and shares at least as long a prefix.
        """
        minimum = self.owner.shared_prefix_length(key)
        result: List[NodeId] = []
        for entry in self._entries.values():
            if entry.node_id.shared_prefix_length(key) >= minimum:
                result.append(entry.node_id)
        return result

    def closest_by_proximity(self, count: int, exclude: Callable[[NodeId], bool] | None = None) -> List[RoutingEntry]:
        """The ``count`` entries with smallest proximity (used for multicast trees)."""
        entries = [
            entry
            for entry in self._entries.values()
            if exclude is None or not exclude(entry.node_id)
        ]
        entries.sort(key=lambda entry: (entry.proximity, int(entry.node_id)))
        return entries[:count]

    def known_nodes(self) -> List[NodeId]:
        """All node ids present in the table."""
        return [entry.node_id for entry in self._entries.values()]


class SeedPastryRouter:
    """Per-node leaf sets and routing tables, routed through one hop at a time.

    A membership listener (``on_join`` / ``on_leave`` / ``on_fail``), so the
    state follows the same churn the array engine is patched with.
    """

    name = "seed-pastry"

    def __init__(self, network: OverlayNetwork) -> None:
        self.network = network
        self.leaf_set_half_size = network.leaf_set_half_size
        self.max_route_hops = network.max_route_hops
        #: Live members only: node id -> (leaf set, routing table).
        self._state: Dict[NodeId, Tuple[LeafSet, RoutingTable]] = {}
        for node in network.live_nodes():
            self.on_join(node)

    def leaf_set(self, node_id: NodeId) -> LeafSet:
        return self._state[node_id][0]

    def routing_table(self, node_id: NodeId) -> RoutingTable:
        return self._state[node_id][1]

    # -- membership ------------------------------------------------------------
    def on_join(self, node: OverlayNode) -> None:
        """Build the newcomer's state from the live population; everyone learns it."""
        own_leaf = LeafSet(node.node_id, self.leaf_set_half_size)
        own_table = RoutingTable(node.node_id)
        for other_id, (leaf, table) in self._state.items():
            own_leaf.consider(other_id)
            own_table.consider(other_id, self.network.proximity(node.node_id, other_id))
            leaf.consider(node.node_id)
            table.consider(node.node_id, self.network.proximity(other_id, node.node_id))
        self._state[node.node_id] = (own_leaf, own_table)

    def on_leave(self, node_id: NodeId) -> None:
        self._state.pop(node_id, None)
        for other_id, (leaf, table) in self._state.items():
            repaired = leaf.remove(node_id)
            table.remove(node_id)
            if repaired:
                # Leaf-set repair: refill from the live population, as Pastry
                # does by asking the remaining leaf-set members.
                for candidate in self._state:
                    if candidate != other_id:
                        leaf.consider(candidate)

    on_fail = on_leave

    # -- routing ---------------------------------------------------------------
    def route(self, key: NodeId, start: NodeId) -> RouteResult:
        """Route ``key`` hop by hop from ``start`` using Pastry's routing rule."""
        if start not in self._state:
            raise OverlayError(f"routing from a failed node: {start!r}")
        target_root = min(self._state, key=lambda nid: (distance(nid, key), int(nid)))
        current = start
        path: List[NodeId] = [current]
        while current != target_root:
            if len(path) > self.max_route_hops:
                raise OverlayError(f"routing for key {key!r} exceeded {self.max_route_hops} hops")
            next_id = self._next_hop(current, key)
            if next_id is None or next_id == current:
                # Converged as far as local state allows; jump to the true root.
                # (In a converged Pastry overlay the leaf set always contains
                # the root once we are this close.)
                next_id = target_root
            current = next_id
            path.append(current)
        return RouteResult(key=key, root=target_root, hops=len(path) - 1, path=tuple(path))

    def _next_hop(self, current: NodeId, key: NodeId) -> Optional[NodeId]:
        leaf_set, routing_table = self._state[current]
        # Rule 1: if the key is covered by the leaf set, go straight to the
        # numerically closest leaf (or stay here).
        if leaf_set.covers(key) or len(leaf_set) < 2 * self.leaf_set_half_size:
            closest = leaf_set.closest_to(key)
            if distance(closest, key) < distance(current, key) and closest in self._state:
                return closest
        # Rule 2: routing-table entry sharing a longer prefix.
        candidate = routing_table.next_hop(key)
        if candidate is not None and candidate in self._state:
            return candidate
        # Rule 3 (rare case): any known node numerically closer with >= prefix.
        best: Optional[NodeId] = None
        best_distance = distance(current, key)
        for node_id in (routing_table.candidates_with_longer_or_equal_prefix(key)
                        + leaf_set.members()):
            if node_id not in self._state:
                continue
            node_distance = distance(node_id, key)
            if node_distance < best_distance:
                best, best_distance = node_id, node_distance
        return best
