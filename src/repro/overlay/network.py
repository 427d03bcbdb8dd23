"""A simulated, directly connected network of overlay nodes.

This corresponds to the FreePastry "simulator mode" used by the paper: every
node runs the full per-node state (leaf set + routing table), messages are
routed hop by hop through that state, but the transport is a direct in-memory
call.  The network supports:

* building an overlay of N nodes with random ids and random coordinates;
* node join (bootstrapping the leaf set / routing table from existing nodes),
  graceful leave and abrupt failure with leaf-set repair;
* key routing with hop counting (:meth:`OverlayNetwork.route`), which is the
  overlay-level cost the evaluation charges per p2p look-up;
* the proximity metric used to build locality-aware multicast trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.overlay.ids import NodeId, distance, random_node_id
from repro.overlay.node import OverlayNode


class OverlayError(RuntimeError):
    """Raised for invalid overlay operations (routing on an empty overlay, ...)."""


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing a key: the responsible node and the path taken."""

    key: NodeId
    root: NodeId
    hops: int
    path: tuple[NodeId, ...] = field(default=())


class OverlayNetwork:
    """A population of :class:`OverlayNode` objects plus routing logic."""

    def __init__(self, leaf_set_half_size: int = 8, max_route_hops: int = 128) -> None:
        self.leaf_set_half_size = leaf_set_half_size
        self.max_route_hops = max_route_hops
        self._nodes: Dict[NodeId, OverlayNode] = {}
        self.total_route_hops = 0
        self.total_routes = 0
        #: Whether per-node leaf sets / routing tables are being maintained.
        #: ``build(..., routing_state=False)`` clears it, which also lets
        #: departures skip the O(N) leaf-set repair sweep (there is no state
        #: to repair) -- what keeps a churn sweep at 10 000 nodes incremental.
        self.maintains_routing_state = True
        #: An attached array routing engine (see :func:`attach_router`) plus
        #: the listeners receiving join/leave/fail churn patches.
        self.router = None
        self._routing_listeners: List = []

    # -- population management ----------------------------------------------
    @classmethod
    def build(
        cls,
        count: int,
        rng: np.random.Generator,
        capacities: Optional[Sequence[int]] = None,
        leaf_set_half_size: int = 8,
        routing_state: bool = True,
    ) -> "OverlayNetwork":
        """Create an overlay of ``count`` nodes with random ids and coordinates.

        ``capacities`` optionally assigns contributed storage per node (bytes);
        it must have length ``count`` when given.

        ``routing_state=False`` skips the O(N^2) construction of per-node leaf
        sets and routing tables.  The resulting overlay draws *exactly* the
        same random ids, coordinates and capacities (the RNG consumption is
        identical), so DHT-view-based experiments -- which never route hop by
        hop -- get an identical population at a fraction of the cost; this is
        what makes the paper's 10 000-node configurations practical.  Hop-by-
        hop :meth:`route` calls on such an overlay fall back to jumping
        straight to the responsible node.
        """
        if count < 1:
            raise ValueError("overlay needs at least one node")
        if capacities is not None and len(capacities) != count:
            raise ValueError("capacities length must match node count")
        network = cls(leaf_set_half_size=leaf_set_half_size)
        network.maintains_routing_state = routing_state
        for index in range(count):
            node_id = random_node_id(rng)
            while node_id in network._nodes:  # pragma: no cover - negligible probability
                node_id = random_node_id(rng)
            node = OverlayNode(
                node_id=node_id,
                coordinates=(float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 1000.0))),
                capacity=int(capacities[index]) if capacities is not None else 0,
            )
            node.leaf_set = type(node.leaf_set)(node_id, leaf_set_half_size)
            if routing_state:
                network._insert(node)
            else:
                network._nodes[node.node_id] = node
        return network

    def _insert(self, node: OverlayNode) -> None:
        self._nodes[node.node_id] = node
        if not self.maintains_routing_state:
            # No per-node Pastry state to build or advertise: a join is O(1)
            # here plus an incremental boundary patch in the DHT view, which
            # is what keeps join-heavy churn soaks incremental.
            for listener in self._routing_listeners:
                listener.on_join(node)
            return
        self._refresh_state_for(node)
        # Existing nodes learn about the newcomer.
        for other in self._nodes.values():
            if other.node_id == node.node_id or not other.alive:
                continue
            other.leaf_set.consider(node.node_id)
            other.routing_table.consider(node.node_id, self.proximity(other.node_id, node.node_id))
        for listener in self._routing_listeners:
            listener.on_join(node)

    def join(self, node: OverlayNode) -> None:
        """Add a new participant to an existing overlay (Figure 1 of the paper)."""
        if node.node_id in self._nodes:
            raise OverlayError(f"node id already present: {node.node_id!r}")
        self._insert(node)

    def _refresh_state_for(self, node: OverlayNode) -> None:
        """(Re)build a node's leaf set and routing table from the live population."""
        for other_id, other in self._nodes.items():
            if other_id == node.node_id or not other.alive:
                continue
            node.leaf_set.consider(other_id)
            node.routing_table.consider(other_id, self.proximity(node.node_id, other_id))

    def leave(self, node_id: NodeId) -> None:
        """Graceful departure: remove the node and repair neighbours' state.

        The node-level :meth:`~repro.overlay.node.OverlayNode.leave` hook
        notifies attached state listeners (the columnar block ledger releases
        whatever rows were not migrated out beforehand -- see
        :meth:`repro.core.recovery.RecoveryManager.handle_leave` for the
        bandwidth-aware copy-out that precedes a graceful departure).
        """
        if node_id not in self._nodes:
            raise OverlayError(f"unknown node: {node_id!r}")
        node = self._nodes.pop(node_id)
        node.leave()
        if self.maintains_routing_state:
            self._repair_after_departure(node_id)
        for listener in self._routing_listeners:
            listener.on_leave(node_id)

    def fail(self, node_id: NodeId) -> OverlayNode:
        """Abrupt failure: node stays in the table but is marked dead; repair state."""
        node = self.node(node_id)
        node.fail()
        if self.maintains_routing_state:
            self._repair_after_departure(node_id)
        for listener in self._routing_listeners:
            listener.on_fail(node_id)
        return node

    def recover(self, node_id: NodeId, wipe: bool = False) -> OverlayNode:
        """Bring a failed node back: the counterpart of :meth:`fail`.

        ``node.recover(wipe)`` plus the announcement :meth:`fail` revoked:
        every routing listener learns the node again (``on_join``), so an
        attached array router can route from it.  With no listener attached
        this is exactly ``node.recover(wipe)``.  Re-adding the node to a
        :class:`~repro.overlay.dht.DHTView` stays the caller's step, as
        removing it was.
        """
        node = self.node(node_id)
        was_down = not node.alive
        node.recover(wipe=wipe)
        if was_down:
            for listener in self._routing_listeners:
                listener.on_join(node)
        return node

    def _repair_after_departure(self, node_id: NodeId) -> None:
        for other in self.live_nodes():
            repaired = other.leaf_set.remove(node_id)
            other.routing_table.remove(node_id)
            if repaired:
                # Leaf-set repair: refill from the live population, as Pastry
                # does by asking the remaining leaf-set members.
                for candidate in self.live_nodes():
                    if candidate.node_id != other.node_id:
                        other.leaf_set.consider(candidate.node_id)

    # -- accessors ------------------------------------------------------------
    def node(self, node_id: NodeId) -> OverlayNode:
        """The node object for ``node_id`` (alive or failed)."""
        try:
            return self._nodes[node_id]
        except KeyError as error:
            raise OverlayError(f"unknown node: {node_id!r}") from error

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[OverlayNode]:
        """All nodes, including failed ones."""
        return list(self._nodes.values())

    def live_nodes(self) -> List[OverlayNode]:
        """Only the currently alive nodes."""
        return [node for node in self._nodes.values() if node.alive]

    def live_ids(self) -> List[NodeId]:
        """Ids of the currently alive nodes."""
        return [node.node_id for node in self._nodes.values() if node.alive]

    # -- proximity -------------------------------------------------------------
    def proximity(self, a: NodeId, b: NodeId) -> float:
        """The proximity metric between two participants (Euclidean distance)."""
        ax, ay = self.node(a).coordinates
        bx, by = self.node(b).coordinates
        return math.hypot(ax - bx, ay - by)

    # -- pluggable routing engines --------------------------------------------
    def attach_router(self, engine="pastry", dispatch=True, **kwargs):
        """Attach an array routing engine ("pastry", "chord", or an instance).

        The engine is built over the current live population, registered for
        join/leave/fail churn patches, and — on ``routing_state=False``
        overlays, which have no per-node Pastry state of their own —
        :meth:`route` and :meth:`route_many` dispatch to it.  Overlays that
        maintain the seed's scalar state keep routing through it (the
        dispatched baseline), while the attached engine still tracks churn,
        which is what the hop-identity oracle leans on.

        ``dispatch=False`` registers the engine for churn tracking without
        making it the :meth:`route` target — how a session keeps a Chord
        engine alongside the dispatching Pastry one for head-to-heads.
        """
        from repro.overlay.engine import make_router

        router = make_router(engine, self, **kwargs) if isinstance(engine, str) else engine
        if dispatch or self.router is None:
            self.router = router
        if router not in self._routing_listeners:
            self._routing_listeners.append(router)
        return router

    # -- routing ---------------------------------------------------------------
    def responsible_node(self, key: NodeId) -> NodeId:
        """The live node numerically closest to ``key`` (the DHT root)."""
        live = self.live_ids()
        if not live:
            raise OverlayError("no live nodes in the overlay")
        return min(live, key=lambda nid: (distance(nid, key), int(nid)))

    def route(self, key: NodeId, start: Optional[NodeId] = None) -> RouteResult:
        """Route ``key`` hop-by-hop from ``start`` using Pastry's routing rule.

        Returns the responsible (root) node and the number of overlay hops.
        The result's ``root`` always equals :meth:`responsible_node`; the hop
        count reflects the per-node routing state actually traversed.
        """
        live = self.live_ids()
        if not live:
            raise OverlayError("no live nodes in the overlay")
        if start is None:
            start = live[0]
        if self.router is not None and not self.maintains_routing_state:
            result = self.router.route(key, start)
            self.total_route_hops += result.hops
            self.total_routes += 1
            return result
        current = self.node(start)
        if not current.alive:
            raise OverlayError(f"routing from a failed node: {start!r}")
        target_root = self.responsible_node(key)
        path: List[NodeId] = [current.node_id]
        hops = 0
        while current.node_id != target_root:
            if hops >= self.max_route_hops:
                raise OverlayError(f"routing for key {key!r} exceeded {self.max_route_hops} hops")
            next_id = self._next_hop(current, key)
            if next_id is None or next_id == current.node_id:
                # Converged as far as local state allows; jump to the true root.
                # (In a converged Pastry overlay the leaf set always contains
                # the root once we are this close.)
                next_id = target_root
            current = self.node(next_id)
            path.append(current.node_id)
            hops += 1
        self.total_route_hops += hops
        self.total_routes += 1
        return RouteResult(key=key, root=target_root, hops=hops, path=tuple(path))

    def route_many(self, keys, starts=None, collect_paths: bool = False):
        """Batched routing: one vectorized pass per hop on the attached engine.

        Falls back to a scalar :meth:`route` loop when no engine is attached
        (or the overlay maintains the seed's per-node state), so callers get
        the same :class:`~repro.overlay.engine.BatchRouteResult` either way.
        """
        from repro.overlay.engine import BatchRouteResult

        live = self.live_ids()
        if not live:
            raise OverlayError("no live nodes in the overlay")
        if starts is None:
            starts = live[0]
        if self.router is not None and not self.maintains_routing_state:
            result = self.router.route_many(keys, starts, collect_paths=collect_paths)
            self.total_route_hops += int(result.hops.sum())
            self.total_routes += len(result.hops)
            return result
        if isinstance(starts, (int, NodeId)):
            starts = [starts] * len(keys)
        results = [self.route(NodeId(int(key) % (1 << 160)), start)
                   for key, start in zip(keys, starts)]
        return BatchRouteResult(
            hops=np.array([r.hops for r in results], dtype=np.int32),
            root_slots=np.full(len(results), -1, dtype=np.int32),
            roots=[int(r.root) for r in results],
            paths=[[int(n) for n in r.path] for r in results] if collect_paths else None,
        )

    def _next_hop(self, current: OverlayNode, key: NodeId) -> Optional[NodeId]:
        # Rule 1: if the key is covered by the leaf set, go straight to the
        # numerically closest leaf (or stay here).
        if current.leaf_set.covers(key) or len(current.leaf_set) < 2 * self.leaf_set_half_size:
            closest = current.leaf_set.closest_to(key)
            if distance(closest, key) < distance(current.node_id, key):
                if self.node(closest).alive:
                    return closest
        # Rule 2: routing-table entry sharing a longer prefix.
        candidate = current.routing_table.next_hop(key)
        if candidate is not None and candidate in self._nodes and self.node(candidate).alive:
            return candidate
        # Rule 3 (rare case): any known node numerically closer with >= prefix.
        fallback_pool = (
            current.routing_table.candidates_with_longer_or_equal_prefix(key)
            + current.leaf_set.members()
        )
        best: Optional[NodeId] = None
        best_distance = distance(current.node_id, key)
        for node_id in fallback_pool:
            if node_id not in self._nodes or not self.node(node_id).alive:
                continue
            node_distance = distance(node_id, key)
            if node_distance < best_distance:
                best, best_distance = node_id, node_distance
        return best

    # -- statistics --------------------------------------------------------------
    @property
    def mean_route_hops(self) -> float:
        """Average hops per routed message so far."""
        if self.total_routes == 0:
            return 0.0
        return self.total_route_hops / self.total_routes

    def total_capacity(self) -> int:
        """Total contributed capacity over live nodes (bytes)."""
        return sum(node.capacity for node in self.live_nodes())

    def total_used(self) -> int:
        """Total used space over live nodes (bytes)."""
        return sum(node.used for node in self.live_nodes())

    def utilization(self) -> float:
        """Fraction of live contributed capacity currently used."""
        capacity = self.total_capacity()
        return (self.total_used() / capacity) if capacity else 0.0
