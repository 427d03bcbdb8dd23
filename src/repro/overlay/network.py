"""A simulated, directly connected network of overlay nodes.

This corresponds to the FreePastry "simulator mode" used by the paper:
messages are routed hop by hop, but the transport is a direct in-memory call.
The network owns the *population* -- who is a member, who is alive, where
they sit for the proximity metric -- and knows no routing protocol.  Routing
state lives in the array engines (:mod:`repro.overlay.engine_pastry`,
:mod:`repro.overlay.engine_chord`) a caller attaches with
:meth:`OverlayNetwork.attach_router` and routes on directly; the network
keeps every attached engine current by forwarding each membership change.
It supports:

* building an overlay of N nodes with random ids and random coordinates;
* node join, graceful leave, abrupt failure and recovery, each announced to
  the attached routing listeners as an incremental patch;
* the responsible node of a key (:meth:`OverlayNetwork.responsible_node`),
  the brute-force oracle the engines and the DHT view are checked against;
* the proximity metric used to build locality-aware multicast trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.overlay.ids import ID_SPACE, distance, random_population
from repro.overlay.node import OverlayNode
from repro.overlay.validation import require_range


class OverlayError(RuntimeError):
    """Raised for invalid overlay operations (routing on an empty overlay, ...)."""


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing a key: the responsible node and the path taken."""

    key: int
    root: int
    hops: int
    path: tuple[int, ...] = field(default=())


class OverlayNetwork:
    """A population of :class:`OverlayNode` objects plus its routing listeners."""

    def __init__(self, leaf_set_half_size: int = 8, max_route_hops: int = 128) -> None:
        #: Routing parameters the attached engines read when they are built.
        self.leaf_set_half_size = leaf_set_half_size
        self.max_route_hops = max_route_hops
        self._nodes: Dict[int, OverlayNode] = {}
        #: Serials handed out so far: every node *object* built or joining gets the
        #: next one (dense; a newcomer under a departed node's id does not reuse its).
        self.serial_count = 0
        #: Every attached engine, receiving join/leave/fail churn patches.
        self._routing_listeners: List = []

    # -- population management ----------------------------------------------
    @classmethod
    def build(
        cls,
        count: int,
        rng: np.random.Generator,
        capacities: Optional[Sequence[int]] = None,
        leaf_set_half_size: int = 8,
    ) -> "OverlayNetwork":
        """Create an overlay of ``count`` nodes with random ids and coordinates.

        ``capacities`` optionally assigns contributed storage per node (bytes);
        it must have length ``count`` when given.  Building is O(N): no
        routing state exists until an engine is attached, which is what keeps
        the paper's 10 000-node configurations practical.

        The draw is :func:`~repro.overlay.ids.random_population`: node ``i``
        gets exactly what ``rng.bytes(20)`` (its id, read big-endian) and two
        ``rng.uniform(0, COORDINATE_SPAN)`` calls (its coordinates) would give
        it, in node order, and ``rng`` ends in the state those calls leave.
        ``rng`` must be a ``Generator`` whose bit generator that reproduces:
        PCG64, PCG64DXSM, Philox or SFC64 (anything else, a legacy
        ``RandomState`` included, raises :class:`TypeError`).
        Two equal ids, a chance of about ``count**2 / 2**161``, raise
        :class:`OverlayError`.
        """
        if capacities is not None and len(capacities) != count:
            raise ValueError("capacities length must match node count")
        ids, coordinates = random_population(rng, count)
        network = cls(leaf_set_half_size=leaf_set_half_size)
        nodes = network._nodes
        xs, ys = coordinates.T.tolist()
        for index, (node_id, x, y) in enumerate(zip(ids, xs, ys)):
            nodes[node_id] = OverlayNode(
                node_id=node_id,
                coordinates=(x, y),
                capacity=int(capacities[index]) if capacities is not None else 0,
                serial=index,
            )
        if len(nodes) != count:
            raise OverlayError(f"{count - len(nodes)} duplicate node id(s) drawn for {count} nodes")
        network.serial_count = count
        return network

    def join(self, node: OverlayNode) -> None:
        """Add a new participant to an existing overlay (Figure 1 of the paper).

        O(1) here; each routing listener applies its own incremental patch
        (as does a :class:`~repro.overlay.dht.DHTView` the caller adds the
        node to), which is what keeps join-heavy churn soaks incremental.

        This is the one door a caller's id and coordinates come in by: an id
        outside ``[0, ID_SPACE)`` or a non-finite coordinate raises
        :class:`~repro.overlay.validation.ParameterError` before anything
        changes.
        """
        require_range("node_id", node.node_id, 0, ID_SPACE)
        for name, value in zip(("x", "y"), node.coordinates):
            require_range(f"coordinate {name}", value, -math.inf, math.inf, "()")
        if node.node_id in self._nodes:
            raise OverlayError(f"node id already present: {node.node_id!r}")
        self._nodes[node.node_id] = node
        node.serial = self.serial_count
        self.serial_count += 1
        for listener in self._routing_listeners:
            listener.on_join(node)

    def leave(self, node_id: int) -> None:
        """Graceful departure: remove the node and tell the routing listeners.

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
        for listener in self._routing_listeners:
            listener.on_leave(node_id)

    def fail(self, node_id: int) -> OverlayNode:
        """Abrupt failure: the node stays in the table but is marked dead."""
        node = self.node(node_id)
        node.fail()
        for listener in self._routing_listeners:
            listener.on_fail(node_id)
        return node

    def recover(self, node_id: int, wipe: bool = False) -> OverlayNode:
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

    # -- accessors ------------------------------------------------------------
    def node(self, node_id: int) -> OverlayNode:
        """The node object for ``node_id`` (alive or failed)."""
        try:
            return self._nodes[node_id]
        except KeyError as error:
            raise OverlayError(f"unknown node: {node_id!r}") from error

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> List[OverlayNode]:
        """All nodes, including failed ones."""
        return list(self._nodes.values())

    def live_nodes(self) -> List[OverlayNode]:
        """Only the currently alive nodes."""
        return [node for node in self._nodes.values() if node.alive]

    def live_ids(self) -> List[int]:
        """Ids of the currently alive nodes."""
        return [node.node_id for node in self._nodes.values() if node.alive]

    # -- proximity -------------------------------------------------------------
    def proximity(self, a: int, b: int) -> float:
        """The proximity metric between two participants (Euclidean distance):
        ``np.hypot``, as in the Pastry engine (``math.hypot`` rounds some ties apart)."""
        ax, ay = self.node(a).coordinates
        bx, by = self.node(b).coordinates
        return float(np.hypot(ax - bx, ay - by))

    # -- pluggable routing engines --------------------------------------------
    def attach_router(self, engine="pastry", **kwargs):
        """Attach an array routing engine ("pastry", "chord", or an instance).

        The engine is built over the current live population (``kwargs`` are
        its build options) and registered for join/leave/fail churn patches;
        route on the returned engine.  Every call builds a new engine -- a
        :class:`~repro.api.ClusterSession` caches one per name.
        """
        from repro.overlay.engine import make_router

        router = make_router(engine, self, **kwargs) if isinstance(engine, str) else engine
        if router not in self._routing_listeners:
            self._routing_listeners.append(router)
        return router

    # -- routing oracle ----------------------------------------------------------
    def responsible_node(self, key: int) -> int:
        """The live node numerically closest to ``key`` (the DHT root)."""
        live = self.live_ids()
        if not live:
            raise OverlayError("no live nodes in the overlay")
        return min(live, key=lambda nid: (distance(nid, key), nid))
