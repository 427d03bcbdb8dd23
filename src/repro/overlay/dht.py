"""Fast DHT oracle view of the overlay.

The large-scale insertion experiments of the paper (1.2 M files over 10 000
nodes) charge the system per-lookup *costs* but do not depend on the exact
hop-by-hop path of each message -- only on which node every key resolves to,
which in a converged Pastry overlay is simply the live node numerically
closest to the key.  :class:`DHTView` provides that mapping through an
array-backed :class:`~repro.overlay.node_state.NodeArrayState`:

* :meth:`lookup` keeps the seed implementation (bisect over the sorted ids
  plus exact ring-distance comparison) -- it is the reference the batched
  kernels are checked against key-for-key, and the entry point the seed
  placement references under ``tests/reference/`` are built on;
* :meth:`lookup_many` / :meth:`resolve_digests` are the batched kernels: all
  keys are resolved with a single ``np.searchsorted`` over precomputed
  responsibility boundaries (no per-key distance math);
* capacity aggregates (:meth:`total_capacity`, :meth:`total_used`,
  :meth:`utilization`) are O(1), maintained incrementally by the state.

The result of :meth:`DHTView.lookup` is always identical to
:meth:`repro.overlay.network.OverlayNetwork.responsible_node`; tests assert
this equivalence, and ``tests/test_overlay_node_state.py`` asserts that the
vectorized kernels agree with :meth:`lookup` key-for-key.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List

import numpy as np

from repro.overlay.ids import ID_SPACE, NodeId, distance
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.node_state import NodeArrayState


class DHTView:
    """A sorted-ring index over the live nodes of an overlay."""

    def __init__(self, network: OverlayNetwork) -> None:
        self.network = network
        self.state = NodeArrayState()
        self.lookup_count = 0
        self.refresh()

    # -- maintenance ----------------------------------------------------------
    def refresh(self) -> None:
        """Rebuild the index from the overlay's current live population."""
        self.state.rebuild(self.network.live_nodes())

    def remove(self, node_id: NodeId) -> None:
        """Incrementally drop a node that failed or left."""
        self.state.remove(int(node_id))

    def add(self, node: OverlayNode) -> None:
        """Incrementally add a node that joined or recovered."""
        self.state.add(node)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live nodes currently indexed."""
        return len(self.state)

    def lookup(self, key: NodeId) -> OverlayNode:
        """The live node numerically closest to ``key`` (the DHT root for the key).

        This is the seed per-key path, preserved verbatim as the oracle of
        the batched kernels below, which produce identical results.
        """
        sorted_ids = self.state.ids_int
        if not sorted_ids:
            raise LookupError("no live nodes in the DHT")
        self.lookup_count += 1
        value = int(key) % ID_SPACE
        index = bisect.bisect_left(sorted_ids, value)
        candidates = {
            sorted_ids[index % len(sorted_ids)],
            sorted_ids[(index - 1) % len(sorted_ids)],
        }
        best = min(candidates, key=lambda nid: (distance(nid, value), nid))
        return self.state.nodes[self.state.position(best)]

    def lookup_many(self, keys: Iterable[NodeId]) -> List[OverlayNode]:
        """Vectorised batch lookup: one ``searchsorted`` for the whole batch.

        Counts every key in :attr:`lookup_count`, exactly like issuing the
        lookups one by one.
        """
        key_list = [int(key) % ID_SPACE for key in keys]
        if not key_list:
            return []
        if not len(self.state):
            raise LookupError("no live nodes in the DHT")
        self.lookup_count += len(key_list)
        digests = b"".join(value.to_bytes(20, "big") for value in key_list)
        indices = self.state.lookup_digests(digests)
        nodes = self.state.nodes
        return [nodes[index] for index in indices]

    def locate_name(self, name: str) -> OverlayNode:
        """Resolve an object name to its responsible node, counting one lookup.

        Resolves through the array engine, counting the lookup only once it
        succeeded (matching :meth:`lookup`'s raise-before-count behaviour on
        an empty view); the node is the one ``lookup(key_for(name))`` returns.
        """
        # Raw int key (same value as ``key_for``) skips the NodeId wrapper on
        # the hot path -- one sha1 + from_bytes per lookup.
        return self.locate_key(
            int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest(), "big"))

    def locate_key(self, key: int) -> OverlayNode:
        """:meth:`lookup` through the boundary bisect: same node, one lookup counted.

        Like :meth:`lookup` it raises before counting on an empty view.
        """
        state = self.state
        node = state.nodes[state.lookup_index(key)]
        self.lookup_count += 1
        return node

    def resolve_digests(self, digests, count: bool = True) -> np.ndarray:
        """Resolve raw 20-byte key digests to node indices (batch kernel).

        ``count=False`` skips the :attr:`lookup_count` accounting -- used by
        pipelines that resolve speculatively and charge lookups themselves to
        keep one-lookup-per-attempt retry accounting.
        """
        indices = self.state.lookup_digests(digests)
        if count:
            self.lookup_count += len(indices)
        return indices

    def successors(self, key: NodeId, count: int) -> List[OverlayNode]:
        """The ``count`` live nodes that follow ``key`` clockwise (CFS-style replica set)."""
        nodes = self.state.nodes
        return [nodes[index] for index in self.state.successor_indices(int(key), count)]

    def neighbors(self, node_id: NodeId, count: int) -> List[OverlayNode]:
        """The ``count`` live nodes numerically closest to ``node_id`` (excluding it).

        Used to pick replica targets "k-1 of its neighbors in the identifier
        space" (Section 4.4.1) and CAT replica holders.
        """
        nodes = self.state.nodes
        return [nodes[index] for index in self.state.neighbor_indices(int(node_id), count)]

    # -- statistics --------------------------------------------------------------
    def total_capacity(self) -> int:
        """Total contributed capacity across indexed live nodes (bytes), O(1)."""
        return self.state.capacity_total

    def total_used(self) -> int:
        """Total consumed space across indexed live nodes (bytes), O(1)."""
        return self.state.used_total

    def utilization(self) -> float:
        """Used / capacity over the indexed live nodes, O(1)."""
        return self.state.utilization()
