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
  :meth:`utilization`) are O(1), maintained incrementally by the state;
* :func:`first_fits` is the placement walk every store and repair step runs
  over a candidate list (:meth:`DHTView.neighbors`, :meth:`DHTView.successors`
  or a single root).

The result of :meth:`DHTView.lookup` is always identical to
:meth:`repro.overlay.network.OverlayNetwork.responsible_node`; tests assert
this equivalence, and ``tests/test_overlay_node_state.py`` asserts that the
vectorized kernels agree with :meth:`lookup` key-for-key.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List

import numpy as np

from repro.overlay.ids import distance, key_for
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

    def remove(self, node_id: int) -> None:
        """Incrementally drop a node that failed or left."""
        self.state.remove(node_id)

    def add(self, node: OverlayNode) -> None:
        """Incrementally add a node that joined or recovered."""
        self.state.add(node)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live nodes currently indexed."""
        return len(self.state)

    def lookup(self, key: int) -> OverlayNode:
        """The live node numerically closest to ``key`` (the DHT root for the key).

        This is the seed per-key path, preserved verbatim as the oracle of
        the batched kernels below, which produce identical results.
        """
        sorted_ids = self.state.ids_int
        if not sorted_ids:
            raise LookupError("no live nodes in the DHT")
        self.lookup_count += 1
        index = bisect.bisect_left(sorted_ids, key)
        candidates = {
            sorted_ids[index % len(sorted_ids)],
            sorted_ids[(index - 1) % len(sorted_ids)],
        }
        best = min(candidates, key=lambda nid: (distance(nid, key), nid))
        return self.state.nodes[self.state.position(best)]

    def lookup_many(self, keys: Iterable[int]) -> List[OverlayNode]:
        """Vectorised batch lookup: one ``searchsorted`` for the whole batch.

        Counts every key in :attr:`lookup_count`, exactly like issuing the
        lookups one by one.
        """
        key_list = list(keys)
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
        return self.locate_key(key_for(name))

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

    def successors(self, key: int, count: int) -> List[OverlayNode]:
        """The ``count`` live nodes that follow ``key`` clockwise (CFS-style replica set)."""
        nodes = self.state.nodes
        return [nodes[index] for index in self.state.successor_indices(key, count)]

    def neighbors(self, node_id: int, count: int) -> List[OverlayNode]:
        """The ``count`` live nodes nearest ``node_id``, never ``node_id`` itself.

        Nearest first by ``(ring distance, id)``: the caller's candidate order
        when it walks further from a full neighbour.  Used to pick replica
        targets "k-1 of its neighbors in the identifier space" (Section
        4.4.1), CAT replica holders and the targets of repair and relocation.
        """
        nodes = self.state.nodes
        return [nodes[index] for index in self.state.neighbor_indices(node_id, count)]

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


def first_fits(candidates: Iterable[OverlayNode], name: str, size: int, exclude=(),
               want: int = 1) -> List[OverlayNode]:
    """The first ``want`` of ``candidates``, in their order, that take a copy of ``name``.

    The paper's placement walk: offer the copy to each candidate in turn
    through :meth:`OverlayNode.store_block` (a down or full node, or one whose
    serial is in ``exclude``, refuses) and "drop and create another one at a
    different location" on a refusal.  An accepted offer takes capacity, so
    the walk stops before the next offer once ``want`` accepted; fewer when
    the candidates run out.
    """
    placed: List[OverlayNode] = []
    if want > 0:
        for node in candidates:
            if node.store_block(name, size, exclude):
                placed.append(node)
                if len(placed) == want:
                    break
    return placed
