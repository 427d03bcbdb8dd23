"""Array-backed placement engine state: the hot-path index over live nodes.

The paper's large-scale experiments resolve tens of millions of DHT lookups
(one per encoded block, capacity probe and CAT placement).  The seed
implementation paid, per lookup, a SHA-1 -> ``NodeId`` -> ``bisect`` ->
big-int ring-distance pipeline; :class:`NodeArrayState` replaces it with a
*boundary array*: for every pair of adjacent live nodes the exact identifier
at which responsibility switches from one to the other is precomputed (plain
Python integers, so the 160-bit ring arithmetic is exact), and stored both as
a sorted ``bytes20`` NumPy array and as a Python list.  A batched lookup is
then a single ``np.searchsorted`` over the raw SHA-1 digests -- no per-key
distance computation at all -- and a scalar lookup is one ``bisect``.

Correctness of the boundary construction relies on a property of the ring
metric: for a key on the arc between adjacent live nodes ``a`` (counter-
clockwise) and ``b`` (clockwise) at clockwise offset ``t`` from ``a`` with gap
``g``, node ``a`` is the closer of the two iff ``t < g - t`` (ties broken
towards the smaller id), *regardless* of whether the shorter way around the
ring flips direction.  The case analysis is spelled out in
``tests/test_overlay_node_state.py``, which checks the kernel against the
brute-force oracle on adversarial rings (gaps larger than half the ring,
exact midpoints, single-node populations).

The state also maintains O(1) aggregates (total contributed capacity, total
used bytes): every indexed node lists the state in ``_usage_listeners`` and adds
its own usage deltas to ``used_total`` (see ``OverlayNode``), which makes the
utilization sampling of the insertion experiments independent of the
population size.

Boundary slot ``j`` is owned by node ``(j - wrap_first) mod n`` (the slots
follow the id order, shifted by one when the wrap-around boundary sorts
first), so owners are arithmetic and nothing but the boundaries themselves
is stored.  Membership changes on *clean* boundaries are patched in place --
a removal merges the two arcs adjacent to the removed node, an insertion
splits the arc the newcomer lands on -- which costs O(1) Python work, two
list splices and one ``np.delete``/``np.insert`` of the ``S20`` boundary
column; that column splice is the only O(N) step and it is a C memcpy
(200 kB at 10 000 nodes).  Changes made while the boundaries are already
dirty (bulk population builds, ``rebuild``) still coalesce into one full
rebuild at the next lookup.  ``tests/test_overlay_node_state.py`` asserts
patch == rebuild on adversarial rings, change by change.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional

import numpy as np

from repro.overlay.ids import ID_SPACE
from repro.overlay.node import OverlayNode

_ID_BYTES = 20


def digest_array(digests: bytes) -> np.ndarray:
    """View a concatenation of 20-byte digests as a ``(n,)`` byte-string array."""
    if len(digests) % _ID_BYTES:
        raise ValueError("digest buffer length must be a multiple of 20")
    return np.frombuffer(digests, dtype=f"S{_ID_BYTES}")


def _id_bytes(value: int) -> bytes:
    return value.to_bytes(_ID_BYTES, "big")


class NodeArrayState:
    """Sorted-array index over a set of live overlay nodes.

    Maintains, in node-id order:

    * ``ids_int`` -- node ids as Python ints (used by the scalar fast path and
      by the exact boundary construction);
    * ``nodes`` -- the :class:`OverlayNode` views, aligned with the ids;

    plus the lazily rebuilt lookup boundary arrays and the O(1) capacity/usage
    aggregates.
    """

    def __init__(self, nodes: Iterable[OverlayNode] = ()) -> None:
        self.nodes: List[OverlayNode] = []
        self.ids_int: List[int] = []
        self.capacity_total = 0
        self.used_total = 0
        self._bounds_dirty = True
        self._wrap_first = False
        self._bounds_int: List[int] = []
        self._bounds_bytes: np.ndarray = np.empty(0, dtype=f"S{_ID_BYTES}")
        self.rebuild(nodes)

    # -- membership -----------------------------------------------------------
    def rebuild(self, nodes: Iterable[OverlayNode]) -> None:
        """Re-index from scratch (detaching from any previously tracked nodes)."""
        for node in self.nodes:
            self._detach(node)
        ordered = sorted(nodes, key=lambda node: int(node.node_id))
        self.nodes = ordered
        self.ids_int = [int(node.node_id) for node in ordered]
        self.capacity_total = sum(node.capacity for node in ordered)
        self.used_total = sum(node.used for node in ordered)
        for node in ordered:
            self._attach(node)
        self._bounds_dirty = True

    def add(self, node: OverlayNode) -> bool:
        """Insert a node (no-op when already indexed).  Returns True if added.

        When the lookup boundaries are clean, they are *patched* in place --
        only the arc the newcomer splits (plus the wrap-around boundary for an
        end insertion) changes, mirroring the removal patch -- so join-heavy
        churn never pays an O(N) Python rebuild per join.  When the boundaries
        are already dirty (bulk membership change in progress, e.g. a
        population build), the join simply coalesces into the pending full
        rebuild.
        """
        value = int(node.node_id)
        index = bisect.bisect_left(self.ids_int, value)
        if index < len(self.ids_int) and self.ids_int[index] == value:
            return False
        self.ids_int.insert(index, value)
        self.nodes.insert(index, node)
        self.capacity_total += node.capacity
        self.used_total += node.used
        self._attach(node)
        if not self._bounds_dirty:
            self._patch_bounds_after_insertion(index)
        return True

    def remove(self, node_id: int) -> bool:
        """Drop a node by id (no-op when absent).  Returns True if removed.

        When the lookup boundaries are clean, they are *patched* in place --
        only the two arcs adjacent to the removed node change, so the update
        is O(1) Python work plus C-level array splices -- which is what keeps
        single-node-failure churn at 10 000+ nodes from paying an O(N)
        rebuild per failure.  When the boundaries are already dirty
        (bulk membership change in progress), the removal simply coalesces
        into the pending full rebuild.
        """
        value = int(node_id)
        index = bisect.bisect_left(self.ids_int, value)
        if index >= len(self.ids_int) or self.ids_int[index] != value:
            return False
        node = self.nodes.pop(index)
        del self.ids_int[index]
        self.capacity_total -= node.capacity
        self.used_total -= node.used
        self._detach(node)
        if not self._bounds_dirty:
            self._patch_bounds_after_removal(index)
        return True

    def __len__(self) -> int:
        return len(self.ids_int)

    def position(self, node_id: int) -> Optional[int]:
        """Index of a node id in the sorted order, or None."""
        value = int(node_id)
        index = bisect.bisect_left(self.ids_int, value)
        if index < len(self.ids_int) and self.ids_int[index] == value:
            return index
        return None

    # -- aggregate maintenance -------------------------------------------------
    def _attach(self, node: OverlayNode) -> None:
        node._usage_listeners = node._usage_listeners + (self,)

    def _detach(self, node: OverlayNode) -> None:
        node._usage_listeners = tuple(
            listener for listener in node._usage_listeners if listener is not self
        )

    def utilization(self) -> float:
        """Used / contributed capacity over the indexed nodes, in O(1)."""
        return (self.used_total / self.capacity_total) if self.capacity_total else 0.0

    # -- lookup boundaries -----------------------------------------------------
    def _rebuild_bounds(self) -> None:
        """Precompute the responsibility boundaries between adjacent nodes.

        ``bounds[j]`` is the (inclusive) largest key owned by node
        ``(j - wrap_first) mod n``; a key strictly greater than every boundary
        falls in slot ``n``, which the same formula wraps round to the node
        owning the top of the ring.  The wrap-around arc between the
        numerically largest node ``L`` and the smallest node ``F`` needs care:
        its switching point can itself wrap past zero, in which case it
        becomes the *first* boundary.
        """
        ids = self.ids_int
        n = len(ids)
        if n <= 1:
            self._bounds_int = []
            self._bounds_bytes = np.empty(0, dtype=f"S{_ID_BYTES}")
            self._wrap_first = False
            self._bounds_dirty = False
            return
        inner = [ids[i] + (ids[i + 1] - ids[i]) // 2 for i in range(n - 1)]
        # Wrap arc: L owns clockwise offsets t with 2t < g (tie -> smaller id,
        # which is F, so L keeps strictly less than half).
        gap = ID_SPACE - ids[-1] + ids[0]
        wrap_raw = ids[-1] + (gap - 1) // 2
        self._wrap_first = wrap_raw >= ID_SPACE
        bounds = [wrap_raw - ID_SPACE] + inner if self._wrap_first else inner + [wrap_raw]
        self._bounds_int = bounds
        self._bounds_bytes = np.array([_id_bytes(v) for v in bounds], dtype=f"S{_ID_BYTES}")
        self._bounds_dirty = False

    def _patch_bounds_after_removal(self, index: int) -> None:
        """Patch clean lookup boundaries after deleting the node at ``index``.

        ``index`` is the position the node occupied *before* removal (the
        arrays are already updated).  Only the two arcs adjacent to the
        removed node change: an interior removal merges them around a single
        recomputed midpoint; removing the smallest or largest id additionally
        recomputes the wrap-around boundary, which may flip the layout between
        the "wrap boundary last" and "wrap boundary first" forms.  Equality
        with a full rebuild is asserted, ring by ring, in
        ``tests/test_overlay_node_state``.
        """
        ids = self.ids_int
        n = len(ids)
        if n <= 1:
            self._rebuild_bounds()
            return
        bounds = self._bounds_int
        arr = self._bounds_bytes
        wrap_first = self._wrap_first
        if 0 < index < n:
            # Interior removal: the wrap arc is untouched, the layout stays.
            mid = ids[index - 1] + (ids[index] - ids[index - 1]) // 2
            slot = index if wrap_first else index - 1
            bounds[slot] = mid
            del bounds[slot + 1]
            arr = np.delete(arr, slot + 1)
            arr[slot] = _id_bytes(mid)
            self._bounds_bytes = arr
            return
        # End removal (smallest id when index == 0, largest when index == n):
        # the inner boundary that touched the removed node disappears and the
        # wrap-around boundary is recomputed from the new first/last ids.
        gap = ID_SPACE - ids[-1] + ids[0]
        wrap_raw = ids[-1] + (gap - 1) // 2
        new_wrap_first = wrap_raw >= ID_SPACE
        if index == 0:
            inner_slot = 1 if wrap_first else 0
        else:
            inner_slot = len(bounds) - 1 if wrap_first else len(bounds) - 2
        del bounds[inner_slot]
        arr = np.delete(arr, inner_slot)
        if wrap_first:
            if new_wrap_first:
                bounds[0] = wrap_raw - ID_SPACE
                arr[0] = _id_bytes(wrap_raw - ID_SPACE)
            else:
                del bounds[0]
                bounds.append(wrap_raw)
                arr = np.delete(arr, 0)
                arr = np.append(arr, np.array([_id_bytes(wrap_raw)], dtype=arr.dtype))
        else:
            if new_wrap_first:
                del bounds[-1]
                bounds.insert(0, wrap_raw - ID_SPACE)
                arr = np.delete(arr, len(arr) - 1)
                arr = np.insert(arr, 0, _id_bytes(wrap_raw - ID_SPACE))
            else:
                bounds[-1] = wrap_raw
                arr[-1] = _id_bytes(wrap_raw)
        self._bounds_bytes = arr
        self._wrap_first = new_wrap_first

    def _patch_bounds_after_insertion(self, index: int) -> None:
        """Patch clean lookup boundaries after inserting the node at ``index``.

        The mirror image of :meth:`_patch_bounds_after_removal`: an interior
        insertion splits one arc around two recomputed midpoints; inserting a
        new smallest or largest id additionally recomputes the wrap-around
        boundary, which may flip the layout between the "wrap boundary last"
        and "wrap boundary first" forms.  Equality with a full rebuild is
        asserted, ring by ring, in ``tests/test_overlay_node_state``.
        """
        ids = self.ids_int
        n = len(ids)
        if n <= 2:
            self._rebuild_bounds()
            return
        bounds = self._bounds_int
        arr = self._bounds_bytes
        wrap_first = self._wrap_first
        if 0 < index < n - 1:
            # Interior insertion: the wrap arc is untouched, the layout stays.
            mid1 = ids[index - 1] + (ids[index] - ids[index - 1]) // 2
            mid2 = ids[index] + (ids[index + 1] - ids[index]) // 2
            slot = index if wrap_first else index - 1
            bounds[slot] = mid1
            bounds.insert(slot + 1, mid2)
            arr[slot] = _id_bytes(mid1)
            arr = np.insert(arr, slot + 1, _id_bytes(mid2))
            self._bounds_bytes = arr
            return
        # End insertion (new smallest id when index == 0, new largest when
        # index == n-1): the wrap-around boundary is recomputed from the new
        # first/last ids and one new inner boundary appears next to the end.
        gap = ID_SPACE - ids[-1] + ids[0]
        wrap_raw = ids[-1] + (gap - 1) // 2
        new_wrap_first = wrap_raw >= ID_SPACE
        # Drop the old wrap boundary, leaving exactly the old inner boundaries.
        if wrap_first:
            del bounds[0]
            arr = np.delete(arr, 0)
        else:
            del bounds[-1]
            arr = np.delete(arr, len(arr) - 1)
        # Insert the new inner boundary at its position in the inner order.
        if index == 0:
            inner = ids[0] + (ids[1] - ids[0]) // 2
            bounds.insert(0, inner)
            arr = np.insert(arr, 0, _id_bytes(inner))
        else:
            inner = ids[-2] + (ids[-1] - ids[-2]) // 2
            bounds.append(inner)
            arr = np.append(arr, np.array([_id_bytes(inner)], dtype=arr.dtype))
        # Re-add the wrap boundary in its (possibly flipped) layout position.
        if new_wrap_first:
            bounds.insert(0, wrap_raw - ID_SPACE)
            arr = np.insert(arr, 0, _id_bytes(wrap_raw - ID_SPACE))
        else:
            bounds.append(wrap_raw)
            arr = np.append(arr, np.array([_id_bytes(wrap_raw)], dtype=arr.dtype))
        self._bounds_bytes = arr
        self._wrap_first = new_wrap_first

    # -- lookups ---------------------------------------------------------------
    def lookup_index(self, key: int) -> int:
        """Index of the node numerically closest to ``key`` (scalar fast path)."""
        if not self.ids_int:
            raise LookupError("no live nodes in the placement index")
        if self._bounds_dirty:
            self._rebuild_bounds()
        slot = bisect.bisect_left(self._bounds_int, key % ID_SPACE)
        return (slot - self._wrap_first) % len(self.ids_int)

    def lookup_digests(self, digests) -> np.ndarray:
        """Vectorised lookup: raw 20-byte digests -> node indices.

        ``digests`` may be a ``bytes`` concatenation of 20-byte SHA-1 digests
        or an ``S20`` NumPy array.  Returns an ``int64`` array of positions
        into :attr:`nodes`.
        """
        if not self.ids_int:
            raise LookupError("no live nodes in the placement index")
        if self._bounds_dirty:
            self._rebuild_bounds()
        keys = digest_array(digests) if isinstance(digests, (bytes, bytearray)) else digests
        slots = np.searchsorted(self._bounds_bytes, keys, side="left")
        return (slots - self._wrap_first) % len(self.ids_int)

    def lookup_node(self, key: int) -> OverlayNode:
        """The node numerically closest to ``key``."""
        return self.nodes[self.lookup_index(key)]

    # -- neighbourhood queries -------------------------------------------------
    def successor_indices(self, key: int, count: int) -> List[int]:
        """Indices of the ``count`` nodes following ``key`` clockwise."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self.ids_int:
            raise LookupError("no live nodes in the placement index")
        start = bisect.bisect_left(self.ids_int, key % ID_SPACE)
        size = len(self.ids_int)
        return [(start + offset) % size for offset in range(min(count, size))]

    def neighbor_indices(self, node_id: int, count: int) -> List[int]:
        """Indices of the ``count`` nodes closest to ``node_id``, excluding it.

        Exactly reproduces the seed ``DHTView.neighbors`` semantics: collect a
        window of candidates twice as wide as needed on both sides, then pick
        the nearest by ``(ring distance, id)``.
        """
        if count <= 0:
            return []
        ids = self.ids_int
        if not ids:
            raise LookupError("no live nodes in the placement index")
        value = int(node_id) % ID_SPACE
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

    # -- failure domains -------------------------------------------------------
    def site_array(self) -> np.ndarray:
        """Site id per indexed node (int16, id order; ``-1`` = unassigned)."""
        return np.asarray([node.site for node in self.nodes], dtype=np.int16)

    def rack_array(self) -> np.ndarray:
        """Globally unique rack id per indexed node (int16, id order)."""
        return np.asarray([node.rack for node in self.nodes], dtype=np.int16)

    def domain_members(
        self, site: Optional[int] = None, rack: Optional[int] = None
    ) -> List[OverlayNode]:
        """Indexed nodes inside one failure domain, in id order.

        One vectorised equality test over the int16 domain columns -- the
        fault injector resolves a whole-rack or whole-site outage to its
        casualty list with a single mask, never a per-node Python scan.
        """
        if site is None and rack is None:
            raise ValueError("specify a site and/or a rack")
        mask = np.ones(len(self.nodes), dtype=bool)
        if site is not None:
            mask &= self.site_array() == np.int16(site)
        if rack is not None:
            mask &= self.rack_array() == np.int16(rack)
        nodes = self.nodes
        return [nodes[int(index)] for index in np.flatnonzero(mask)]

    # -- invariants --------------------------------------------------------------
    def check_invariants(self) -> None:
        """Recompute the aggregates, the id order and the boundaries from the nodes.

        Raises ``AssertionError`` naming the first broken law; O(N), for tests and debugging.
        """

        def law(name: str, have, want) -> None:
            if have != want:
                raise AssertionError(f"node-state invariant {name!r}: have {have!r}, nodes say {want!r}")

        nodes = self.nodes
        law("used_total", self.used_total, sum(node.used for node in nodes))
        law("capacity_total", self.capacity_total, sum(node.capacity for node in nodes))
        law("ids_int aligned with nodes", self.ids_int, [int(node.node_id) for node in nodes])
        law("ids_int strictly ascending", self.ids_int, sorted(set(self.ids_int)))
        law("listed once per indexed node",
            [node._usage_listeners.count(self) for node in nodes], [1] * len(nodes))
        if not self._bounds_dirty:
            patched = (self._wrap_first, self._bounds_int, self._bounds_bytes.tolist())
            self._rebuild_bounds()
            law("patched bounds",
                patched, (self._wrap_first, self._bounds_int, self._bounds_bytes.tolist()))
