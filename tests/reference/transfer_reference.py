"""The pre-PR-12 transfer scheduler, kept as a test-only oracle.

``_reallocate`` and ``_activate`` below are the scheduler's former methods,
verbatim: every event rebuilds the whole link constraint graph from the active
set and re-runs the progressive filling through a lazy versioned heap, whether
or not anything the rates depend on changed, and every activation fills on its
own.  ``tests/test_transfer_kernel.py`` differential-fuzzes the production
:class:`~repro.core.transfer.TransferScheduler` (persistent graph, allocation
epoch, same-instant activation folding, the pure ``allocate`` kernel) against
this class and requires identical schedules with ``==``.
:func:`uniform_trunks` builds the transfer tests' one-capacity-per-direction trunk grids.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

from repro.core.transfer import (
    _DOWN,
    _RACK_DOWN,
    _RACK_UP,
    _SITE_DOWN,
    _SITE_UP,
    _TENANT,
    _UP,
    _WEIGHT_TOLERANCE,
    NetworkTopology,
    Transfer,
    TransferScheduler,
)


def uniform_trunks(nodes, rack_uplink=None, rack_downlink=None, site_uplink=None,
                   site_downlink=None, **latencies) -> NetworkTopology:
    """A topology over ``nodes`` giving every rack / site trunk of a direction
    one capacity (``None``: unconstrained), written per domain into
    :attr:`NetworkTopology.trunks` -- the fabric's only trunk-capacity input."""
    topology = NetworkTopology.from_nodes(nodes, **latencies)
    for node in nodes:
        for stage, domain, capacity in ((_RACK_UP, node.rack, rack_uplink),
                                        (_RACK_DOWN, node.rack, rack_downlink),
                                        (_SITE_UP, node.site, site_uplink),
                                        (_SITE_DOWN, node.site, site_downlink)):
            if domain >= 0 and capacity is not None:
                topology.trunks[(stage, int(domain))] = capacity
    return topology


class ReferenceTransferScheduler(TransferScheduler):
    """Rebuild-and-refill on every event (the from-scratch reference path)."""

    def _activate(self, seq: int) -> None:
        """End one transfer's latency window and admit it to the active set."""
        transfer = self._pending.pop(seq, None)
        if transfer is None or transfer.ended:
            return
        self._advance()
        reason = self._dead_reason(transfer)
        if reason is not None:
            # The path died while the flow was still propagating.
            self._fail_transfer(transfer, reason)
        else:
            self._add_active(transfer)
        self._reallocate()
        self._reschedule()

    def _reallocate(self) -> None:
        """Weighted progressive filling over the active set's constrained links."""
        if not self._active:
            return
        # Build the link constraint graph in submission order.
        link_cap: Dict[Tuple[int, int], float] = {}
        link_members: Dict[Tuple[int, int], List[Transfer]] = {}
        flow_links: Dict[int, List[Tuple[int, int]]] = {}
        ordered = [self._active[seq] for seq in sorted(self._active)]
        for transfer in ordered:
            keys: List[Tuple[int, int]] = []
            if transfer.src is not None:
                capacity = self.capacity_of((_UP, transfer.src))
                if capacity is not None:
                    key = (_UP, transfer.src)
                    if key not in link_cap:
                        link_cap[key] = float(capacity)
                        link_members[key] = []
                    link_members[key].append(transfer)
                    keys.append(key)
            if transfer.dst is not None:
                capacity = self.capacity_of((_DOWN, transfer.dst))
                if capacity is not None:
                    key = (_DOWN, transfer.dst)
                    if key not in link_cap:
                        link_cap[key] = float(capacity)
                        link_members[key] = []
                    link_members[key].append(transfer)
                    keys.append(key)
            for key in transfer.trunk_links:
                capacity = self.capacity_of(key)
                if capacity is not None:
                    if key not in link_cap:
                        link_cap[key] = float(capacity)
                        link_members[key] = []
                    link_members[key].append(transfer)
                    keys.append(key)
            if transfer.tenant is not None:
                capacity = self.capacity_of((_TENANT, transfer.tenant))
                if capacity is not None:
                    key = (_TENANT, transfer.tenant)
                    if key not in link_cap:
                        link_cap[key] = float(capacity)
                        link_members[key] = []
                    link_members[key].append(transfer)
                    keys.append(key)
            flow_links[transfer.seq] = keys
            transfer.rate = math.inf if not keys else 0.0
        # Lazy min-heap over (fill level, link key, version): stale entries
        # are skipped by comparing versions, so each link update is O(log L).
        version: Dict[Tuple[int, int], int] = {key: 0 for key in link_cap}
        unfrozen: Dict[Tuple[int, int], float] = {
            key: float(sum(member.weight for member in members))
            for key, members in link_members.items()
        }
        heap: List[Tuple[float, Tuple[int, int], int]] = [
            (link_cap[key] / unfrozen[key], key, 0) for key in sorted(link_cap)
        ]
        heapq.heapify(heap)
        frozen: Dict[int, float] = {}
        while heap:
            level, key, stamp = heapq.heappop(heap)
            if version[key] != stamp or unfrozen[key] <= _WEIGHT_TOLERANCE:
                continue
            # Freeze every still-unfrozen flow on the bottleneck link.
            for transfer in link_members[key]:
                if transfer.seq in frozen:
                    continue
                rate = level * transfer.weight
                frozen[transfer.seq] = rate
                transfer.rate = rate
                for other in flow_links[transfer.seq]:
                    if other == key:
                        continue
                    link_cap[other] -= rate
                    unfrozen[other] -= transfer.weight
                    version[other] += 1
                    if unfrozen[other] > _WEIGHT_TOLERANCE:
                        heapq.heappush(
                            heap,
                            (
                                max(link_cap[other], 0.0) / unfrozen[other],
                                other,
                                version[other],
                            ),
                        )
            unfrozen[key] = 0.0
            version[key] += 1
