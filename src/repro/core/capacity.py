"""The ``getCapacity`` probing protocol (Section 4.3).

Before a chunk is created, the system computes the names of the encoded
blocks that *would* belong to it, routes a ``getCapacity`` message to the node
responsible for each name, and collects the maximum block size every node is
willing to accept.  The space is only reported, never reserved, so the actual
store may still fail -- the storage system treats that case as a zero-sized
chunk exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core import naming
from repro.overlay.dht import DHTView
from repro.overlay.ids import key_for
from repro.overlay.node import OverlayNode
from repro.overlay.validation import require_range


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing the prospective block holders of one chunk."""

    block_names: tuple[str, ...]
    nodes: tuple[OverlayNode, ...]
    offers: tuple[int, ...]
    lookups: int

    @property
    def usable_block_size(self) -> int:
        """The block size every probed node can accommodate (the minimum offer).

        The paper says "we determine the maximum block size that the remote
        nodes can store"; since every encoded block of a chunk has the same
        size, the largest size *all* of them can store is the minimum of the
        individual offers.
        """
        return min(self.offers) if self.offers else 0


class CapacityProbe:
    """Issues getCapacity probes through a DHT view."""

    def __init__(self, dht: DHTView, capacity_report_fraction: float = 1.0) -> None:
        self.capacity_report_fraction = require_range(
            "capacity_report_fraction", capacity_report_fraction, 0.0, 1.0, "(]")
        self.dht = dht
        self.total_probes = 0

    def offer_from(self, node: OverlayNode) -> int:
        """The capacity ``node`` offers for one block, applying the report policy.

        The system-wide policy fraction composes with the node's own
        ``capacity_report_fraction`` (a node may be individually configured to
        under-report, see :class:`repro.overlay.node.OverlayNode`).
        """
        return int(node.report_capacity() * self.capacity_report_fraction)

    def probe_chunk(self, filename: str, chunk_no: int, encoded_blocks: int) -> ProbeResult:
        """Probe the prospective holders of chunk ``chunk_no``'s encoded blocks."""
        require_range("encoded_blocks", encoded_blocks, 1)
        names: List[str] = [
            naming.block_name(filename, chunk_no, ecb) for ecb in range(1, encoded_blocks + 1)
        ]
        nodes: List[OverlayNode] = []
        offers: List[int] = []
        for name in names:
            node = self.dht.lookup(key_for(name))
            nodes.append(node)
            offers.append(self.offer_from(node))
        self.total_probes += len(names)
        return ProbeResult(
            block_names=tuple(names),
            nodes=tuple(nodes),
            offers=tuple(offers),
            lookups=len(names),
        )

    def probe_chunk_fast(self, filename: str, chunk_no: int, encoded_blocks: int) -> ProbeResult:
        """Array-engine variant of :meth:`probe_chunk`: identical result, batched.

        All block names of the chunk are hashed at once and resolved through
        the ``searchsorted`` kernel; lookup accounting matches
        :meth:`probe_chunk` exactly (one lookup per probed block).
        """
        require_range("encoded_blocks", encoded_blocks, 1)
        state = self.dht.state
        if encoded_blocks == 1:
            # The dominant configuration of the insertion experiments (one
            # encoded block per chunk): skip all intermediate containers.
            name = naming.block_name(filename, chunk_no, 1)
            node = state.lookup_node(key_for(name))
            self.dht.lookup_count += 1
            self.total_probes += 1
            return ProbeResult(
                block_names=(name,), nodes=(node,), offers=(self.offer_from(node),), lookups=1
            )
        names = naming.block_names(filename, chunk_no, encoded_blocks)
        if encoded_blocks >= 4:
            indices = state.lookup_digests(naming.name_digests(names)).tolist()
        else:
            indices = [state.lookup_index(key_for(name)) for name in names]
        self.dht.lookup_count += len(names)
        state_nodes = state.nodes
        offer_from = self.offer_from
        nodes = tuple(state_nodes[index] for index in indices)
        offers = tuple(offer_from(node) for node in nodes)
        self.total_probes += len(names)
        return ProbeResult(
            block_names=tuple(names),
            nodes=nodes,
            offers=offers,
            lookups=len(names),
        )

    def probe_names(self, names: Sequence[str]) -> ProbeResult:
        """Probe the responsible nodes for an explicit list of object names."""
        nodes: List[OverlayNode] = []
        offers: List[int] = []
        for name in names:
            node = self.dht.lookup(key_for(name))
            nodes.append(node)
            offers.append(self.offer_from(node))
        self.total_probes += len(names)
        return ProbeResult(
            block_names=tuple(names),
            nodes=tuple(nodes),
            offers=tuple(offers),
            lookups=len(names),
        )
