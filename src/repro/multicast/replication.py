"""Multicast-driven replica creation for stored chunks (Section 4.4.1).

The paper replaces the usual "primary node creates the replicas" scheme with a
push over a locality-aware multicast tree: once the k replica holders of an
encoded block are chosen (the block's DHT root plus k-1 of its identifier-space
neighbours), the storing node builds a tree towards them using the
proximity-aware routing state and runs Bullet to disseminate the block.

:class:`MulticastReplicator` ties that machinery to
:class:`repro.core.storage.StorageSystem`: it picks the replica holders,
reserves the space, runs a :class:`~repro.multicast.bullet.BulletSession` per
block, and records each new replica copy in the block ledger, where
availability checks, reads and recovery see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.storage import StorageSystem
from repro.multicast.bullet import BulletConfig, BulletSession
from repro.multicast.tree import build_locality_tree
from repro.overlay.dht import first_fits
from repro.overlay.validation import require_range


@dataclass
class ReplicationReport:
    """Outcome of replicating one chunk's encoded blocks."""

    filename: str
    chunk_no: int
    replicas_requested: int
    replicas_created: int = 0
    replicas_skipped_no_space: int = 0
    epochs_used: int = 0
    packets_per_block: int = 0
    #: Replica holders per block name.
    holders: Dict[str, List[int]] = field(default_factory=dict)


class MulticastReplicator:
    """Creates k replicas of stored chunks by multicast push."""

    def __init__(
        self,
        storage: StorageSystem,
        config: Optional[BulletConfig] = None,
        rng: Optional[np.random.Generator] = None,
        fanout: int = 2,
        simulate_push: bool = True,
    ) -> None:
        self.storage = storage
        self.dht = storage.dht
        self.config = config or BulletConfig(total_packets=100, ransub_fraction=0.16)
        self.rng = rng or np.random.default_rng(0)
        self.fanout = fanout
        #: Run the packet-level Bullet session per replicated chunk.  The
        #: serving engine's popularity-triggered promotion turns this off:
        #: there the push cost is already charged on the transfer fabric,
        #: and the per-packet dissemination model would dominate wall time.
        self.simulate_push = simulate_push

    # -- replication ------------------------------------------------------------
    def replicate_chunk(self, filename: str, chunk_no: int, replicas: int) -> ReplicationReport:
        """Create ``replicas`` additional copies of every encoded block of a chunk.

        Data movement is modelled by one Bullet session per chunk: the source
        is the node that stored the chunk, the leaves are the replica holders,
        and the session's epochs measure how long the push takes.
        """
        require_range("replicas", replicas, 1)
        stored = self.storage.files.get(filename)
        if stored is None:
            raise KeyError(f"unknown file: {filename!r}")
        chunk = next((c for c in stored.chunks if c.chunk_no == chunk_no), None)
        if chunk is None or chunk.is_empty:
            raise KeyError(f"file {filename!r} has no data chunk {chunk_no}")

        report = ReplicationReport(
            filename=filename, chunk_no=chunk_no, replicas_requested=replicas
        )
        ledger = self.storage.ledger
        network = self.dht.network
        all_targets: List[int] = []
        placements = chunk.placements
        for position, placement in enumerate(placements):
            # k-1 identifier-space neighbours of the primary that can hold the
            # block; the block's on-disk holders never take a second copy.
            placed = first_fits(
                self.dht.neighbors(placement.node_id, replicas * 3), placement.block_name,
                placement.size,
                ledger.placement_disk_serials(ledger.placement_for(chunk.ledger_index, position)),
                replicas)
            for node in placed:
                ledger.add_replica_copy(chunk.ledger_index, position, node, placement.size)
            targets = [node.node_id for node in placed]
            report.holders[placement.block_name] = targets
            report.replicas_created += len(targets)
            report.replicas_skipped_no_space += replicas - len(targets)
            all_targets.extend(targets)
            # When the store is attached to a transfer fabric, the multicast
            # push charges one tenant-tagged transfer per created replica (to
            # the store's attached observer: it belongs to no request).  In
            # payload mode the replica holders receive the block's bytes.
            payload = (network.node(placement.node_id).payloads.get(placement.block_name)
                       if placement.node_id in network else None)
            for node in placed:
                self.storage._charge(placement.size, placement.node_id, node.node_id,
                                     self.storage._transfer_observer)
                if payload is not None:
                    node.payloads[placement.block_name] = payload

        if all_targets and self.simulate_push:
            source = placements[0].node_id
            tree = build_locality_tree(self.dht.network, source, all_targets, fanout=self.fanout)
            session = BulletSession(tree, self.config, rng=self.rng)
            session.run(until_complete=True)
            report.epochs_used = len(session.history)
            report.packets_per_block = self.config.total_packets
        return report

    def replicate_file(self, filename: str, replicas: int) -> List[ReplicationReport]:
        """Replicate every data chunk of a file; returns one report per chunk."""
        stored = self.storage.files.get(filename)
        if stored is None:
            raise KeyError(f"unknown file: {filename!r}")
        return [
            self.replicate_chunk(filename, chunk.chunk_no, replicas)
            for chunk in stored.data_chunks()
        ]
