"""The seed placement algorithms, kept as test-only references.

The seed stored files by issuing one ``DHTView.lookup`` per probed block and
per placement attempt; production code now resolves the same names through
the batched boundary kernels.  Both seed entry points -- ``DHTView.lookup``
and ``CapacityProbe.probe_chunk`` -- still live in ``src/``, so the references
here are thin: a view whose by-name lookups go through ``lookup``, a storage
system whose capacity probes go through ``probe_chunk``, and the seed CFS
store loop (one lookup per attempt, per-block tuple bookkeeping) verbatim.
``tests/test_placement_equivalence.py`` requires the production stores to
match them result for result, placement for placement and lookup for lookup.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.cfs import DEFAULT_BLOCK_SIZE
from repro.baselines.past import PastStore
from repro.core.storage import StorageSystem
from repro.overlay.dht import DHTView
from repro.overlay.ids import key_for
from repro.overlay.node import OverlayNode, StoreResult

#: ``(stored block name, primary, size, replicas)`` -- the seed CFS bookkeeping.
BlockEntry = Tuple[str, OverlayNode, int, List[OverlayNode]]


class SeedLookupView(DHTView):
    """A DHT view whose by-name lookups are the seed per-key ``lookup`` walk."""

    def locate_name(self, name: str) -> OverlayNode:
        return self.lookup(key_for(name))


def seed_past_store(network, **kwargs) -> PastStore:
    """PAST with one seed ``DHTView.lookup`` per placement attempt."""
    return PastStore(SeedLookupView(network), **kwargs)


def seed_storage_system(network, **kwargs) -> StorageSystem:
    """The storage system probing through the seed ``probe_chunk`` (one
    ``DHTView.lookup`` per probed block) and locating CATs through ``lookup``."""
    storage = StorageSystem(SeedLookupView(network), **kwargs)
    storage.probe.probe_chunk_fast = storage.probe.probe_chunk
    return storage


class SeedCfsStore:
    """The seed CFS store: one scalar DHT lookup per block placement attempt."""

    def __init__(
        self,
        dht: DHTView,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 1,
        retries_per_block: int = 3,
        rollback_on_failure: bool = True,
    ) -> None:
        self.dht = dht
        self.block_size = block_size
        self.replication = replication
        self.retries_per_block = retries_per_block
        self.rollback_on_failure = rollback_on_failure
        self.files: dict[str, List[BlockEntry]] = {}
        self.total_lookups = 0

    def store_file(self, filename: str, size: int) -> StoreResult:
        if filename in self.files:
            return StoreResult(
                filename=filename, requested_size=size, success=False, stored_bytes=0,
                chunk_count=0, data_chunk_count=0, lookups=0,
                failure_reason="file already stored",
            )
        block_count = -(-size // self.block_size) if size > 0 else 0
        lookups = 0
        placements: List[BlockEntry] = []
        remaining = size
        for index in range(block_count):
            block_bytes = min(self.block_size, remaining)
            remaining -= block_bytes
            placed = False
            for attempt in range(self.retries_per_block + 1):
                base = f"{filename}/block{index}"
                name = base if attempt == 0 else f"{base}#salt{attempt}"
                target = self.dht.lookup(key_for(name))
                lookups += 1
                if target.store_block(name, block_bytes):
                    replicas = self._replicate(name, block_bytes, target)
                    placements.append((name, target, block_bytes, replicas))
                    placed = True
                    break
            if not placed:
                return self._fail(filename, size, placements, lookups, index)
        self.files[filename] = placements
        self.total_lookups += lookups
        return StoreResult(
            filename=filename, requested_size=size, success=True, stored_bytes=size,
            chunk_count=block_count, data_chunk_count=block_count, lookups=lookups,
        )

    def _fail(self, filename, size, placements, lookups, index) -> StoreResult:
        self.total_lookups += lookups
        if self.rollback_on_failure:
            self._release(placements)
            stored_bytes = 0
        else:
            stored_bytes = sum(entry[2] for entry in placements)
        return StoreResult(
            filename=filename, requested_size=size, success=False,
            stored_bytes=stored_bytes, chunk_count=len(placements),
            data_chunk_count=len(placements), lookups=lookups,
            failure_reason=f"block {index} could not be placed",
        )

    def _replicate(self, name: str, size: int, primary: OverlayNode) -> List[OverlayNode]:
        replicas: List[OverlayNode] = []
        if self.replication <= 1:
            return replicas
        for successor in self.dht.successors(primary.node_id, self.replication * 2):
            if len(replicas) >= self.replication - 1:
                break
            if successor.node_id == primary.node_id:
                continue
            if successor.store_block(name, size):
                replicas.append(successor)
        return replicas

    def _release(self, placements: List[BlockEntry]) -> None:
        for name, primary, size, replicas in placements:
            primary.release_block(name, size)
            for replica in replicas:
                replica.release_block(name, size)

    def chunk_sizes(self, filename: str) -> List[int]:
        return [entry[2] for entry in self.files.get(filename, [])]

    def block_entries(self, filename: str) -> List[BlockEntry]:
        return [(name, primary, size, list(replicas))
                for name, primary, size, replicas in self.files.get(filename, [])]

    def delete_file(self, filename: str) -> bool:
        entry = self.files.pop(filename, None)
        if entry is None:
            return False
        self._release(entry)
        return True
