"""The paper's primary contribution: contributory storage with variable-size striping.

The storage system (Section 4 of the paper) splits each file into chunks whose
sizes are negotiated with the nodes that will store them (``getCapacity``
probes over the DHT), erasure-codes every chunk into ``m`` encoded blocks that
are placed on DHT-selected nodes, records the chunk layout in a Chunk
Allocation Table (CAT) that is itself stored and replicated in the DHT, and
regenerates lost blocks when participants fail.

Public entry points:

* :class:`~repro.core.storage.StorageSystem` -- store / retrieve files and
  byte ranges, availability queries, utilisation statistics;
* :class:`~repro.core.policies.StoragePolicy` -- all tunables (zero-chunk
  retry limit, replication factors, capacity-report fraction, ...);
* :class:`~repro.core.recovery.RecoveryManager` -- failure handling, block
  regeneration and graceful-departure migration;
* :class:`~repro.core.transfer.TransferScheduler` -- the deterministic
  fair-share bandwidth model repairs charge their data movements to;
* :mod:`~repro.core.naming` -- the ``filename_chunk_ECB`` naming convention.
"""

from repro.core.naming import block_name, cat_name, chunk_name
from repro.core.block_ledger import BlockLedger
from repro.core.transfer import Transfer, TransferScheduler
from repro.core.cat import CatEntry, ChunkAllocationTable
from repro.core.policies import StoragePolicy
from repro.core.capacity import CapacityProbe, ProbeResult
from repro.core.storage import (
    BlockPlacement,
    RetrieveResult,
    StorageSystem,
    StoredChunk,
    StoredFile,
)
from repro.overlay.node import StoreResult
from repro.core.recovery import FailureImpact, RecoveryManager

__all__ = [
    "block_name",
    "BlockLedger",
    "Transfer",
    "TransferScheduler",
    "cat_name",
    "chunk_name",
    "CatEntry",
    "ChunkAllocationTable",
    "StoragePolicy",
    "CapacityProbe",
    "ProbeResult",
    "BlockPlacement",
    "RetrieveResult",
    "StorageSystem",
    "StoredChunk",
    "StoredFile",
    "StoreResult",
    "FailureImpact",
    "RecoveryManager",
]
