"""Tunable policies of the storage system.

Every knob the paper mentions is collected here so that experiments and
ablation benchmarks can vary them in one place:

* the limit on consecutive zero-sized chunks before a store fails
  (Section 4.3; set to 5 in the simulations);
* the fraction of free capacity a node reports per ``getCapacity`` probe
  (Section 4.3 suggests under-reporting to serve concurrent stores);
* the replication factor applied to CAT objects and, optionally, to encoded
  blocks (Section 4.4 / 4.4.1);
* optional lower/upper bounds on chunk sizes (the trade-off discussed in
  Section 4.5).

A store that ultimately fails always releases the blocks it had placed: the
paper does not say, and releasing them keeps the capacity accounting
conservative and every stored block in the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.overlay.validation import require_range


@dataclass(frozen=True)
class StoragePolicy:
    """Configuration of :class:`repro.core.storage.StorageSystem`."""

    #: Maximum number of consecutive zero-sized chunks tolerated before the
    #: store of a file is declared failed (paper: 5).
    max_consecutive_zero_chunks: int = 5

    #: Fraction of its free space a node offers per getCapacity reply.
    capacity_report_fraction: float = 1.0

    #: Number of copies kept of each CAT object (primary + neighbours).
    cat_replication: int = 2

    #: Number of copies kept of each encoded block (1 = primary only).  The
    #: large-scale insertion experiments use 1, matching the paper.
    block_replication: int = 1

    #: Optional floor on non-zero chunk sizes (bytes); probes offering less
    #: are treated as zero-capacity (Section 4.5 trade-off).
    min_chunk_size: Optional[int] = None

    #: Optional ceiling on chunk sizes (bytes); None means "whatever the
    #: probed nodes offer" as in the paper's simulations.
    max_chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        require_range("max_consecutive_zero_chunks", self.max_consecutive_zero_chunks, 0)
        require_range("capacity_report_fraction", self.capacity_report_fraction, 0.0, 1.0, "(]")
        require_range("cat_replication", self.cat_replication, 1)
        require_range("block_replication", self.block_replication, 1)
        if self.min_chunk_size is not None:
            require_range("min_chunk_size", self.min_chunk_size, 0)
        if self.max_chunk_size is not None:
            require_range("max_chunk_size", self.max_chunk_size, 0, ends="()")
            if self.min_chunk_size is not None:
                require_range("max_chunk_size", self.max_chunk_size, self.min_chunk_size)


#: The configuration used by the paper's large-scale simulations (Section 6.1).
PAPER_SIMULATION_POLICY = StoragePolicy(
    max_consecutive_zero_chunks=5,
    capacity_report_fraction=1.0,
    cat_replication=2,
    block_replication=1,
)
