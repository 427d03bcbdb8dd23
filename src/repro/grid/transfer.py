"""Cost model for data movement and p2p look-ups in the Condor case study.

Table 4 measures end-to-end ``bigCopy`` wall time, whose components the paper
identifies explicitly: the bulk transfer time over 100 Mb/s Ethernet (which
dominates for large files), a *fixed* overhead due to I/O redirection and code
interposition, and a *variable* overhead proportional to the number of p2p
look-ups (and hence to the number of chunks).  The model here charges exactly
those components; the absolute constants are configurable, and the defaults
are chosen to land in the same regime as the paper's testbed numbers (a 1 GB
whole-file copy takes on the order of 150 s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Bytes per second of a 100 Mb/s Ethernet link, de-rated for protocol
#: overhead (the paper's 1 GB / 151 s baseline implies ~85 % efficiency when
#: the copy streams the file once in and once out).
DEFAULT_BANDWIDTH = 100e6 / 8 * 0.85


@dataclass(frozen=True)
class TransferCostModel:
    """Charges simulated seconds for transfers, look-ups and interposition."""

    #: Effective bytes/second of one transfer direction.
    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH
    #: Seconds per p2p look-up (DHT routing + acknowledgement round trip).
    lookup_seconds: float = 0.12
    #: Fixed seconds charged per redirected I/O session (open + close overhead
    #: of the interposition library and its RPC to the local daemon).
    interposition_seconds: float = 2.0
    #: Seconds of per-message latency charged per chunk/block transfer setup.
    per_transfer_latency: float = 0.01

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth_bytes_per_s < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth_bytes_per_s!r}")
        for value in (self.lookup_seconds, self.interposition_seconds, self.per_transfer_latency):
            if not 0 <= value < math.inf:
                raise ValueError(f"cost components must be finite and non-negative, got {value!r}")

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds to move ``size_bytes`` one way across the network."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return size_bytes / self.bandwidth_bytes_per_s + (self.per_transfer_latency if size_bytes else 0.0)

    def lookup_time(self, lookups: int) -> float:
        """Seconds spent on ``lookups`` p2p look-up operations."""
        if lookups < 0:
            raise ValueError("lookups must be non-negative")
        return lookups * self.lookup_seconds
