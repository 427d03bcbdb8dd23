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

from dataclasses import dataclass

from repro.overlay.validation import require_range

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
        require_range("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s, 0, ends="()")
        for name in ("lookup_seconds", "interposition_seconds", "per_transfer_latency"):
            require_range(name, getattr(self, name), 0)

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds to move ``size_bytes`` one way across the network."""
        require_range("size_bytes", size_bytes, 0)
        return size_bytes / self.bandwidth_bytes_per_s + (self.per_transfer_latency if size_bytes else 0.0)

    def lookup_time(self, lookups: int) -> float:
        """Seconds spent on ``lookups`` p2p look-up operations."""
        require_range("lookups", lookups, 0)
        return lookups * self.lookup_seconds
