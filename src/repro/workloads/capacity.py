"""Node storage-capacity distributions.

The simulations assign each node a contributed capacity drawn from a normal
distribution with mean 45 GB and standard deviation 10 GB (Section 6.1); the
Condor case study uses 32 machines contributing between 2 GB and 15 GB drawn
uniformly (Section 6.4).  Both generators live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.overlay.validation import require_range
from repro.workloads.filetrace import GB


@dataclass(frozen=True)
class CapacityConfig:
    """Parameters of the capacity generator."""

    node_count: int = 10_000
    distribution: str = "normal"
    mean: int = 45 * GB
    std: int = 10 * GB
    low: int = 2 * GB
    high: int = 15 * GB
    #: Capacities are floored at this value (a contributor never has negative
    #: or zero space); the paper's parameters make negative draws negligible.
    minimum: int = 1 * GB

    def __post_init__(self) -> None:
        require_range("node_count", self.node_count, 0)
        if self.distribution not in ("normal", "uniform"):
            raise ValueError(f"unknown capacity distribution {self.distribution!r}")
        for name in ("mean", "std", "low", "minimum"):
            require_range(name, getattr(self, name), 0)
        require_range("high", self.high, self.low)


#: The paper's simulation configuration (Section 6.1).
PAPER_CAPACITY_CONFIG = CapacityConfig(node_count=10_000, distribution="normal")

#: The Condor case-study configuration (Section 6.4).
CONDOR_CAPACITY_CONFIG = CapacityConfig(
    node_count=32, distribution="uniform", low=2 * GB, high=15 * GB
)


def generate_capacities(
    config: Optional[CapacityConfig] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Sample per-node contributed capacities (bytes) as an int64 array."""
    config = config or PAPER_CAPACITY_CONFIG
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    if config.node_count == 0:
        return np.zeros(0, dtype=np.int64)
    if config.distribution == "normal":
        values = rng.normal(config.mean, config.std, size=config.node_count)
    else:
        values = rng.uniform(config.low, config.high, size=config.node_count)
    values = np.maximum(values, config.minimum)
    return np.asarray(np.round(values), dtype=np.int64)
