"""Machines of the Condor pool.

The case study uses 32 laboratory machines, each contributing storage drawn
uniformly between 2 GB and 15 GB, connected by 100 Mb/s Ethernet.  A
:class:`GridMachine` couples a compute slot (for running Condor jobs) with the
overlay node through which the machine contributes storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.validation import require_range
from repro.workloads.capacity import CONDOR_CAPACITY_CONFIG, CapacityConfig, generate_capacities


@dataclass
class GridMachine:
    """One pool member: a compute slot plus its contributed storage node."""

    name: str
    overlay_node: OverlayNode
    #: Simulated time at which the machine finishes its current job (0 = idle).
    busy_until: float = 0.0
    jobs_run: int = 0

    def is_idle(self, now: float) -> bool:
        """Whether the machine can accept a job at simulated time ``now``."""
        return self.overlay_node.alive and now >= self.busy_until


def build_condor_pool_nodes(
    machine_count: int = 32,
    capacity_config: Optional[CapacityConfig] = None,
    seed: int = 0,
) -> tuple[OverlayNetwork, List[GridMachine]]:
    """Build the overlay + machine list for a Condor-style pool.

    Returns the overlay network (whose nodes carry the contributed capacities)
    and the machine wrappers in a deterministic order.
    """
    require_range("machine_count", machine_count, 1)
    config = capacity_config or CapacityConfig(
        node_count=machine_count,
        distribution=CONDOR_CAPACITY_CONFIG.distribution,
        low=CONDOR_CAPACITY_CONFIG.low,
        high=CONDOR_CAPACITY_CONFIG.high,
    )
    if config.node_count != machine_count:
        raise ValueError("capacity_config.node_count must match machine_count")
    rng = np.random.default_rng(seed)
    capacities = generate_capacities(config, rng=rng)
    network = OverlayNetwork.build(machine_count, rng=rng, capacities=list(capacities))
    machines = [
        GridMachine(name=f"machine-{index:02d}", overlay_node=node)
        for index, node in enumerate(network.nodes())
    ]
    return network, machines
