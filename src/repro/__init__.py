"""repro — reproduction of "On Utilization of Contributory Storage in Desktop Grids".

A from-scratch Python implementation of the paper's peer-to-peer contributory
storage system (variable-size chunk striping + erasure coding + multicast
replica dissemination), the substrates it builds on (a Pastry-style overlay, a
discrete-event simulator, a Condor-like desktop-grid model) and the baselines
it is compared against (PAST and CFS), together with an experiment harness
that regenerates every figure and table of the paper's evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import (OverlayNetwork, DHTView, StorageSystem, ChunkCodec, XorParityCode)
>>> rng = np.random.default_rng(7)
>>> network = OverlayNetwork.build(64, rng, capacities=[10_000_000] * 64)
>>> storage = StorageSystem(DHTView(network),
...                         codec=ChunkCodec(XorParityCode(), blocks_per_chunk=2),
...                         payload_mode=True)
>>> data = bytes(rng.integers(0, 256, size=300_000, dtype=np.uint8))
>>> storage.store_bytes("scan.img", data).success
True
>>> storage.retrieve_file("scan.img").data == data
True
"""

from repro.api import ArchiveClient, ClusterSession
from repro.core.cache import CacheManager, NodeBlockCache
from repro.overlay import DHTView, OverlayNetwork, OverlayNode, key_for
from repro.erasure import (
    ChunkCodec,
    NullCode,
    OnlineCode,
    OnlineCodeParameters,
    ReedSolomonCode,
    XorParityCode,
    get_code,
)
from repro.core import (
    ChunkAllocationTable,
    RecoveryManager,
    StoragePolicy,
    StorageSystem,
)
from repro.baselines import CfsStore, PastStore
from repro.multicast import BulletConfig, BulletSession, build_binary_tree, build_locality_tree
from repro.grid import (
    CondorPool,
    InterposedIO,
    TransferCostModel,
    WholeFileStore,
    run_bigcopy,
)
from repro.workloads import (
    FileTrace,
    FileTraceConfig,
    generate_capacities,
    generate_file_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # client facade
    "ArchiveClient",
    "ClusterSession",
    "CacheManager",
    "NodeBlockCache",
    # overlay
    "DHTView",
    "OverlayNetwork",
    "OverlayNode",
    "key_for",
    # erasure coding
    "ChunkCodec",
    "NullCode",
    "XorParityCode",
    "OnlineCode",
    "OnlineCodeParameters",
    "ReedSolomonCode",
    "get_code",
    # core storage system
    "StorageSystem",
    "StoragePolicy",
    "ChunkAllocationTable",
    "RecoveryManager",
    # baselines
    "PastStore",
    "CfsStore",
    # multicast
    "BulletSession",
    "BulletConfig",
    "build_binary_tree",
    "build_locality_tree",
    # desktop grid
    "CondorPool",
    "InterposedIO",
    "TransferCostModel",
    "WholeFileStore",
    "run_bigcopy",
    # workloads
    "FileTrace",
    "FileTraceConfig",
    "generate_file_trace",
    "generate_capacities",
]
