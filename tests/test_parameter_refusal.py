"""Every public number is refused at the door, the same way, before anything moves.

One table lists each public constructor and call that takes a number, with
known-good arguments and the range of each numeric parameter.  Every
parameter is tried with every value its range excludes -- NaN, +-inf, -1 and
the first value past a bound -- and the call must raise
:class:`repro.api.ParameterError` naming the parameter, with the live
deployment's ledger counters, lookup count, submitted transfers, event queue
and fault log exactly as they were.  The table is finite, so every
combination runs, each under its own id (``CapacityConfig-mean=nan``).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.api import ClusterSession, ParameterError
from repro.core.cache import CacheManager
from repro.core.policies import StoragePolicy
from repro.core.transfer import TransferPacer, TransferScheduler
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.online_code import OnlineCodeParameters
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.erasure.xor_code import XorParityCode
from repro.experiments.coding_perf import CodingPerfConfig
from repro.experiments.condor_case_study import CondorCaseStudyConfig
from repro.experiments.multicast_replicas import MulticastConfig
from repro.experiments.paper import ReproduceConfig
from repro.experiments.storage_insertion import InsertionConfig
from repro.grid.transfer import TransferCostModel
from repro.multicast.bullet import BulletConfig
from repro.sim.churn import FailureSchedule
from repro.sim.engine import Simulator
from repro.workloads.capacity import CapacityConfig
from repro.workloads.filetrace import GB, MB, FileTraceConfig

INF = math.inf
#: Ranges as ``require_range`` spells them: ``(low, high, ends)``.
AT_LEAST_0 = (0, INF, "[)")
AT_LEAST_1 = (1, INF, "[)")
POSITIVE = (0, INF, "()")
FRACTION = (0.0, 1.0, "(]")
CLOSED_FRACTION = (0.0, 1.0, "[]")


def _outside(low, high, ends):
    """Values the range ``(low, high, ends)`` excludes."""
    values = [math.nan, INF, -INF]
    values.append(low if ends[0] == "(" else math.nextafter(low, -INF))
    if -1 < low or (-1 == low and ends[0] == "("):
        values.append(-1)
    if high < INF:
        values.append(high if ends[1] == ")" else math.nextafter(high, INF))
    return values


def _session():
    """A live deployment: one stored file on a fabric with failure domains."""
    session = ClusterSession(16, seed=3, capacities=[256 * MB] * 16, sites=2, racks_per_site=2,
                             bandwidth_mb_s=8.0, oversubscription=2.0)
    client = session.client(codec=ChunkCodec(XorParityCode(group_size=2), blocks_per_chunk=2))
    assert client.store("f", 4 * MB).success
    client.attach()
    return session, client


def _moved(session, client, *extra):
    """Everything a refused call must leave as it was."""
    transfers = session.transfers
    return (session.ledger.tenant_aggregates(), client.storage.total_lookups, client.file_count,
            transfers.submitted_count, transfers.bytes_submitted, dict(transfers._caps),
            dict(transfers._tenant_weight), len(session.sim._queue), session.sim.now,
            len(session.network.live_nodes()), *extra)


def _constructor(cls, **fixed):
    """A constructor case: nothing exists before the call, so nothing can move."""
    return lambda: (lambda **kwargs: cls(**fixed, **kwargs), lambda: None)


def _one_element(cls, name: str):
    """A constructor case whose tuple field ``name`` is tried one element at a time."""
    return lambda: (lambda **kwargs: cls(**{**kwargs, name: (kwargs[name],)}), lambda: None)


def _on_session(method: str):
    """A call on one of the live deployment's objects, by dotted path."""
    def make():
        session, client = _session()
        owner, name = method.split(".")
        target = {"client": client, "transfers": session.transfers,
                  "injector": session.fault_injector(session.recovery(client))}[owner]
        call = getattr(target, name)
        extra = (lambda: tuple(target.events)) if owner == "injector" else (lambda: ())
        return call, lambda: _moved(session, client, *extra())
    return make


@dataclass(frozen=True)
class Case:
    label: str
    make: Callable[[], Tuple[Callable, Callable]]
    kwargs: Dict[str, object]
    ranges: Dict[str, tuple]


CASES = (
    Case("ClusterSession", _constructor(ClusterSession, capacities=[64 * MB] * 8),
         {"node_count": 8, "bandwidth_mb_s": 8.0, "oversubscription": 2.0, "sites": 2},
         {"node_count": AT_LEAST_1, "bandwidth_mb_s": POSITIVE, "oversubscription": (1.0, INF, "[)")}),
    Case("ArchiveClient.store", _on_session("client.store"),
         {"filename": "g", "size": 1 * MB}, {"size": AT_LEAST_0}),
    Case("ArchiveClient.retrieve", _on_session("client.retrieve"),
         {"filename": "f", "offset": 0, "length": 10},
         {"offset": AT_LEAST_0, "length": AT_LEAST_0}),
    Case("CacheManager", _constructor(CacheManager),
         {"capacity_bytes": 1 * MB, "hit_latency_s": 0.0},
         {"capacity_bytes": AT_LEAST_1, "hit_latency_s": AT_LEAST_0}),
    Case("ChunkCodec", _constructor(ChunkCodec, code=XorParityCode()),
         {"blocks_per_chunk": 4}, {"blocks_per_chunk": AT_LEAST_1}),
    Case("XorParityCode", _constructor(XorParityCode), {"group_size": 2},
         {"group_size": AT_LEAST_1}),
    Case("ReedSolomonCode", _constructor(ReedSolomonCode), {"parity_blocks": 2},
         {"parity_blocks": AT_LEAST_1}),
    Case("OnlineCodeParameters", _constructor(OnlineCodeParameters),
         {"epsilon": 0.01, "q": 3, "quality": 1.0, "margin": 16},
         {"epsilon": (0, 1, "()"), "q": AT_LEAST_1, "quality": (1.0, INF, "[)"),
          "margin": AT_LEAST_0}),
    Case("StoragePolicy", _constructor(StoragePolicy),
         {"max_consecutive_zero_chunks": 5, "capacity_report_fraction": 1.0,
          "cat_replication": 2, "block_replication": 1},
         {"max_consecutive_zero_chunks": AT_LEAST_0, "capacity_report_fraction": FRACTION,
          "cat_replication": AT_LEAST_1, "block_replication": AT_LEAST_1,
          "min_chunk_size": AT_LEAST_0, "max_chunk_size": POSITIVE}),
    Case("CapacityConfig", _constructor(CapacityConfig),
         {"node_count": 10, "low": 2 * GB},
         {"node_count": AT_LEAST_0, "mean": AT_LEAST_0, "std": AT_LEAST_0, "low": AT_LEAST_0,
          "high": (2 * GB, INF, "[)"), "minimum": AT_LEAST_0}),
    Case("FileTraceConfig", _constructor(FileTraceConfig), {"file_count": 10},
         {"file_count": AT_LEAST_0, "mean_size": POSITIVE, "std_size": AT_LEAST_0,
          "min_size": AT_LEAST_0}),
    Case("BulletConfig", _constructor(BulletConfig), {},
         {"total_packets": AT_LEAST_1, "ransub_fraction": FRACTION, "link_capacity": AT_LEAST_0,
          "peer_capacity": AT_LEAST_0, "download_capacity": AT_LEAST_1,
          "max_epochs": AT_LEAST_1}),
    Case("InsertionConfig", _constructor(InsertionConfig), {"node_count": 10, "file_count": 20},
         {"node_count": AT_LEAST_1, "capacity_mean": AT_LEAST_0, "capacity_std": AT_LEAST_0,
          "mean_file_size": POSITIVE, "std_file_size": AT_LEAST_0, "min_file_size": AT_LEAST_0,
          "file_count": AT_LEAST_1, "cfs_block_size": AT_LEAST_1, "past_retries": AT_LEAST_0,
          "zero_chunk_limit": AT_LEAST_0, "replication": AT_LEAST_1, "sample_points": AT_LEAST_1,
          "seed": AT_LEAST_0, "repetitions": AT_LEAST_1}),
    Case("CodingPerfConfig", _constructor(CodingPerfConfig), {},
         {"chunk_size": AT_LEAST_1, "blocks_per_chunk": AT_LEAST_1, "repetitions": AT_LEAST_1,
          "seed": AT_LEAST_0}),
    Case("CondorCaseStudyConfig", _one_element(CondorCaseStudyConfig, "file_sizes"),
         {"file_sizes": 1 * GB},
         {"file_sizes": AT_LEAST_0, "retries_per_block": AT_LEAST_0,
          "zero_chunk_limit": AT_LEAST_0, "seed": AT_LEAST_0}),
    Case("MulticastConfig", _one_element(MulticastConfig, "ransub_fractions"),
         {"ransub_fractions": 0.08},
         {"total_packets": AT_LEAST_1, "ransub_fractions": FRACTION, "link_capacity": AT_LEAST_0,
          "peer_capacity": AT_LEAST_0, "download_capacity": AT_LEAST_1, "max_epochs": AT_LEAST_1,
          "seed": AT_LEAST_0, "node_count": AT_LEAST_0, "replica_count": AT_LEAST_1}),
    Case("ReproduceConfig", _one_element(ReproduceConfig, "seeds"), {"seeds": 1},
         {"seeds": AT_LEAST_0}),
    Case("TransferCostModel", _constructor(TransferCostModel), {},
         {"bandwidth_bytes_per_s": POSITIVE, "lookup_seconds": AT_LEAST_0,
          "interposition_seconds": AT_LEAST_0, "per_transfer_latency": AT_LEAST_0}),
    Case("TransferScheduler", lambda: (lambda **kwargs: TransferScheduler(Simulator(), **kwargs),
                                       lambda: None),
         {"uplink": 1.0 * MB, "downlink": 1.0 * MB}, {"uplink": POSITIVE, "downlink": POSITIVE}),
    Case("TransferScheduler.submit", _on_session("transfers.submit"),
         {"size": 1 * MB, "timeout": 10.0, "weight": 1.0},
         {"size": AT_LEAST_0, "timeout": POSITIVE, "weight": POSITIVE}),
    Case("TransferScheduler.set_node_bandwidth", _on_session("transfers.set_node_bandwidth"),
         {"node_id": 1, "uplink": 1.0 * MB, "downlink": 1.0 * MB},
         {"uplink": AT_LEAST_0, "downlink": AT_LEAST_0}),
    Case("TransferScheduler.set_trunk_bandwidth", _on_session("transfers.set_trunk_bandwidth"),
         {"site": 0, "uplink": 1.0 * MB, "downlink": 1.0 * MB},
         {"uplink": AT_LEAST_0, "downlink": AT_LEAST_0}),
    Case("TransferScheduler.set_tenant_cap", _on_session("transfers.set_tenant_cap"),
         {"tenant": 0, "cap": 1.0 * MB}, {"cap": AT_LEAST_0}),
    Case("TransferScheduler.set_tenant_weight", _on_session("transfers.set_tenant_weight"),
         {"tenant": 0, "weight": 2.0}, {"weight": POSITIVE}),
    Case("TransferPacer", lambda: (lambda **kwargs: TransferPacer(
        TransferScheduler(Simulator()), **kwargs), lambda: None),
         {"max_in_flight": 4, "weight": 0.5}, {"max_in_flight": AT_LEAST_1, "weight": POSITIVE}),
    Case("FailureSchedule", _constructor(FailureSchedule, node_ids=range(10),
                                         rng=np.random.default_rng(0)),
         {"fraction": 0.2, "spacing": 1.0}, {"fraction": CLOSED_FRACTION, "spacing": POSITIVE}),
    Case("FaultInjector", lambda: (lambda **kwargs: ClusterSession(8).fault_injector(**kwargs),
                                   lambda: None),
         {"repair_spacing": 0.0}, {"repair_spacing": AT_LEAST_0}),
    Case("FaultInjector.flash_crowd", _on_session("injector.flash_crowd"),
         {"fraction": 0.1, "rng": random.Random(0)}, {"fraction": FRACTION}),
    Case("FaultInjector.rolling_restart", _on_session("injector.rolling_restart"),
         {"node_ids": (), "interval": 1.0, "downtime": 1.0},
         {"interval": AT_LEAST_0, "downtime": POSITIVE}),
    Case("FaultInjector.degrade_nodes", _on_session("injector.degrade_nodes"),
         {"node_ids": (), "fraction": 0.5}, {"fraction": AT_LEAST_0}),
    Case("FaultInjector.degrade_trunk", _on_session("injector.degrade_trunk"),
         {"site": 0, "fraction": 0.5}, {"fraction": AT_LEAST_0}),
)


OUTSIDE = [(case, parameter, value) for case in CASES for parameter in sorted(case.ranges)
           for value in _outside(*case.ranges[parameter])]


def test_the_known_good_arguments_are_accepted():
    """The table's baseline arguments pass, so a refusal is the bad value's doing."""
    for case in CASES:
        call, _ = case.make()
        call(**case.kwargs)


@pytest.mark.parametrize("case, parameter, value", OUTSIDE,
                         ids=[f"{case.label}-{parameter}={value!r}"
                              for case, parameter, value in OUTSIDE])
def test_a_value_outside_its_range_is_refused_before_anything_moves(case, parameter, value):
    call, snapshot = case.make()
    before = snapshot()
    with pytest.raises(ParameterError, match=rf"^{re.escape(parameter)} must be in "):
        call(**{**case.kwargs, parameter: value})
    assert snapshot() == before
