"""The client facade: one place that owns overlay + ledger + fabric wiring.

A deployment is one block of wiring -- generate capacities, build the overlay,
assign failure domains, make a ``DHTView``, share a ``BlockLedger``, construct
one ``StorageSystem`` per tenant, build a ``Simulator`` + ``TransferScheduler``
over an oversubscribed topology, and thread ``attach_transfers`` through every
call site.  :class:`ClusterSession` owns that wiring once and
:class:`ArchiveClient` is the per-tenant handle on top; every experiment that
stores into one cluster builds it here (through
:func:`repro.experiments.base.deploy`).  Three experiment modules still build
their own population because they are not one cluster with clients:
``storage_insertion`` (three populations under per-replication stream labels
feeding the PAST and CFS baseline stores), ``routing`` and
``multicast_replicas`` (bare overlays, no storage)::

    session = ClusterSession(10_000, seed=7, sites=4, racks_per_site=4,
                             bandwidth_mb_s=8.0, oversubscription=4.0)
    archive = session.client(tenant="archive")
    archive.store("scan-0001", 64 * 1024 * 1024)
    archive.attach()                    # charge future traffic to the fabric
    session.run()
    result = archive.retrieve("scan-0001")

The keyword surface underneath (``StorageSystem(..., ledger=, tenant=)``,
``attach_transfers(scheduler, client=, observer=)``) remains the supported
low-level API -- the facade builds on it and
``tests/test_api.py`` pins that both wirings are placement- and
RNG-identical (same ``RandomStreams`` labels, same construction order).

A numeric argument outside its range -- NaN and infinity included -- raises
:class:`ParameterError`, a ``ValueError`` from :mod:`repro.overlay.validation`
whose message names the parameter, before anything is built or charged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.block_ledger import BlockLedger
from repro.core.cache import CacheManager
from repro.core.recovery import RecoveryManager
from repro.core.storage import _UNSET, RetrieveResult, StorageSystem
from repro.core.transfer import TransferScheduler, oversubscribed_topology
from repro.overlay.dht import DHTView
from repro.overlay.network import OverlayNetwork
from repro.overlay.node import StoreResult
from repro.overlay.validation import ParameterError, require_range
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, assign_domains
from repro.sim.rng import RandomStreams
from repro.workloads.capacity import CapacityConfig, generate_capacities
from repro.workloads.filetrace import MB

__all__ = ["ArchiveClient", "ClusterSession", "ParameterError"]


def _reject(arguments: Dict[str, object], reason: str) -> None:
    """Raise for an argument that was passed but would be silently dropped."""
    for name, value in arguments.items():
        if value is not None:
            raise ValueError(f"{name}= {reason}")


class ClusterSession:
    """One deployed archive cluster: overlay, ledger, clock, transfer fabric.

    Building a session consumes RNG streams with the same labels and in the
    same order as the hand-rolled experiment wiring (``"capacities"`` then
    ``"overlay"``), so a session-built deployment is bit-identical to the
    manual one.  Pass an already-built ``network`` (or use :meth:`adopt`)
    to wrap existing overlays without consuming any randomness.  An ``rng``
    given for the overlay build must be a ``numpy.random.Generator`` over
    PCG64, PCG64DXSM, Philox or SFC64 (see :meth:`OverlayNetwork.build`);
    any other generator, a legacy ``RandomState`` included, raises
    :class:`TypeError`.
    """

    def __init__(
        self,
        node_count: Optional[int] = None,
        *,
        seed: int = 0,
        streams: Optional[RandomStreams] = None,
        rng: Optional[np.random.Generator] = None,
        network: Optional[OverlayNetwork] = None,
        capacities=None,
        capacity_config: Optional[CapacityConfig] = None,
        sites: Optional[int] = None,
        racks_per_site: int = 1,
        bandwidth_mb_s: Optional[float] = None,
        oversubscription: Optional[float] = None,
        latency: Optional[Dict[str, float]] = None,
        leaf_set_half_size: int = 8,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.streams = streams or RandomStreams(seed)
        if bandwidth_mb_s is None:
            _reject({"oversubscription": oversubscription, "latency": latency},
                    "needs bandwidth_mb_s= (no transfer fabric is built without it)")
        else:
            require_range("bandwidth_mb_s", bandwidth_mb_s, 0, ends="()")
        if oversubscription is not None:
            require_range("oversubscription", oversubscription, 1.0)
        if network is not None:
            _reject({"capacities": capacities, "capacity_config": capacity_config,
                     "sites": sites},
                    "does not apply to an adopted network= (nothing is built)")
        if network is None:
            if node_count is None:
                raise ValueError("either node_count or an existing network is required")
            require_range("node_count", node_count, 1)
            if capacities is None and capacity_config is not None:
                if capacity_config.node_count != node_count:
                    capacity_config = replace(capacity_config, node_count=node_count)
                capacities = generate_capacities(
                    capacity_config, rng=self.streams.fresh("capacities")
                )
            network = OverlayNetwork.build(
                node_count,
                rng=rng if rng is not None else self.streams.fresh("overlay"),
                capacities=list(capacities) if capacities is not None else None,
                leaf_set_half_size=leaf_set_half_size,
            )
            if sites is not None:
                assign_domains(network.nodes(), sites=sites,
                               racks_per_site=racks_per_site)
        self.network = network
        self.dht = DHTView(network)
        #: One shared multi-tenant ledger for every client of this session.
        self.ledger = BlockLedger(network)
        self.sim = sim or Simulator()
        self.transfers: Optional[TransferScheduler] = None
        if bandwidth_mb_s is not None:
            rate = bandwidth_mb_s * MB
            topology = None
            if oversubscription is not None:
                topology = oversubscribed_topology(
                    network.nodes(),
                    access_bandwidth=rate,
                    oversubscription=oversubscription,
                    **(latency or {}),
                )
            self.transfers = TransferScheduler(self.sim, uplink=rate,
                                               downlink=rate, topology=topology)
        self._clients: Dict[Optional[str], "ArchiveClient"] = {}
        self._routers: Dict[str, object] = {}

    @classmethod
    def adopt(cls, network: OverlayNetwork, **kwargs) -> "ClusterSession":
        """Wrap an overlay built elsewhere (consumes no randomness)."""
        return cls(network=network, **kwargs)

    # ---------------------------------------------------------------- clients --
    def client(
        self,
        tenant: Optional[str] = None,
        *,
        codec=None,
        policy=None,
        payload_mode: bool = False,
    ) -> "ArchiveClient":
        """A per-tenant storage client on this session's shared deployment.

        Each tenant name may be claimed once per session (the tenant scopes
        a namespace on the shared ledger); ``tenant=None`` is the single
        untagged client.
        """
        if tenant in self._clients:
            raise ValueError(
                f"tenant {tenant!r} already has a client on this session"
            )
        storage = StorageSystem(
            self.dht,
            codec=codec,
            policy=policy,
            payload_mode=payload_mode,
            ledger=self.ledger,
            tenant=tenant,
        )
        handle = ArchiveClient(self, storage, tenant=tenant)
        self._clients[tenant] = handle
        return handle

    def clients(self) -> List["ArchiveClient"]:
        """Every client created on this session, in creation order."""
        return list(self._clients.values())

    # ---------------------------------------------------------------- services --
    def recovery(self, client, **kwargs) -> RecoveryManager:
        """A repair manager for one client's store, on this session's fabric."""
        storage = client.storage if isinstance(client, ArchiveClient) else client
        if self.transfers is not None:
            kwargs.setdefault("transfers", self.transfers)
        return RecoveryManager(storage, **kwargs)

    def fault_injector(self, recovery: Optional[RecoveryManager] = None,
                       repair_spacing: float = 0.0, **kwargs) -> FaultInjector:
        """A fault injector over this session's clock, overlay and fabric."""
        return FaultInjector(self.sim, self.network, recovery=recovery,
                             transfers=self.transfers,
                             repair_spacing=repair_spacing, **kwargs)

    # ------------------------------------------------------------------- clock --
    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue (optionally up to simulated time ``until``)."""
        self.sim.run(until=until)

    # ----------------------------------------------------------------- routing --
    def routing(self, engine: str = "pastry", **kwargs):
        """An array routing engine over this session's overlay (cached per name).

        The first call for a given engine name builds the engine from the
        live population and registers it as a churn listener on the network
        (so joins/leaves/failures keep its tables patched); later calls
        return the cached instance.  Route on the engine itself
        (``route`` / ``route_many``).
        """
        cached = self._routers.get(engine)
        if cached is not None:
            if kwargs:
                raise ValueError(
                    f"router {engine!r} already built for this session; "
                    "engine options only apply to the first call"
                )
            return cached
        router = self.network.attach_router(engine, **kwargs)
        self._routers[engine] = router
        return router

    # ----------------------------------------------------------------- helpers --
    def gateways(self, count: int) -> List[int]:
        """``count`` live node ids, evenly strided over the sorted population.

        The serving engine uses these as its front-end client nodes; the
        even stride keeps them deterministic and spread across the id space
        (and therefore across failure domains under round-robin placement).
        """
        live = sorted(node.node_id for node in self.network.live_nodes())
        if not live:
            return []
        count = min(count, len(live))
        stride = len(live) / count
        return [live[int(index * stride)] for index in range(count)]

    def utilization(self) -> float:
        """Fraction of contributed capacity currently used."""
        return self.dht.utilization()


class ArchiveClient:
    """One tenant's handle on a :class:`ClusterSession` deployment."""

    def __init__(self, session: ClusterSession, storage: StorageSystem,
                 tenant: Optional[str] = None) -> None:
        self.session = session
        self.storage = storage
        self._tenant = tenant

    # ------------------------------------------------------------------ fabric --
    def attach(self, client: Optional[int] = None, observer=None) -> None:
        """Charge this client's data movement to the session's fabric."""
        if self.session.transfers is None:
            raise RuntimeError(
                "this session has no transfer fabric (pass bandwidth_mb_s)"
            )
        self.storage.attach_transfers(self.session.transfers, client=client,
                                      observer=observer)

    def attach_cache(self, cache) -> CacheManager:
        """Attach a per-client-node block cache (a manager or a byte budget)."""
        if not isinstance(cache, CacheManager):
            cache = CacheManager(int(cache))
        self.storage.attach_cache(cache)
        return cache

    # -------------------------------------------------------------------- data --
    def store(self, filename: str, size: Optional[int] = None,
              data: Optional[bytes] = None, *,
              client=_UNSET, observer=_UNSET) -> StoreResult:
        """Store one file: ``size`` in capacity mode, ``data`` in payload mode."""
        if data is not None:
            return self.storage.store_bytes(filename, data,
                                            client=client, observer=observer)
        if size is None:
            raise ValueError("store() needs either size= or data=")
        return self.storage.store_file(filename, size,
                                       client=client, observer=observer)

    def retrieve(self, filename: str, offset: Optional[int] = None,
                 length: Optional[int] = None, *,
                 client=_UNSET, observer=_UNSET) -> RetrieveResult:
        """Retrieve a whole file, or a byte range when ``offset`` is given."""
        if offset is None and length is None:
            return self.storage.retrieve_file(filename,
                                              client=client, observer=observer)
        if offset is None or length is None:
            raise ValueError("range retrieval needs both offset= and length=")
        return self.storage.retrieve_range(filename, offset, length,
                                           client=client, observer=observer)

    def delete(self, filename: str) -> bool:
        """Remove a file, releasing every block, replica and CAT copy."""
        return self.storage.delete_file(filename)

    def available(self, filename: str) -> bool:
        """Whether every chunk of the file can still be recovered."""
        return self.storage.is_file_available(filename)

    # -------------------------------------------------------------- accounting --
    def aggregates(self) -> Dict[str, float]:
        """This tenant's five ledger counters (the whole ledger's when untagged)."""
        return self.storage.ledger.tenant_aggregates(self.storage.store_tenant)

    @property
    def tenant(self) -> Optional[str]:
        """The tenant name this client stores under (``None`` when untagged)."""
        return self._tenant

    @property
    def file_count(self) -> int:
        """Number of files this client currently stores."""
        return self.storage.file_count
