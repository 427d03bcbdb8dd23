"""Failure-domain fault injection: correlated outages as first-class events.

The paper's availability results (Fig 10, Table 3) are derived from
*independent* node failures, but a deployed archive dies in correlated
events: a rack loses power, a site drops off the network, a tenth of the
population reboots at once.  This module injects those events against the
discrete-event kernel of :mod:`repro.sim.engine`:

* every node carries a **failure domain** -- a ``site`` (machine room or
  campus) and a globally-unique ``rack`` id within it -- mirrored as int16
  columns alongside the owner column of the block ledger
  (:meth:`repro.core.block_ledger.BlockLedger.fail_domain`), so a whole-site
  or whole-rack outage kills every affected row with **one** owner-domain
  mask rather than N scalar per-node sweeps;
* the :class:`FaultInjector` composes scenarios -- domain outages,
  flash-crowd mass failure, staggered rolling restarts, slow/degraded
  nodes (bandwidth cut through
  :meth:`repro.core.transfer.TransferScheduler.set_node_bandwidth`) and
  degraded/partitioned core trunks (capacity cut through
  :meth:`~repro.core.transfer.TransferScheduler.set_trunk_bandwidth`; the
  scheduler owns every link capacity, the attached
  :class:`~repro.core.transfer.NetworkTopology` only names the trunks) --
  each a method a caller runs now or schedules on the simulator clock;
* when a :class:`~repro.core.recovery.RecoveryManager` is attached every
  outage is followed by the durability-grade repair pass (regeneration plus
  replica re-replication), and the injector reports per-event accounting
  (rows killed, bytes regenerated, data lost, time-to-repair).

End-state equivalence between the correlated mask and the scalar per-node
sequence is oracle-tested in ``tests/test_faults.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.overlay.network import OverlayNetwork
from repro.overlay.node import OverlayNode
from repro.overlay.validation import require_range
from repro.sim.engine import Simulator


def assign_domains(
    nodes: Iterable[OverlayNode], sites: int, racks_per_site: int
) -> None:
    """Lay a ``sites x racks_per_site`` failure-domain grid over a population.

    Nodes are striped round-robin across racks in id order, so domains are
    deterministic for a given population and -- crucially -- no random stream
    is consumed: the overlay build RNG draws stay byte-identical whether or
    not domains are assigned.  Rack ids are globally unique
    (``site * racks_per_site + rack``), matching the convention of
    :attr:`repro.overlay.node.OverlayNode.rack`.
    """
    require_range("sites", sites, 1)
    require_range("racks_per_site", racks_per_site, 1)
    ordered = sorted(nodes, key=lambda node: node.node_id)
    total_racks = sites * racks_per_site
    for index, node in enumerate(ordered):
        global_rack = index % total_racks
        node.site = global_rack // racks_per_site
        node.rack = global_rack


@dataclass
class FaultEvent:
    """Accounting for one injected fault scenario."""

    scenario: str
    at: float
    nodes_affected: int
    #: Ledger rows killed by the correlated mask (0 without a ledger, or for
    #: scenarios that do not kill rows, e.g. a bandwidth degradation).
    rows_killed: int = 0
    bytes_regenerated: int = 0
    replicas_restored: int = 0
    data_bytes_lost: int = 0
    chunks_lost: int = 0
    repair_traffic_bytes: int = 0
    #: Longest time-to-repair among the event's repair passes (None when
    #: repair ran instantaneously or was disabled).
    time_to_repair: Optional[float] = None
    details: dict = field(default_factory=dict)


class FaultInjector:
    """Schedules composable correlated-failure scenarios against a deployment.

    Parameters
    ----------
    sim:
        The discrete-event clock scenarios are scheduled on.
    network:
        The overlay population the faults act on.
    dht:
        Optional DHT view; failed nodes are removed from it (restarted nodes
        re-join).  When a recovery manager is attached its own DHT is used.
    recovery:
        Optional :class:`~repro.core.recovery.RecoveryManager`; when present
        every outage is followed by the repair pass and the event records the
        repair accounting.
    ledger:
        Optional :class:`~repro.core.block_ledger.BlockLedger` (or the
        storage's ledger when a recovery manager is attached).  Domain
        outages kill its rows with one mask.
    transfers:
        Optional :class:`~repro.core.transfer.TransferScheduler` for the
        slow-node and trunk scenarios.
    repair_spacing:
        Simulated seconds between consecutive per-node repair passes after a
        correlated outage.  0 (the default) repairs every member synchronously
        at injection time; a positive spacing staggers the passes on the sim
        clock -- every member is already down before the first pass runs, so
        the correlated end state is unchanged, but in-flight repair transfers
        stay bounded by the spacing instead of all contending at once (at
        10 000-node scale an unstaggered site outage would put ~10^5 flows on
        the fair-share scheduler simultaneously).
    """

    def __init__(
        self,
        sim: Simulator,
        network: OverlayNetwork,
        dht=None,
        recovery=None,
        ledger=None,
        transfers=None,
        repair_spacing: float = 0.0,
    ) -> None:
        self.repair_spacing = require_range("repair_spacing", repair_spacing, 0)
        self.sim = sim
        self.network = network
        self.recovery = recovery
        if recovery is not None:
            dht = dht if dht is not None else recovery.dht
            if ledger is None:
                ledger = recovery.storage.ledger
        self.dht = dht
        self.ledger = ledger
        self.transfers = transfers
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------- primitives --
    def _repair_one(self, node: OverlayNode, event: FaultEvent) -> None:
        """One member's repair pass, folded into the event's accounting."""
        impact = self.recovery.handle_failure(node.node_id)
        event.bytes_regenerated += impact.bytes_regenerated
        event.replicas_restored += impact.replicas_restored
        event.data_bytes_lost += impact.data_bytes_lost
        event.chunks_lost += impact.chunks_lost
        event.repair_traffic_bytes += impact.repair_traffic_bytes
        ttr = impact.time_to_repair
        if ttr is not None:
            worst = event.time_to_repair
            event.time_to_repair = ttr if worst is None else max(worst, ttr)

    def _repair(self, members: Sequence[OverlayNode], event: FaultEvent) -> None:
        """Run the repair pass for every member and fold in its accounting.

        With a positive ``repair_spacing`` the passes are staggered on the
        sim clock (run the simulator to drain them); every member is already
        down, so the staggering never changes the repaired end state.
        """
        if self.recovery is None:
            for node in members:
                if self.dht is not None:
                    self.dht.remove(node.node_id)
            return
        if self.repair_spacing <= 0:
            for node in members:
                self._repair_one(node, event)
            return
        for index, node in enumerate(members):
            self.sim.schedule(
                index * self.repair_spacing,
                lambda node=node: self._repair_one(node, event),
            )

    def _fail_correlated(
        self, members: Sequence[OverlayNode], scenario: str, repair: bool, details: dict
    ) -> FaultEvent:
        """Down every member *simultaneously*, then (optionally) repair.

        All nodes drop before any repair runs -- the defining property of a
        correlated outage: no repair pass can read from, or place blocks on,
        a fellow casualty.  With a ledger attached the rows die in one
        owner-domain mask (:meth:`BlockLedger.fail_domain`) when the scenario
        provides one, otherwise through the per-node listener sweeps.
        """
        event = FaultEvent(
            scenario=scenario,
            at=self.sim.now,
            nodes_affected=len(members),
            details=details,
        )
        for node in members:
            if node.alive:
                self.network.fail(node.node_id)
        if repair:
            self._repair(members, event)
        elif self.dht is not None:
            for node in members:
                self.dht.remove(node.node_id)
        self.events.append(event)
        return event

    # -------------------------------------------------------- domain outages --
    def _domain_members(
        self, site: Optional[int], rack: Optional[int]
    ) -> List[OverlayNode]:
        if site is None and rack is None:
            raise ValueError("specify a site and/or a rack")
        return [
            node
            for node in self.network.nodes()
            if node.alive
            and (site is None or node.site == site)
            and (rack is None or node.rack == rack)
        ]

    def fail_domain(
        self, site: Optional[int] = None, rack: Optional[int] = None, repair: bool = True
    ) -> FaultEvent:
        """Whole-site or whole-rack outage: one correlated owner-domain mask.

        With a ledger attached every affected row is killed by a single
        vectorized mask over the int16 domain columns *before* the overlay
        transitions run (whose per-node listener sweeps then find nothing
        left to kill).  The repair passes observe the full outage -- exactly
        the semantics of N scalar failures applied atomically.
        """
        members = self._domain_members(site, rack)
        rows = 0
        if self.ledger is not None and members:
            rows = self.ledger.fail_domain(site=site, rack=rack)
        event = self._fail_correlated(
            members,
            scenario="site_outage" if rack is None else "rack_outage",
            repair=repair,
            details={"site": site, "rack": rack},
        )
        event.rows_killed = rows
        return event

    # ----------------------------------------------------------- flash crowd --
    def flash_crowd(
        self,
        fraction: float = 0.10,
        rng: Optional[random.Random] = None,
        repair: bool = True,
    ) -> FaultEvent:
        """Mass simultaneous failure of a population fraction (default 10%).

        The count is rounded up, so with ``repair=True`` a fraction that
        reaches the whole live population is refused before anyone is downed.
        """
        require_range("fraction", fraction, 0.0, 1.0, "(]")
        live = sorted(self.network.live_nodes(), key=lambda node: node.node_id)
        count = max(1, math.ceil(len(live) * fraction)) if live else 0
        if repair and live and count == len(live):
            raise ValueError(f"a repairing flash crowd cannot down all {count} live nodes: "
                             "no survivor would be left to repair onto")
        if rng is not None:
            members = rng.sample(live, count)
        else:
            # Deterministic stride across the id space when no RNG is given.
            stride = max(1, len(live) // count) if count else 1
            members = live[::stride][:count]
        event = self._fail_correlated(
            members, scenario="flash_crowd", repair=repair, details={"fraction": fraction}
        )
        return event

    # ------------------------------------------------------- rolling restart --
    def rolling_restart(
        self,
        node_ids: Sequence,
        interval: float,
        downtime: float,
        wipe: bool = False,
        repair: bool = False,
    ) -> List[FaultEvent]:
        """Staggered restarts: node *i* fails at ``i * interval``, returns
        ``downtime`` later.

        With ``wipe=False`` (a reboot, not a disk loss) the node returns with
        its blocks intact -- an attached ledger revives the rows -- so the
        default skips the repair pass; ``repair=True`` models an operator
        re-protecting data during long restarts.
        """
        require_range("interval", interval, 0)  # before anything is scheduled
        require_range("downtime", downtime, 0, ends="()")
        nodes = [self.network.node(node_id) for node_id in node_ids]
        events: List[FaultEvent] = []
        for index, node in enumerate(nodes):

            def down(node=node) -> None:
                event = self._fail_correlated(
                    [node], scenario="rolling_restart", repair=repair,
                    details={"wipe": wipe},
                )
                events.append(event)

            def up(node=node) -> None:
                self.network.recover(node.node_id, wipe=wipe)
                if self.dht is not None:
                    self.dht.add(node)

            self.sim.schedule(index * interval, down)
            self.sim.schedule(index * interval + downtime, up)
        return events

    # ------------------------------------------------------- link degradation --
    def _scale_links(
        self, fraction: float, node_id=None, site: Optional[int] = None, rack: Optional[int] = None
    ):
        """Scale one node's access links, or one domain's trunk, in both
        directions to ``fraction`` of the scheduler's current capacities
        (unconstrained stays unconstrained); returns the ``(uplink, downlink)``
        before."""
        before = self.transfers.link_capacities(node_id, site=site, rack=rack)
        uplink, downlink = (None if value is None else value * fraction for value in before)
        if node_id is None:
            self.transfers.set_trunk_bandwidth(site=site, rack=rack, uplink=uplink, downlink=downlink)
        else:
            self.transfers.set_node_bandwidth(node_id, uplink, downlink)
        return before

    def degrade_nodes(self, node_ids: Sequence, fraction: float) -> FaultEvent:
        """Cut the nodes' bandwidth to ``fraction`` of the current value.

        Requires a transfer scheduler.  ``fraction=0`` kills the links, which
        deterministically fails the node's in-flight transfers (and triggers
        the repair pipeline's retry-with-re-plan); fractions in between model
        slow or overloaded participants.
        """
        if self.transfers is None:
            raise ValueError("degrade_nodes requires a transfer scheduler")
        require_range("fraction", fraction, 0)
        for node_id in node_ids:
            self._scale_links(fraction, node_id)
        event = FaultEvent(
            scenario="degraded_nodes",
            at=self.sim.now,
            nodes_affected=len(node_ids),
            details={"fraction": fraction},
        )
        self.events.append(event)
        return event

    # ---------------------------------------------------------- trunk faults --
    def degrade_trunk(
        self,
        site: Optional[int] = None,
        rack: Optional[int] = None,
        fraction: float = 0.0,
    ) -> FaultEvent:
        """Degrade (or partition) one domain's shared trunk to ``fraction``.

        Requires a transfer scheduler with an attached
        :class:`~repro.core.transfer.NetworkTopology`.  The domain's trunk
        capacities (both directions) are scaled to ``fraction`` of the
        scheduler's *current* value through
        :meth:`~repro.core.transfer.TransferScheduler.set_trunk_bandwidth`;
        ``fraction=0`` partitions the domain off the core, which
        deterministically fails every in-flight transfer crossing the trunk
        (repair transfers then retry re-planned onto surviving paths).  The
        event records the old capacities (``uplink_before`` /
        ``downlink_before``), which is what undoing the fault through
        ``set_trunk_bandwidth`` needs.
        """
        if self.transfers is None or self.transfers.topology is None:
            raise ValueError("degrade_trunk requires a scheduler with a topology")
        require_range("fraction", fraction, 0)
        uplink, downlink = self._scale_links(fraction, site=site, rack=rack)
        event = FaultEvent(
            scenario="trunk_partition" if fraction == 0 else "degraded_trunk",
            at=self.sim.now,
            nodes_affected=len(self._domain_members(site, rack)),
            details={
                "site": site,
                "rack": rack,
                "fraction": fraction,
                "uplink_before": uplink,
                "downlink_before": downlink,
            },
        )
        self.events.append(event)
        return event
