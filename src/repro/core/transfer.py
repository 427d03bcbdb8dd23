"""Bandwidth-aware data movement: a deterministic fair-share transfer scheduler.

The paper's recovery evaluation charges "a recovery delay proportional to the
amount of data that has to be regenerated" (Section 6.2) but never models the
*links* that data crosses.  This module supplies the missing layer: every
participant gets an uplink and a downlink capacity (bytes per unit of
simulated time), and moving ``B`` bytes between two participants becomes a
:class:`Transfer` whose completion time emerges from how the contended links
are shared.

Two-stage network model
-----------------------
A real archive's recovery storm does not die at the access links -- it dies in
the oversubscribed core.  With a :class:`NetworkTopology` attached, every
transfer traverses up to three stages, keyed off the failure-domain grid
(:attr:`repro.overlay.node.OverlayNode.site` / ``rack``):

1. the source's **access uplink** (per-node, as before);
2. zero or more shared **trunk links**: the source rack's aggregation uplink,
   the source site's transit uplink, the destination site's transit downlink
   and the destination rack's aggregation downlink -- intra-rack transfers
   cross no trunk, intra-site transfers cross only the two rack aggregation
   trunks, inter-site transfers cross all four;
3. the destination's **access downlink**.

Max-min fair share is computed over *all* constrained links of every active
flow, so a 4:1-oversubscribed site trunk, not the per-node links, sets the
saturation point under correlated load.  Each transfer is also assigned a
**latency class** (``intra_rack`` / ``intra_site`` / ``inter_site``): the
class's propagation latency delays the flow's activation, during which it
consumes no bandwidth.  A trunk capacity of ``None`` means the stage is
unconstrained and a latency of ``0`` removes the activation delay -- with
unbounded trunks and a single zero-latency class the schedule is
*bit-identical* to the access-only model (the infinite-core oracle in
``tests/test_topology.py``).

Fair-share model (weighted progressive filling)
-----------------------------------------------
At any instant the set of active transfers is assigned rates by *progressive
filling* (weighted max-min fairness over a fluid-flow network, Bertsekas &
Gallager):

1. every transfer starts unfrozen with rate 0; every finite link starts with
   its full capacity;
2. the link whose fill level ``capacity / unfrozen_weight`` is smallest is
   the bottleneck: all its unfrozen flows are frozen at ``level x weight``,
   and each frozen rate is subtracted from the capacity of every other link
   the flow crosses;
3. repeat until every flow is frozen (flows crossing no finite link get an
   infinite rate, i.e. complete in zero simulated time).

Weights are the priority-class mechanism: a repair flow of weight ``w < 1``
contending with a weight-1 foreground flow on a shared link is held to
``w/(1+w)`` of it, so re-replication storms cannot starve foreground
store/retrieve traffic.  All-equal weights reduce to the plain max-min model
with byte-identical arithmetic.

Per-tenant QoS isolation
------------------------
Every transfer may carry an optional integer ``tenant`` tag (the
:class:`~repro.core.block_ledger.BlockLedger` tenant id of the store it
serves).  Two isolation mechanisms layer on the weighted filling:

* **per-tenant fair-share weights** (:meth:`TransferScheduler.set_tenant_weight`):
  a tenant's flows share one weight class -- the tenant weight multiplies into
  each flow's own weight at submission time, so a weight-0.25 tenant's storm
  is held to a quarter-share on every contended link;
* **hard per-tenant bandwidth caps** (:meth:`TransferScheduler.set_tenant_cap`):
  a capped tenant's flows all cross one *virtual tenant link* ``(6, tenant)``
  of that capacity in the progressive filling, so the tenant's aggregate rate
  can never exceed the cap even on an otherwise idle fabric (a cap of ``0``
  blackholes the tenant with the usual deterministic failure semantics).

Per-tenant byte/backlog accounting is surfaced by
:meth:`TransferScheduler.tenant_summary`.  The load-bearing oracle
(``tests/test_tenant_qos.py``): with every tenant at weight 1.0 and no caps,
tagged scheduling is *bit-identical* -- schedule, byte counts, end state -- to
the untagged scheduler, because the tenant weight only multiplies in when it
differs from 1.0 and the virtual link only enters the constraint graph when a
finite cap exists.

Change-driven reallocation
--------------------------
The filling is the pure function :func:`allocate` (capacities, link members,
flow links and weights in, rates out: no clock, no topology lookups), fed from
state the scheduler *keeps* instead of rebuilding per event:

* a **persistent constraint graph** of the active set: the active flows and
  every link's members in submission order (activations arrive out of that
  order, hence bisect-inserted), each flow's resolved link tuple, and each
  member link's finite capacity (re-resolved by the capacity setters);
* an **allocation epoch**: adding or dropping an active flow, a capacity or cap
  setter and a moved :attr:`NetworkTopology.version` mark the allocation stale,
  and only a stale allocation is refilled -- a submission that merely enters
  its latency window, or a timer that finishes nothing, fills nothing;
* **same-instant folding**: of several latency windows ending at one simulated
  instant only the last activation fills; rates are a function of the active
  set and no bytes move in zero time, so the schedule cannot tell.

A fill, in turn, covers only what can change.  **Slack links**: a finite trunk
or tenant-cap link ``l`` is left out of the filling while ``capacity_l >
(1 + delta) x W_l x max_f(c_f / w_f)`` over its members ``f`` -- ``W_l`` their
weight sum, ``c_f`` the tightest finite *access* capacity of ``f`` (``inf``
without one: nothing such a flow crosses is ever slack; access links are never
elided, they define the bound).  This is exact, not approximate:

1. a flow freezes at the popped minimum level, which is at most the level of
   its own access link, itself at most ``c_f / w_f`` while ``f`` is unfrozen;
2. so ``l``'s level ``residual / unfrozen`` never drops below ``capacity_l /
   W_l`` -- above every member's bound -- as its members freeze;
3. so ``l`` is never the popped minimum while it has an unfrozen member, and
   ``allocate`` without it pops, freezes and subtracts exactly the same.

The status depends on the link's own members and capacity only: it is cached
and re-derived when the link gains or loses a member (every one of them by a
capacity setter or a moved topology version).  **Bottleneck components**: rates
are a function of a flow's connected component over the *binding* (finite,
non-slack) links, so a stale allocation refills the components of (i) the
members of every link that changed membership and was binding before *or* is
binding after the change -- a trunk a departure turned slack still set its
remaining members' rates -- and (ii) every freshly activated flow, which may
cross no binding link at all.  A full fill is the same routine with every flow
marked; a saturated trunk merges its members into one component by itself.

Every event still runs ``_advance`` (transfers progress linearly at their
current rates) and ``_reschedule`` (the one completion timer is cancelled and
re-armed): ``remaining`` and the timer's absolute time carry a float history
that skipping either would change in the last digits.  Inside ``allocate`` a
heap entry is a *lower bound* on its link's ``(level, key)``: a level all but
never falls while other links freeze the link's flows, so an entry is
re-evaluated when popped and a fresh one pushed only on a (rounding) decrease,
which keeps the popped minimum exactly the smallest current level.
``summary()`` counts ``reallocations`` (fills performed) and ``flows_filled``
(flows whose rate a fill recomputed: the components' sizes, not the active
set's); the rebuild-per-event scheduler survives in ``tests/reference`` as the
bit-identity oracle.

Determinism guarantees
----------------------
The schedule is a pure function of the submission sequence:

* transfers are totally ordered by their submission sequence number, and
  every iteration order (active set, link membership, freeze order) follows
  it;
* bottleneck ties are broken by the link key ``(stage, id)``, never by hash
  or insertion order of a set;
* no wall clock and no RNG: two runs that submit the same transfers at the
  same simulated times produce identical rates, identical completion times
  and identical per-node and per-trunk byte accounting;
* completion uses an absolute residual tolerance (:data:`REMAINING_TOLERANCE`
  bytes, far below any block size) so float rounding can neither stall a
  transfer nor complete it early by an observable amount.

``bandwidth=None`` (either globally or per node/direction) means an
unconstrained link; a transfer crossing only unconstrained links completes in
zero simulated time.  The recovery pipeline never constructs a scheduler at
all in its instantaneous mode, which is how the ``bandwidth=None`` paths stay
bit-identical to the seed implementation.

Failure semantics
-----------------
A link capacity of exactly ``0`` models a *dead* stage: a per-node link via
:meth:`TransferScheduler.set_node_bandwidth` (a dead endpoint), a trunk via
:meth:`TransferScheduler.set_trunk_bandwidth` (a partitioned rack or site).
Submitting a transfer across a dead link fails it deterministically --
``on_failed`` fires through the event queue at the submission's simulated
time -- instead of parking it forever on the starved-flow path.  Killing a
link mid-flight fails every active transfer crossing it, in submission order,
and re-shares the freed capacity among the survivors; a transfer still inside
its latency window is failed at activation time.  Transfers may also carry a
relative ``timeout``; expiry fails the transfer the same way.  Failed
transfers refund their undelivered bytes from the per-node and per-trunk
counters, so ``bytes_out``/``bytes_in``/``trunk_bytes`` always report bytes
actually charged to a link.

Admission control
-----------------
:class:`TransferPacer` sits in front of the scheduler for one traffic class:
it admits at most ``max_in_flight`` transfers at a time and parks the rest in
a FIFO backlog (queue, don't drop), draining as completions free window
slots.  This is the recovery-storm survival mechanism: a whole-site outage
stages tens of thousands of repair flows, and the pacer bounds how many
contend on the fair-share model at once while ``peak_queue_depth`` records
how deep the storm backlog ran.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator

#: Residual bytes below which a transfer counts as complete (see module docs).
REMAINING_TOLERANCE = 1e-3

#: Residual fair-share weight below which a link counts as fully frozen.
_WEIGHT_TOLERANCE = 1e-9

#: A shared link is *slack* when its capacity exceeds ``_SLACK_MARGIN`` x its
#: members' weight sum x their largest access bound (module docs).  The sum is
#: the incrementally kept ``_link_load``, not the member-order sum ``allocate``
#: takes, and levels inside a fill drift by rounding: both err by about one
#: ulp per member added, dropped or frozen (~1e-16 relative each, ~1e-11 over
#: a 100 k-flow run on a trunk that never empties), so 1e-6 leaves five
#: orders of margin and costs nothing -- a trunk that close to binding is
#: simply filled.
_SLACK_MARGIN = 1.0 + 1e-6

#: Link-key stage tags.  Access links (uplink of the source, downlink of the
#: destination) keep the seed values so link-key tie-breaks are unchanged;
#: trunk stages sort after them, and the virtual per-tenant cap links sort
#: after every physical stage.
_UP = 0
_DOWN = 1
_RACK_UP = 2
_RACK_DOWN = 3
_SITE_UP = 4
_SITE_DOWN = 5
_TENANT = 6

_STAGE_NAMES = {
    _UP: "uplink",
    _DOWN: "downlink",
    _RACK_UP: "rack:up",
    _RACK_DOWN: "rack:down",
    _SITE_UP: "site:up",
    _SITE_DOWN: "site:down",
    _TENANT: "tenant",
}

#: The latency classes of the two-stage model, nearest first.
LATENCY_CLASSES = ("intra_rack", "intra_site", "inter_site")

#: One tenant's accounting row before it has moved anything.
_NO_TENANT_STATS = {
    "submitted": 0.0, "completed": 0.0, "failed": 0.0, "bytes_submitted": 0.0,
    "bytes_completed": 0.0, "bytes_failed": 0.0, "last_completion_time": 0.0,
}

#: Sentinel for "leave this capacity unchanged" (``None`` means unconstrained,
#: so it cannot double as the no-op default -- see set_node_bandwidth).
_KEEP = object()

#: A link of the constraint graph: ``(stage tag, node / rack / site / tenant id)``.
LinkKey = Tuple[int, int]


def _validate_capacity(value: Optional[float], what: str, allow_zero: bool) -> None:
    if value is None:
        return
    if not value >= 0 or (value == 0 and not allow_zero):  # NaN is not >= 0
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{what} capacity must be {bound} (or None): {value!r}")


class NetworkTopology:
    """Failure-domain topology: rack/site trunk capacities and latency classes.

    Maps node ids to the site/rack grid laid down by
    :func:`repro.sim.faults.assign_domains` and derives, per transfer, the
    shared trunk links its path crosses and its propagation latency class.
    Capacities are bytes per simulated time unit; ``None`` = unconstrained
    (the default -- an unconfigured topology adds no constraints at all).

    Trunk capacities have class-wide defaults (``rack_uplink`` et al.) plus
    per-domain overrides (:meth:`set_rack_trunk` / :meth:`set_site_trunk`);
    an override of exactly ``0`` models a partitioned trunk.  When the
    topology is attached to a live :class:`TransferScheduler`, change trunk
    capacities through :meth:`TransferScheduler.set_trunk_bandwidth` so
    in-flight transfers are re-shared at once and those crossing a dead trunk
    fail (a direct change is only re-shared, at the scheduler's next event).

    An endpoint outside the grid (``site``/``rack`` of ``-1``, or a ``None``
    node id such as a meta restore's unmodelled source) counts as "the
    network at large": its transfers reach the known endpoint through that
    endpoint's rack and site trunks at inter-site latency.
    """

    def __init__(
        self,
        rack_uplink: Optional[float] = None,
        rack_downlink: Optional[float] = None,
        site_uplink: Optional[float] = None,
        site_downlink: Optional[float] = None,
        intra_rack_latency: float = 0.0,
        intra_site_latency: float = 0.0,
        inter_site_latency: float = 0.0,
    ) -> None:
        for value, what in ((rack_uplink, "rack trunk uplink"), (rack_downlink, "rack trunk downlink"),
                            (site_uplink, "site trunk uplink"), (site_downlink, "site trunk downlink")):
            _validate_capacity(value, what, allow_zero=False)
        latencies = (intra_rack_latency, intra_site_latency, inter_site_latency)
        if any(latency < 0 for latency in latencies):
            raise ValueError("latencies must be >= 0")
        self.rack_uplink = rack_uplink
        self.rack_downlink = rack_downlink
        self.site_uplink = site_uplink
        self.site_downlink = site_downlink
        self._latency = {
            "intra_rack": float(intra_rack_latency),
            "intra_site": float(intra_site_latency),
            "inter_site": float(inter_site_latency),
        }
        self._site_of: Dict[int, int] = {}
        self._rack_of: Dict[int, int] = {}
        #: Per-domain capacity overrides keyed by trunk link key.
        self._overrides: Dict[Tuple[int, int], Optional[float]] = {}
        #: ``trunk_links`` results per (src rack, src site, dst rack, dst site).
        self._trunk_memo: Dict[tuple, Tuple[Tuple[int, int], ...]] = {}
        #: Bumped by every mutation; an attached scheduler re-shares its
        #: active flows at its next event when this has moved.
        self.version = 0

    # -------------------------------------------------------------- building --
    @classmethod
    def from_nodes(cls, nodes: Iterable, **kwargs) -> "NetworkTopology":
        """A topology whose node->domain maps mirror ``node.site``/``node.rack``."""
        topology = cls(**kwargs)
        topology.refresh(nodes)
        return topology

    def refresh(self, nodes: Iterable) -> None:
        """Re-sync the node->domain maps (after churn or a domain re-layout)."""
        self._site_of.clear()
        self._rack_of.clear()
        self._trunk_memo.clear()
        self.version += 1
        for node in nodes:
            node_id = int(node.node_id)
            if node.site >= 0:
                self._site_of[node_id] = int(node.site)
            if node.rack >= 0:
                self._rack_of[node_id] = int(node.rack)

    # ------------------------------------------------------------ capacities --
    def set_rack_trunk(self, rack: int, uplink=_KEEP, downlink=_KEEP) -> None:
        """Override one rack's aggregation trunk (``0`` = partitioned)."""
        self._override("rack", ((_RACK_UP, int(rack)), uplink), ((_RACK_DOWN, int(rack)), downlink))

    def set_site_trunk(self, site: int, uplink=_KEEP, downlink=_KEEP) -> None:
        """Override one site's transit trunk (``0`` = partitioned)."""
        self._override("site", ((_SITE_UP, int(site)), uplink), ((_SITE_DOWN, int(site)), downlink))

    def _override(self, what: str, up, down) -> None:
        for (key, value), side in ((up, "uplink"), (down, "downlink")):
            if value is not _KEEP:
                _validate_capacity(value, f"{what} trunk {side}", allow_zero=True)
                self._overrides[key] = value
        self.version += 1

    def capacity_of(self, key: Tuple[int, int]) -> Optional[float]:
        """The capacity of one trunk link key (``None`` = unconstrained)."""
        if key in self._overrides:
            return self._overrides[key]
        stage = key[0]
        if stage == _RACK_UP:
            return self.rack_uplink
        if stage == _RACK_DOWN:
            return self.rack_downlink
        if stage == _SITE_UP:
            return self.site_uplink
        if stage == _SITE_DOWN:
            return self.site_downlink
        raise KeyError(f"not a trunk link key: {key!r}")

    def trunk_capacity(
        self, site: Optional[int] = None, rack: Optional[int] = None
    ) -> Tuple[Optional[float], Optional[float]]:
        """One domain's effective ``(uplink, downlink)`` trunk capacities."""
        if (site is None) == (rack is None):
            raise ValueError("specify exactly one of site= or rack=")
        if rack is not None:
            return self.capacity_of((_RACK_UP, int(rack))), self.capacity_of((_RACK_DOWN, int(rack)))
        return self.capacity_of((_SITE_UP, int(site))), self.capacity_of((_SITE_DOWN, int(site)))

    # ----------------------------------------------------------------- paths --
    def site_of(self, node_id: Optional[int]) -> Optional[int]:
        """The site of a node (``None`` = outside the modelled grid)."""
        return None if node_id is None else self._site_of.get(int(node_id))

    def rack_of(self, node_id: Optional[int]) -> Optional[int]:
        """The (globally unique) rack of a node (``None`` = outside the grid)."""
        return None if node_id is None else self._rack_of.get(int(node_id))

    def trunk_links(self, src: Optional[int], dst: Optional[int]) -> Tuple[LinkKey, ...]:
        """The shared trunk link keys a ``src -> dst`` transfer crosses.

        Ordered source-side out (rack aggregation, site transit) then
        destination-side in, which is also the physical traversal order.
        """
        src_rack, dst_rack = self.rack_of(src), self.rack_of(dst)
        src_site, dst_site = self.site_of(src), self.site_of(dst)
        pair = (src_rack, src_site, dst_rack, dst_site)
        memo = self._trunk_memo.get(pair)
        if memo is not None:
            return memo
        keys: List[Tuple[int, int]] = []
        if src_rack is None or src_rack != dst_rack:
            cross_site = src_site is None or dst_site is None or src_site != dst_site
            if src_rack is not None:
                keys.append((_RACK_UP, src_rack))
            if cross_site and src_site is not None:
                keys.append((_SITE_UP, src_site))
            if cross_site and dst_site is not None:
                keys.append((_SITE_DOWN, dst_site))
            if dst_rack is not None:
                keys.append((_RACK_DOWN, dst_rack))
        memo = self._trunk_memo[pair] = tuple(keys)
        return memo

    def source_links(self, src: Optional[int]) -> Tuple[Tuple[int, int], ...]:
        """The source-side trunk keys of flows leaving ``src``'s rack."""
        keys: List[Tuple[int, int]] = []
        rack = self.rack_of(src)
        if rack is not None:
            keys.append((_RACK_UP, rack))
        site = self.site_of(src)
        if site is not None:
            keys.append((_SITE_UP, site))
        return tuple(keys)

    def latency_class(self, src: Optional[int], dst: Optional[int]) -> Optional[str]:
        """``intra_rack``/``intra_site``/``inter_site`` (None = unmodelled)."""
        src_rack = self.rack_of(src)
        dst_rack = self.rack_of(dst)
        if src_rack is not None and src_rack == dst_rack:
            return "intra_rack"
        src_site = self.site_of(src)
        dst_site = self.site_of(dst)
        if src_site is None and dst_site is None:
            return None
        if src_site is not None and src_site == dst_site:
            return "intra_site"
        return "inter_site"

    def latency_between(self, src: Optional[int], dst: Optional[int]) -> float:
        """The propagation latency of the pair's latency class."""
        cls = self.latency_class(src, dst)
        return 0.0 if cls is None else self._latency[cls]

    @property
    def constrained(self) -> bool:
        """Whether any trunk stage actually has a finite capacity."""
        defaults = (self.rack_uplink, self.rack_downlink, self.site_uplink, self.site_downlink)
        return any(c is not None for c in (*defaults, *self._overrides.values()))


def oversubscribed_topology(
    nodes: Iterable,
    access_bandwidth: float,
    oversubscription: float,
    site_oversubscription: Optional[float] = None,
    **latencies: float,
) -> NetworkTopology:
    """Derive a two-stage oversubscribed core from a domained population.

    Each rack's aggregation trunk carries ``members x access_bandwidth /
    oversubscription`` (both directions); each site's transit trunk carries
    the sum of its racks' trunk capacities divided by the site ratio (which
    defaults to the same ratio, i.e. ``ratio^2`` end to end across sites --
    the classic leaf/spine oversubscription ladder).  A 1:1 ratio reproduces
    a non-blocking core; ``assign_domains``'s round-robin striping makes all
    racks the same size +-1 node.
    """
    if access_bandwidth <= 0:
        raise ValueError("access_bandwidth must be positive")
    if oversubscription < 1.0:
        raise ValueError("oversubscription ratio must be >= 1")
    site_ratio = oversubscription if site_oversubscription is None else site_oversubscription
    if site_ratio < 1.0:
        raise ValueError("site oversubscription ratio must be >= 1")
    topology = NetworkTopology(**latencies)
    topology.refresh(nodes)
    rack_members: Dict[int, int] = {}
    site_racks: Dict[int, set] = {}
    for node in nodes:
        if node.rack < 0:
            continue
        rack_members[int(node.rack)] = rack_members.get(int(node.rack), 0) + 1
        if node.site >= 0:
            site_racks.setdefault(int(node.site), set()).add(int(node.rack))
    rack_cap: Dict[int, float] = {}
    for rack in sorted(rack_members):
        capacity = rack_members[rack] * access_bandwidth / oversubscription
        rack_cap[rack] = capacity
        topology.set_rack_trunk(rack, uplink=capacity, downlink=capacity)
    for site in sorted(site_racks):
        capacity = sum(rack_cap[rack] for rack in sorted(site_racks[site])) / site_ratio
        topology.set_site_trunk(site, uplink=capacity, downlink=capacity)
    return topology


def allocate(
    link_capacity: Dict[LinkKey, float],
    link_members: Dict[LinkKey, List[int]],
    flow_links: Dict[int, Tuple[LinkKey, ...]],
    flow_weight: Dict[int, float],
) -> Dict[int, float]:
    """Weighted progressive filling, as a pure function (see the module docs).

    ``link_capacity`` holds the finite links, each with at least one member;
    ``link_members[key]`` lists the flows on a link and ``flow_links[flow]``
    the links of a flow -- either may name further links, which are
    unconstrained and ignored.  Returns ``{flow: rate}`` (``inf`` for a flow
    crossing no finite link) and mutates nothing.  Weight sums and freezes
    follow the member lists' order, which alone decides the float rounding.
    """
    residual = dict(link_capacity)
    unfrozen: Dict[LinkKey, float] = {}
    level: Dict[LinkKey, float] = {}
    heap: List[Tuple[float, LinkKey]] = []
    for key, capacity in link_capacity.items():
        row = link_members[key]
        weight = flow_weight[row[0]] if len(row) == 1 else float(sum([flow_weight[f] for f in row]))
        unfrozen[key] = weight
        mark = level[key] = capacity / weight
        heap.append((mark, key))
    heapify(heap)
    rates: Dict[int, float] = {}
    while heap:
        mark, key = heappop(heap)
        if unfrozen[key] <= _WEIGHT_TOLERANCE:
            continue
        current = level[key]
        if mark != current:
            if mark < current:  # a stale lower bound: queue the link at its real level
                heappush(heap, (current, key))
            continue
        # The bottleneck: freeze every still-unfrozen flow on it.
        for flow in link_members[key]:
            if flow in rates:
                continue
            weight = flow_weight[flow]
            rate = rates[flow] = mark * weight
            for other in flow_links[flow]:
                left = unfrozen.get(other)
                if left is None or other == key:
                    continue
                capacity = residual[other] = residual[other] - rate
                left = unfrozen[other] = left - weight
                if left > _WEIGHT_TOLERANCE:
                    fresh = (capacity if capacity >= 0.0 else 0.0) / left
                    if fresh < level[other]:
                        heappush(heap, (fresh, other))
                    level[other] = fresh
        unfrozen[key] = 0.0
    for flow, links in flow_links.items():
        if flow not in rates:
            starved = any(key in link_capacity for key in links)
            rates[flow] = 0.0 if starved else math.inf
    return rates


@dataclass(frozen=True)
class TransferSpec:
    """One submission of the batch API (:meth:`TransferScheduler.submit_many`)."""

    size: float
    src: Optional[int] = None
    dst: Optional[int] = None
    on_complete: Optional[Callable[["Transfer"], None]] = None
    on_failed: Optional[Callable[["Transfer"], None]] = None
    timeout: Optional[float] = None
    #: Fair-share weight (priority class); 1.0 is the foreground class.
    weight: float = 1.0
    #: Tenant id the movement is charged to (``None`` = untagged).
    tenant: Optional[int] = None


@dataclass
class Transfer:
    """One in-flight (or finished) bulk data movement between two nodes.

    ``src``/``dst`` are integer node-id values; ``None`` stands for an
    unconstrained endpoint (e.g. "the network at large" for a metadata
    restore whose source copy is not modelled).
    """

    seq: int
    src: Optional[int]
    dst: Optional[int]
    size: float
    submitted_at: float
    remaining: float
    rate: float = 0.0
    finished_at: Optional[float] = None
    on_complete: Optional[Callable[["Transfer"], None]] = field(default=None, repr=False)
    on_failed: Optional[Callable[["Transfer"], None]] = field(default=None, repr=False)
    deadline: Optional[float] = None
    failed_at: Optional[float] = None
    failure_reason: Optional[str] = None
    #: Fair-share weight (priority class); 1.0 is the foreground class.
    #: Already includes the tenant's class weight, folded in at submission.
    weight: float = 1.0
    #: Propagation latency of the path's latency class (activation delay).
    latency: float = 0.0
    #: Shared trunk link keys the path crosses (frozen at submission).
    trunk_links: Tuple[Tuple[int, int], ...] = ()
    #: Tenant id the movement is charged to (``None`` = untagged).
    tenant: Optional[int] = None

    @property
    def done(self) -> bool:
        """Whether the transfer has completed."""
        return self.finished_at is not None

    @property
    def failed(self) -> bool:
        """Whether the transfer failed (dead link, partitioned trunk, timeout)."""
        return self.failed_at is not None

    @property
    def ended(self) -> bool:
        """Whether the transfer has finished one way or the other."""
        return self.done or self.failed


class TransferScheduler:
    """Max-min fair transfer scheduling over the discrete-event kernel.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.engine.Simulator` driving virtual time.
    uplink / downlink:
        Default per-node access link capacities in bytes per simulated time
        unit (``None`` = unconstrained).  :meth:`set_node_bandwidth`
        overrides them per node.
    topology:
        Optional :class:`NetworkTopology`.  When attached, every transfer
        additionally crosses its path's trunk links and is delayed by its
        latency class; with unbounded trunks and zero latencies the schedule
        is bit-identical to the access-only model.
    """

    def __init__(
        self,
        sim: Simulator,
        uplink: Optional[float] = None,
        downlink: Optional[float] = None,
        topology: Optional[NetworkTopology] = None,
    ) -> None:
        _validate_capacity(uplink, "uplink", allow_zero=False)
        _validate_capacity(downlink, "downlink", allow_zero=False)
        self.sim = sim
        self.default_uplink = uplink
        self.default_downlink = downlink
        self.topology = topology
        self._uplink: Dict[int, Optional[float]] = {}
        self._downlink: Dict[int, Optional[float]] = {}
        self._active: Dict[int, Transfer] = {}
        #: The persistent constraint graph of the active set (_add_active /
        #: _drop_active): active seqs and per-link member seqs in submission
        #: order, the member links' finite capacities, per-flow links and weight.
        self._order: List[int] = []
        self._members: Dict[LinkKey, List[int]] = {}
        self._capacity: Dict[LinkKey, float] = {}
        self._links: Dict[int, Tuple[LinkKey, ...]] = {}
        self._weights: Dict[int, float] = {}
        #: Per flow, tightest finite access capacity / weight (inf if none):
        #: the level the flow freezes at or below.  The shared links this
        #: proves slack (status cached until their membership changes).
        self._bound: Dict[int, float] = {}
        self._slack: set = set()
        #: Flows whose rate may have changed since the last fill (its seeds).
        self._dirty: set = set()
        #: Allocation epoch: set when the active set or a capacity changed
        #: since the last fill (the topology's own changes via its version).
        self._stale = False
        self._topology_version = 0 if topology is None else topology.version
        #: Transfers inside their latency window (submitted, not yet active).
        self._pending: Dict[int, Transfer] = {}
        #: The last-queued activation per due time (same-instant folding).
        self._last_due: Dict[float, int] = {}
        self._seq = itertools.count()
        self._last_update = sim.now
        self._timer = None
        #: Sum of active-flow weights per link key (congestion signal).
        self._link_load: Dict[Tuple[int, int], float] = {}
        #: Per-tenant fair-share class weights (folded in at submission).
        self._tenant_weight: Dict[int, float] = {}
        #: Per-tenant hard caps: the virtual link capacities (None = uncapped).
        self._tenant_cap: Dict[int, Optional[float]] = {}
        #: Per-tenant byte/flow accounting (see :meth:`tenant_summary`).
        self._tenant_stats: Dict[int, Dict[str, float]] = {}
        # -- accounting ------------------------------------------------------
        self.bytes_submitted = 0.0
        self.bytes_completed = 0.0
        self.completed_count = 0
        self.submitted_count = 0
        self.bytes_out: Dict[int, float] = {}
        self.bytes_in: Dict[int, float] = {}
        #: Bytes charged per trunk link key (refunded on failure, like the
        #: per-node counters) -- the trunk-utilization panel reads this.
        self.trunk_bytes: Dict[Tuple[int, int], float] = {}
        #: Simulated time of the most recent completion (0.0 before any).
        self.last_completion_time = 0.0
        self.failed_count = 0
        self.bytes_failed = 0.0
        #: Fills performed / flows whose rate they recomputed (cost counters).
        self.reallocations = 0
        self.flows_filled = 0

    # ------------------------------------------------------------- capacities --
    def set_node_bandwidth(self, node_id: int, uplink=_KEEP, downlink=_KEEP) -> None:
        """Override one node's access link capacities.

        ``None`` means unconstrained; ``0`` means the link is *dead*; an
        omitted direction keeps its current override (so repeated
        single-direction changes on the same node never silently reset the
        other direction to the default).  Killing a link fails every active
        transfer crossing it (in submission order, ``on_failed`` through the
        event queue); any other change re-shares the active set's rates
        immediately.  Transfers still inside their latency window are failed
        at activation time instead.
        """
        node_id = int(node_id)
        self._advance()
        if uplink is not _KEEP:
            _validate_capacity(uplink, "per-node uplink", allow_zero=True)
            self._uplink[node_id] = uplink
        if downlink is not _KEEP:
            _validate_capacity(downlink, "per-node downlink", allow_zero=True)
            self._downlink[node_id] = downlink
        dead_up = self.uplink_of(node_id) == 0
        dead_down = self.downlink_of(node_id) == 0
        self._capacity_changed(
            lambda t: (dead_up and t.src == node_id) or (dead_down and t.dst == node_id), "endpoint failed")

    def set_trunk_bandwidth(
        self, site: Optional[int] = None, rack: Optional[int] = None, uplink=_KEEP, downlink=_KEEP
    ) -> None:
        """Change one trunk's capacity mid-flight (``0`` = partitioned).

        The trunk counterpart of :meth:`set_node_bandwidth`: updates the
        attached topology, fails every active transfer whose frozen path
        crosses a now-dead trunk (in submission order, through the event
        queue) and re-shares the survivors.
        """
        if self.topology is None:
            raise ValueError("set_trunk_bandwidth requires an attached topology")
        if (site is None) == (rack is None):
            raise ValueError("specify exactly one of site= or rack=")
        self._advance()
        if rack is not None:
            self.topology.set_rack_trunk(int(rack), uplink=uplink, downlink=downlink)
        else:
            self.topology.set_site_trunk(int(site), uplink=uplink, downlink=downlink)
        capacity_of = self.topology.capacity_of
        self._capacity_changed(
            lambda t: any(capacity_of(key) == 0 for key in t.trunk_links), "partitioned trunk")

    def set_tenant_weight(self, tenant: int, weight: float) -> None:
        """Assign one tenant's fair-share class weight (1.0 = foreground).

        The tenant weight multiplies into each flow's own weight *at
        submission time* -- flows already in flight keep the class they were
        admitted under, exactly like a flow's own ``weight``.  A weight of
        1.0 (the default) is arithmetically absent, which is what keeps the
        all-tenants-weight-1 schedule bit-identical to the untagged one.
        """
        if not 0 < weight < math.inf:
            raise ValueError(f"tenant weight must be finite and positive: {weight!r}")
        self._tenant_weight[int(tenant)] = float(weight)

    def set_tenant_cap(self, tenant: int, cap: Optional[float]) -> None:
        """Set (or clear) one tenant's hard aggregate bandwidth cap.

        The cap is modeled as a *virtual per-tenant link* of that capacity
        crossed by every one of the tenant's flows, so the progressive
        filling bounds the tenant's total rate without disturbing how other
        tenants share the physical links.  ``None`` removes the cap; ``0``
        blackholes the tenant: active flows fail deterministically (in
        submission order, through the event queue, like a dead access link)
        and new submissions fail at submission time.
        """
        _validate_capacity(cap, "tenant cap", allow_zero=True)
        tenant = int(tenant)
        self._advance()
        if cap is None:
            self._tenant_cap.pop(tenant, None)
        else:
            self._tenant_cap[tenant] = float(cap)
        self._capacity_changed(lambda t: cap == 0 and t.tenant == tenant, "tenant blackholed")

    def tenant_cap_of(self, tenant: int) -> Optional[float]:
        """The hard aggregate cap of one tenant (``None`` = uncapped)."""
        return self._tenant_cap.get(int(tenant))

    def uplink_of(self, node_id: int) -> Optional[float]:
        """The access uplink capacity of ``node_id`` (None = unconstrained)."""
        return self._uplink.get(int(node_id), self.default_uplink)

    def downlink_of(self, node_id: int) -> Optional[float]:
        """The access downlink capacity of ``node_id`` (None = unconstrained)."""
        return self._downlink.get(int(node_id), self.default_downlink)

    # ------------------------------------------------------------- submission --
    def submit(
        self,
        size: float,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        on_failed: Optional[Callable[[Transfer], None]] = None,
        timeout: Optional[float] = None,
        weight: float = 1.0,
        tenant: Optional[int] = None,
    ) -> Transfer:
        """Start moving ``size`` bytes from ``src`` to ``dst``.

        Returns the live :class:`Transfer`; its completion fires
        ``on_complete`` (through the event queue, at the completion's
        simulated time).  A dead link, a partitioned trunk or an expired
        ``timeout`` fires ``on_failed`` instead.  ``weight`` is the flow's
        fair-share priority class (1.0 = foreground); ``tenant`` charges the
        movement to one tenant's accounting, class weight and cap.
        """
        return self.submit_many(
            [TransferSpec(size, src, dst, on_complete, on_failed, timeout, weight, tenant)]
        )[0]

    def submit_many(self, specs: Sequence[TransferSpec]) -> List[Transfer]:
        """Submit a batch of :class:`TransferSpec`.

        One rate reallocation for the whole batch -- the way the repair
        executor charges all transfers of one failure at once.
        """
        if not specs:
            return []
        for spec in specs:  # before any counter moves: NaN fails every comparison
            if not 0 <= spec.size < math.inf:
                raise ValueError(f"transfer size must be finite and >= 0: {spec.size!r}")
            if spec.timeout is not None and not 0 < spec.timeout < math.inf:
                raise ValueError(f"transfer timeout must be finite and positive: {spec.timeout!r}")
            if not 0 < spec.weight < math.inf:
                raise ValueError(f"transfer weight must be finite and positive: {spec.weight!r}")
        self._advance()
        transfers: List[Transfer] = []
        now = self.sim.now
        for spec in specs:
            size, weight, timeout = spec.size, spec.weight, spec.timeout
            src = None if spec.src is None else int(spec.src)
            dst = None if spec.dst is None else int(spec.dst)
            tenant = None if spec.tenant is None else int(spec.tenant)
            if tenant is not None:
                # The tenant's class weight folds into the flow's weight; the
                # 1.0 default stays arithmetically absent (the QoS oracle).
                tenant_weight = self._tenant_weight.get(tenant, 1.0)
                if tenant_weight != 1.0:
                    weight = weight * tenant_weight
            latency = 0.0
            trunk_links: Tuple[Tuple[int, int], ...] = ()
            if self.topology is not None:
                latency = self.topology.latency_between(src, dst)
                trunk_links = self.topology.trunk_links(src, dst)
            transfer = Transfer(
                seq=next(self._seq),
                src=src,
                dst=dst,
                size=float(size),
                submitted_at=now,
                remaining=float(size),
                on_complete=spec.on_complete,
                on_failed=spec.on_failed,
                deadline=None if timeout is None else now + float(timeout),
                weight=float(weight),
                latency=latency,
                trunk_links=trunk_links,
                tenant=tenant,
            )
            self.submitted_count += 1
            self.bytes_submitted += transfer.size
            self._charge(transfer, transfer.size)
            if tenant is not None:
                stats = self._tenant_stat(tenant)
                stats["submitted"] += 1.0
                stats["bytes_submitted"] += transfer.size
            reason = self._dead_reason(transfer)
            if reason is not None:
                # Deterministic failure instead of an eternally starved flow.
                self.sim.schedule(0.0, lambda t=transfer, r=reason: self._fail_transfer(t, r))
            elif transfer.deadline is not None and transfer.deadline <= now + transfer.latency:
                # The deadline expires inside the latency window.
                self.sim.schedule(
                    transfer.deadline - now, lambda t=transfer: self._fail_transfer(t, "timeout"))
            elif transfer.latency > 0.0:
                self._pending[transfer.seq] = transfer
                self._last_due[now + transfer.latency] = transfer.seq
                self.sim.schedule(transfer.latency, lambda s=transfer.seq: self._activate(s))
            else:
                self._add_active(transfer)
            transfers.append(transfer)
        self._reallocate()
        self._reschedule()
        return transfers

    # ---------------------------------------------------------------- queries --
    @property
    def active_count(self) -> int:
        """Number of transfers currently consuming bandwidth."""
        return len(self._active)

    @property
    def idle(self) -> bool:
        """Whether no transfer is in flight (active or inside its latency)."""
        return not self._active and not self._pending

    def active_transfers(self) -> List[Transfer]:
        """The in-flight transfers in submission order."""
        return [self._active[seq] for seq in self._order]

    def summary(self) -> Dict[str, float]:
        """Aggregate accounting (read by the repair experiment/benchmarks)."""
        return {
            "submitted": float(self.submitted_count),
            "completed": float(self.completed_count),
            "failed": float(self.failed_count),
            "bytes_submitted": self.bytes_submitted,
            "bytes_completed": self.bytes_completed,
            "bytes_failed": self.bytes_failed,
            "active": float(len(self._active) + len(self._pending)),
            "last_completion_time": self.last_completion_time,
            "reallocations": float(self.reallocations),
            "flows_filled": float(self.flows_filled),
        }

    # ------------------------------------------------------------- congestion --
    def link_congestion(self, key: Tuple[int, int]) -> float:
        """Active weight over capacity of one link (0 when unconstrained)."""
        capacity = self._key_capacity(key)
        if capacity is None:
            return 0.0
        if capacity <= 0:
            return math.inf
        return self._link_load.get(key, 0.0) / capacity

    def path_congestion(self, src: Optional[int], dst: Optional[int]) -> float:
        """Summed congestion over every link a ``src -> dst`` flow would cross.

        The congestion-aware repair planner ranks candidate read sources by
        this signal: a source whose path crosses a saturated trunk scores
        higher and is picked last.  Dead links score infinite.
        """
        keys: List[Tuple[int, int]] = []
        if src is not None:
            keys.append((_UP, int(src)))
        if self.topology is not None:
            keys.extend(self.topology.trunk_links(src, dst))
        if dst is not None:
            keys.append((_DOWN, int(dst)))
        return sum(self.link_congestion(key) for key in keys)

    def source_congestion(self, src: Optional[int]) -> float:
        """Congestion over a source's outbound stages (uplink + trunks).

        The destination-free variant of :meth:`path_congestion`, for ranking
        read sources before the destination of the repair copy is known.
        """
        if src is None:
            return 0.0
        keys: List[Tuple[int, int]] = [(_UP, int(src))]
        if self.topology is not None:
            keys.extend(self.topology.source_links(src))
        return sum(self.link_congestion(key) for key in keys)

    def trunk_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-trunk charged bytes and capacity, keyed by human-readable name.

        Capacity ``-1`` marks an unconstrained trunk.  Utilization over an
        interval is ``bytes / (capacity x interval)``
        (:meth:`peak_trunk_utilization`; the caller knows the storm's makespan).
        """
        out: Dict[str, Dict[str, float]] = {}
        for key in sorted(self.trunk_bytes):
            stage, domain = key
            name = _STAGE_NAMES[stage].replace(":", f"{domain}:")
            capacity = self.topology.capacity_of(key) if self.topology is not None else None
            out[name] = {
                "bytes": self.trunk_bytes[key],
                "capacity": -1.0 if capacity is None else float(capacity),
            }
        return out

    def peak_trunk_utilization(self, makespan: float) -> float:
        """The busiest finite trunk's bytes over capacity x makespan, in %."""
        if makespan <= 0:
            return 0.0
        peak = 0.0
        for entry in self.trunk_summary().values():
            if entry["capacity"] > 0:
                peak = max(peak, 100.0 * entry["bytes"] / (entry["capacity"] * makespan))
        return peak

    def tenant_summary(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant byte/flow accounting, QoS settings and live backlog.

        One row per tenant that has submitted traffic or carries a configured
        weight/cap: submitted/completed/failed flow counts and bytes (failure
        refunds mirror the global counters), the in-flight flow count
        (``active``, including latency-window flows) and their undelivered
        bytes (``backlog_bytes``), and the tenant's current class ``weight``
        and ``cap`` (``-1`` = uncapped).  The per-tenant SLO reports are
        assembled from this plus the ledger's per-tenant O(1) aggregates.
        """
        self._advance()
        in_flight: Dict[int, Tuple[int, float]] = {}
        for pool in (self._active, self._pending):
            for transfer in pool.values():
                if transfer.tenant is None:
                    continue
                count, backlog = in_flight.get(transfer.tenant, (0, 0.0))
                in_flight[transfer.tenant] = (count + 1, backlog + transfer.remaining)
        tenants = (
            set(self._tenant_stats)
            | set(self._tenant_weight)
            | set(self._tenant_cap)
            | set(in_flight)
        )
        out: Dict[int, Dict[str, float]] = {}
        for tenant in sorted(tenants):
            row = dict(self._tenant_stats.get(tenant) or _NO_TENANT_STATS)
            count, backlog = in_flight.get(tenant, (0, 0.0))
            cap = self._tenant_cap.get(tenant)
            row["active"] = float(count)
            row["backlog_bytes"] = backlog
            row["weight"] = self._tenant_weight.get(tenant, 1.0)
            row["cap"] = -1.0 if cap is None else float(cap)
            out[tenant] = row
        return out

    # ------------------------------------------------------------- internals --
    def _tenant_stat(self, tenant: int) -> Dict[str, float]:
        stats = self._tenant_stats.get(tenant)
        if stats is None:
            stats = self._tenant_stats[tenant] = dict(_NO_TENANT_STATS)
        return stats

    def _key_capacity(self, key: Tuple[int, int]) -> Optional[float]:
        stage, ident = key
        if stage == _UP:
            return self.uplink_of(ident)
        if stage == _DOWN:
            return self.downlink_of(ident)
        if stage == _TENANT:
            return self._tenant_cap.get(ident)
        if self.topology is None:
            return None
        return self.topology.capacity_of(key)

    def _add_active(self, transfer: Transfer) -> None:
        seq, weight = transfer.seq, transfer.weight
        keys: List[LinkKey] = []
        if transfer.src is not None:
            keys.append((_UP, transfer.src))
        if transfer.dst is not None:
            keys.append((_DOWN, transfer.dst))
        keys.extend(transfer.trunk_links)
        if transfer.tenant is not None:
            # Capped or not: an uncapped tenant link has capacity None and
            # constrains nothing until set_tenant_cap gives it one mid-flight.
            keys.append((_TENANT, transfer.tenant))
        self._active[seq] = transfer
        # Activations arrive out of submission order (latency classes), so
        # every seq-ordered list is kept sorted by insertion.
        insort(self._order, seq)
        self._weights[seq] = weight
        self._links[seq] = tuple(keys)
        load, members = self._link_load, self._members
        for key in keys:
            load[key] = load.get(key, 0.0) + weight
            row = members.get(key)
            if row is not None:
                insort(row, seq)
                continue
            members[key] = [seq]
            capacity = self._key_capacity(key)
            if capacity is not None:
                self._capacity[key] = float(capacity)
        self._bound[seq] = self._access_bound(keys, weight)
        self._dirty.add(seq)
        self._touch(keys)

    def _drop_active(self, transfer: Transfer) -> None:
        seq, weight = transfer.seq, transfer.weight
        del self._active[seq]
        self._order.remove(seq)
        del self._weights[seq], self._bound[seq]
        self._dirty.discard(seq)
        load, members = self._link_load, self._members
        keys = self._links.pop(seq)
        for key in keys:
            remaining = load.get(key, 0.0) - weight
            if remaining <= _WEIGHT_TOLERANCE:
                load.pop(key, None)
            else:
                load[key] = remaining
            row = members[key]
            if len(row) == 1:
                del members[key]
                self._capacity.pop(key, None)
            else:
                row.remove(seq)
        self._touch(keys)

    def _access_bound(self, keys: Iterable[LinkKey], weight: float) -> float:
        capacity = self._capacity
        return min([capacity.get(key, math.inf) for key in keys if key[0] <= _DOWN],
                   default=math.inf) / weight

    def _touch(self, keys: Iterable[LinkKey]) -> None:
        """Re-derive the slack status of links whose membership changed and
        mark the members of those binding before or after it for the refill."""
        capacity, members, slack, bound = self._capacity, self._members, self._slack, self._bound
        load = self._link_load
        for key in keys:
            limit = capacity.get(key)
            if limit is None:  # unconstrained or emptied: not an edge
                slack.discard(key)
                continue
            row = members[key]
            if key[0] > _DOWN and limit > (
                    _SLACK_MARGIN * load.get(key, 0.0) * max([bound[f] for f in row])):
                if key in slack:
                    continue
                slack.add(key)
            else:
                slack.discard(key)
            self._dirty.update(row)
        self._stale = True

    def _capacity_changed(self, doomed: Callable[[Transfer], bool], reason: str) -> None:
        """Finish a capacity setter: fail the flows it killed, re-share the rest."""
        active = self._active
        for transfer in [active[seq] for seq in self._order if doomed(active[seq])]:
            self._drop_active(transfer)
            self.sim.schedule(0.0, lambda t=transfer: self._fail_transfer(t, reason))
        self._resolve_capacities()
        self._reallocate()
        self._reschedule()

    def _resolve_capacities(self) -> None:
        """Re-read every member link's capacity (a setter ran); mark stale."""
        if self.topology is not None:
            self._topology_version = self.topology.version
        resolved = ((key, self._key_capacity(key)) for key in self._members)
        self._capacity = {key: float(value) for key, value in resolved if value is not None}
        for seq, keys in self._links.items():
            self._bound[seq] = self._access_bound(keys, self._weights[seq])
        # Every bound and status is re-derived and every flow refilled.
        self._slack.clear()
        self._touch(self._members)
        self._dirty.update(self._active)

    def _dead_reason(self, transfer: Transfer) -> Optional[str]:
        """Why the transfer cannot run (a dead stage on its path), if at all."""
        if transfer.src is not None and self.uplink_of(transfer.src) == 0:
            return "dead endpoint"
        if transfer.dst is not None and self.downlink_of(transfer.dst) == 0:
            return "dead endpoint"
        for key in transfer.trunk_links:
            if self.topology.capacity_of(key) == 0:
                return "partitioned trunk"
        if transfer.tenant is not None and self._tenant_cap.get(transfer.tenant) == 0:
            return "tenant blackholed"
        return None

    def _activate(self, seq: int) -> None:
        """End one transfer's latency window and admit it to the active set."""
        transfer = self._pending.pop(seq)
        self._advance()
        reason = self._dead_reason(transfer)
        if reason is not None:
            # The path died while the flow was still propagating.
            self._fail_transfer(transfer, reason)
        else:
            self._add_active(transfer)
        if self._last_due[self.sim.now] != seq:
            # A later activation is queued for this instant (same-time events
            # fire in scheduling order) and fills for both: no bytes move in zero
            # time.  Disarmed, no completion runs on rates about to change.
            self._disarm()
            return
        del self._last_due[self.sim.now]
        self._reallocate()
        self._reschedule()

    def _fail_transfer(self, transfer: Transfer, reason: str) -> None:
        """Terminate ``transfer`` unsuccessfully and fire its failure callback.

        The undelivered residual is refunded from the per-node and per-trunk
        byte counters so they track bytes actually charged to the links.
        """
        if transfer.ended:
            return
        transfer.rate = 0.0
        transfer.failed_at = self.sim.now
        transfer.failure_reason = reason
        self.failed_count += 1
        self.bytes_failed += transfer.remaining
        if transfer.tenant is not None:
            stats = self._tenant_stat(transfer.tenant)
            stats["failed"] += 1.0
            stats["bytes_failed"] += transfer.remaining
        self._charge(transfer, -transfer.remaining)
        if transfer.on_failed is not None:
            transfer.on_failed(transfer)

    def _charge(self, transfer: Transfer, amount: float) -> None:
        """Add ``amount`` (a refund if negative) to the path's byte counters."""
        if transfer.src is not None:
            self.bytes_out[transfer.src] = self.bytes_out.get(transfer.src, 0.0) + amount
        if transfer.dst is not None:
            self.bytes_in[transfer.dst] = self.bytes_in.get(transfer.dst, 0.0) + amount
        for key in transfer.trunk_links:
            self.trunk_bytes[key] = self.trunk_bytes.get(key, 0.0) + amount

    def _advance(self) -> None:
        """Progress every active transfer linearly to the current time."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            for transfer in self._active.values():
                rate = transfer.rate
                if rate == math.inf:
                    transfer.remaining = 0.0
                elif rate > 0.0:
                    transfer.remaining = max(0.0, transfer.remaining - rate * dt)
        self._last_update = now

    def _reallocate(self) -> None:
        """Re-share the active set's rates -- only if their inputs changed."""
        topology = self.topology
        if topology is not None and topology.version != self._topology_version:
            self._resolve_capacities()  # the topology was changed directly
        if not self._stale:
            return
        self._stale = False
        active = self._active
        if not active:
            return
        # The components, over binding links, of every flow marked dirty.
        capacity, members, slack, links = self._capacity, self._members, self._slack, self._links
        stack = list(self._dirty)
        self._dirty.clear()
        flow_links: Dict[int, Tuple[LinkKey, ...]] = {}
        link_capacity: Dict[LinkKey, float] = {}
        while stack:
            seq = stack.pop()
            if seq in flow_links:
                continue
            flow_links[seq] = links[seq]
            for key in links[seq]:
                if key in capacity and key not in slack and key not in link_capacity:
                    link_capacity[key] = capacity[key]
                    stack.extend(members[key])
        for seq, rate in allocate(link_capacity, members, flow_links, self._weights).items():
            active[seq].rate = rate
        self.reallocations += 1
        self.flows_filled += len(flow_links)

    def _disarm(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest-finishing transfer."""
        self._disarm()
        now = self.sim.now
        next_dt = math.inf
        for transfer in self._active.values():
            left = math.inf  # rate-starved unless one of the below
            if transfer.remaining <= REMAINING_TOLERANCE:
                left = 0.0
            elif transfer.rate > 0.0:
                left = transfer.remaining / transfer.rate  # 0.0 at an infinite rate
            if transfer.deadline is not None:
                left = min(left, transfer.deadline - now)
            if left < next_dt:
                next_dt = left
        if math.isinf(next_dt):
            # Nothing active, or every remaining flow is rate-starved (a
            # zero-capacity link); a future submit/completion may free it.
            return
        self._timer = self.sim.schedule(max(0.0, next_dt), self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._advance()
        now = self.sim.now
        # A transfer that both finishes and expires this instant counts as
        # finished; the rest past their deadline time out.
        finished, expired = [], []
        for seq in self._order:
            transfer = self._active[seq]
            if transfer.remaining <= REMAINING_TOLERANCE or transfer.rate == math.inf:
                finished.append(transfer)
            elif transfer.deadline is not None and transfer.deadline <= now + 1e-12:
                expired.append(transfer)
        for transfer in finished:
            self._drop_active(transfer)
            transfer.remaining = 0.0
            transfer.rate = 0.0
            transfer.finished_at = now
            self.completed_count += 1
            self.bytes_completed += transfer.size
            self.last_completion_time = now
            if transfer.tenant is not None:
                stats = self._tenant_stat(transfer.tenant)
                stats["completed"] += 1.0
                stats["bytes_completed"] += transfer.size
                stats["last_completion_time"] = now
        for transfer in expired:
            self._drop_active(transfer)
        self._reallocate()
        self._reschedule()
        for transfer in finished:
            if transfer.on_complete is not None:
                transfer.on_complete(transfer)
        for transfer in expired:
            self._fail_transfer(transfer, "timeout")


class TransferPacer:
    """Admission control for one traffic class: a bounded in-flight window.

    Submissions beyond ``max_in_flight`` are parked in a FIFO backlog --
    queued, never dropped -- and admitted as completions (or failures) free
    window slots, each submission tagged with the class's fair-share
    ``weight``.  ``max_in_flight=None`` is a pass-through: one batched
    ``submit_many`` with no window, which keeps the instantaneous and
    unpaced-repair paths byte-identical.

    The pacer is what lets a recovery storm survive an oversubscribed core:
    instead of dumping 10^5 repair flows onto the fair-share model at once
    (each getting a vanishing share and pinning every trunk at saturation for
    the whole storm), a bounded window drains the backlog at the core's
    actual service rate while ``peak_queue_depth`` records how deep the storm
    ran.
    """

    def __init__(
        self,
        scheduler: TransferScheduler,
        max_in_flight: Optional[int] = None,
        weight: float = 1.0,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 (or None)")
        if not 0 < weight < math.inf:
            raise ValueError("weight must be finite and positive")
        self.scheduler = scheduler
        self.max_in_flight = max_in_flight
        self.weight = float(weight)
        self._backlog: Deque[TransferSpec] = deque()
        self.in_flight = 0
        self.queued_total = 0
        self.peak_queue_depth = 0
        self.peak_in_flight = 0

    @property
    def queue_depth(self) -> int:
        """Transfers currently waiting for a window slot."""
        return len(self._backlog)

    @property
    def idle(self) -> bool:
        """Whether the pacer holds no admitted or queued work."""
        return self.in_flight == 0 and not self._backlog

    def submit(
        self,
        size: float,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        on_failed: Optional[Callable[[Transfer], None]] = None,
        timeout: Optional[float] = None,
        tenant: Optional[int] = None,
    ) -> None:
        """Queue one transfer for admission (see :meth:`submit_many`)."""
        self.submit_many(
            [TransferSpec(size, src, dst, on_complete, on_failed, timeout, tenant=tenant)]
        )

    def submit_many(self, specs: Sequence[TransferSpec]) -> None:
        """Admit up to the window, backlog the rest (FIFO, in spec order).

        Unlike :meth:`TransferScheduler.submit_many` no :class:`Transfer`
        objects are returned -- a spec past the window has no transfer yet.
        Completion/failure callbacks fire exactly as they would unpaced.
        """
        for spec in specs:
            self._backlog.append(self._wrap(spec))
        self.queued_total += len(specs)
        self._drain()

    # ------------------------------------------------------------- internals --
    def _wrap(self, spec: TransferSpec) -> TransferSpec:
        def settled(callback, transfer):
            self.in_flight -= 1
            if callback is not None:
                callback(transfer)
            self._drain()

        # The pacer *is* a traffic class: its weight replaces the spec's.
        # The tenant tag (and timeout) ride through untouched.
        return replace(
            spec,
            on_complete=lambda t, cb=spec.on_complete: settled(cb, t),
            on_failed=lambda t, cb=spec.on_failed: settled(cb, t),
            weight=self.weight,
        )

    def _drain(self) -> None:
        batch: List[TransferSpec] = []
        while self._backlog and (
            self.max_in_flight is None
            or self.in_flight + len(batch) < self.max_in_flight
        ):
            batch.append(self._backlog.popleft())
        if batch:
            self.in_flight += len(batch)
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            self.scheduler.submit_many(batch)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._backlog))
