"""Per-node overlay state: identity, liveness and local storage bookkeeping.

The storage design relies on three properties of a Pastry node (Section 4.4 of
the paper):

* the *leaf set* -- the L/2 numerically closest nodes on each side -- which the
  system uses both for replica placement and for detecting the failure of an
  immediate neighbour.  Leaf sets are positional (the nearest live ids per
  ring side), so nothing is stored per node: the routing engine and
  :class:`~repro.overlay.node_state.NodeArrayState` read them out of the
  sorted live-id order;
* when a node fails, the portion of the identifier space mapped to it is split
  between its two immediate neighbours, which therefore become responsible for
  re-creating the blocks that were stored on it;
* each node keeps "a list of blocks stored on its neighbors" so it knows what
  to re-create: the block ledger's per-owner row index
  (:meth:`repro.core.block_ledger.BlockLedger.recovery_rows`) is that list,
  kept once system-wide instead of once per neighbour.

Every file store built on these nodes -- PAST, CFS, the proposed system and
the whole-file Condor machine -- answers a store with one
:class:`StoreResult`, and refuses a bad request through :func:`store_refusal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.overlay.validation import require_range

#: The bytes of one stored block in payload mode: immutable ``bytes``, or a
#: read-only ``memoryview`` into the buffer its encoder wrote once (the
#: contract is stated on :class:`repro.erasure.base.EncodedBlock`).  Compare
#: by content; a view of a NumPy buffer cannot be hashed.
BlockBytes = Union[bytes, memoryview]


@dataclass(slots=True)
class OverlayNode:
    """A participant in the overlay.

    Besides its id and the coordinates of the proximity metric, the node carries
    the storage attributes of the contributory storage system: contributed
    capacity, used space and, in payload mode, the bytes of its blocks.  Which
    blocks it stores is the block ledgers' record, not the node's: a block's
    name is derived from the ledger's columns, so a node keeps no name per
    block (:attr:`stored_blocks` is a view built from the ledgers on read).
    """

    #: The node's identifier on the ring, an int in ``[0, ID_SPACE)``.
    node_id: int
    #: Position used by the proximity metric (Euclidean distance in a plane),
    #: standing in for network latency between participants.
    coordinates: tuple[float, float] = (0.0, 0.0)
    #: Total storage contributed by this participant, in bytes.
    capacity: int = 0
    #: Placement-engine indexes (``NodeArrayState``) whose ``used_total`` follows
    #: this node's usage.  These three precede ``used``: the generated ``__init__``
    #: assigns fields in order and ``used`` goes through the setter, which reads them.
    _usage_listeners: Tuple[object, ...] = field(default=(), init=False, compare=False)
    #: Liveness listeners notified on fail/recover/depart transitions (the
    #: columnar block ledger); separate, so a store never walks past a ledger.
    _state_listeners: Tuple[object, ...] = field(default=(), init=False, compare=False)
    #: Backing storage of the ``used`` property.
    _used_value: int = field(default=0, init=False, compare=False)
    #: Bytes currently consumed by stored blocks.  A property (installed below
    #: the class) so that direct assignment keeps the listeners' totals exact.
    used: int = 0
    #: Whether the node is currently alive.
    alive: bool = True
    #: Fraction of free capacity reported per getCapacity reply (Section 4.3:
    #: "a node may choose to only report a fraction of its actual available
    #: capacity per getCapacity message").
    capacity_report_fraction: float = 1.0
    #: Failure domain: the site (machine room / campus) this node lives in and
    #: the rack within it.  ``-1`` = unassigned (every node its own domain).
    #: Rack ids are globally unique (``site * racks_per_site + rack``), so a
    #: whole-rack outage is a single equality test on one column.
    site: int = -1
    rack: int = -1
    #: Payload mode: the bytes of each stored block, {block_name: bytes}; they
    #: leave with the block (:meth:`remove_block`, :meth:`release_block`, a wiping
    #: :meth:`recover`).
    payloads: Dict[str, BlockBytes] = field(default_factory=dict, init=False, compare=False)
    #: How many times the node came back with an empty disk: a copy placed
    #: before a wipe is gone for good (what a buffered registration checks).
    wipes: int = field(default=0, init=False, compare=False)
    #: Dense number of this node *object* in its network, handed out at build /
    #: join and never reused (not even with the id): what the block ledger keys
    #: owner slots by.  ``None`` until numbered -- the ledger indexes a list with
    #: it, so an unnumbered node is a ``TypeError`` there, not someone else's slot.
    serial: Optional[int] = field(default=None, compare=False)

    # -- capacity -----------------------------------------------------------
    @property
    def free(self) -> int:
        """Bytes of contributed space not currently used."""
        return max(0, self.capacity - self.used)

    def report_capacity(self) -> int:
        """Reply to a ``getCapacity`` probe (may understate per local policy)."""
        if not self.alive:
            return 0
        return int(self.free * self.capacity_report_fraction)

    # -- block storage -------------------------------------------------------
    def store_block(self, block_name: str, size: int, exclude=()) -> bool:
        """Take a block of ``size`` bytes if the node is up, has room and is not excluded.

        The one placement door.  ``exclude`` holds the serials of the nodes
        with a copy of the block on disk (the ledger's
        ``placement_disk_serials`` / ``meta_disk_serials`` / ``namesake_serials``):
        a node in it refuses, so no node takes a second copy of one block.
        The caller records an accepted copy (in a block ledger);
        ``block_name`` names it to whoever watches the call, and the node
        keeps nothing per block but its bytes' count.
        """
        # ``exclude`` is almost always empty: its truth test is cheaper than the
        # membership test, and this is the one call a stored block costs.
        if not self.alive or size < 0 or (exclude and self.serial in exclude):
            return False
        used = self._used_value
        free = self.capacity - used
        if size > (free if free > 0 else 0):
            return False
        size = int(size)
        # The ``used`` setter in line: this is the one call a stored block costs.
        self._used_value = used + size
        for listener in self._usage_listeners:
            listener.used_total += size
        return True

    def remove_block(self, block_name: str, size: int) -> bool:
        """Delete a copy the attached block ledgers record on this disk, releasing its space.

        The ledgers are the node's record of its copies: an unreleased row of
        ``block_name`` the node owns (released now: its bytes are gone) or an
        orphan of it (a copy a repair re-pointed while the node kept it).
        Anything else -- a name the node does not hold, a second removal of
        one copy -- is refused (``False``) and changes nothing.  A copy no
        ledger records yet goes through :meth:`release_block`.
        """
        if not any(ledger._note_removed(self, block_name) for ledger in self._state_listeners):
            return False
        self._drop(block_name, size)
        return True

    def release_block(self, block_name: str, size: int) -> bool:
        """Give back the space of a copy no block ledger records, and its payload.

        A store taking back what it placed before registering it, or a caller
        that keeps its own record of the copy (the whole-file machine's
        ``files``): that record is the guard, as the node cannot tell one
        unrecorded copy from another.  Refused (``False``) only past ``used``.
        """
        if not 0 <= size <= self._used_value:
            return False
        self._drop(block_name, size)
        return True

    def _drop(self, block_name: str, size: int) -> None:
        self.payloads.pop(block_name, None)
        self._used_value -= size
        for listener in self._usage_listeners:
            listener.used_total -= size

    @property
    def stored_blocks(self) -> Mapping[str, int]:
        """Read-only ``{block name: size}`` of the copies on this node's disk.

        Built on every read from the block ledgers holding the node's rows
        (their unreleased rows plus the copies a repair released while the
        node kept the bytes), names derived; O(copies on the node).
        """
        blocks: Dict[str, int] = {}
        for ledger in self._state_listeners:
            blocks.update(ledger.disk_copies(self))
        return MappingProxyType(blocks)

    def disk_sizes(self) -> List[int]:
        """The sizes of :attr:`stored_blocks`, without deriving a name."""
        return [size for ledger in self._state_listeners for size in ledger.disk_sizes(self)]

    # -- failure ------------------------------------------------------------
    def fail(self) -> None:
        """Mark the node failed; its stored blocks become unreachable.

        Attached state listeners (the columnar block ledger of
        :mod:`repro.core.block_ledger`) are notified so system-wide liveness
        accounting stays exact no matter which code path fails the node.
        """
        if not self.alive:
            return
        self.alive = False
        for listener in self._state_listeners:
            listener._note_failed(self)

    def recover(self, wipe: bool = True) -> None:
        """Bring the node back.  By default it returns empty (disk wiped)."""
        revived = not self.alive
        self.alive = True
        if wipe:
            self.wipes += 1
            self.payloads.clear()
            self.used = 0
        for listener in self._state_listeners:
            listener._note_recovered(self, wipe, revived)

    def leave(self) -> None:
        """Graceful departure: the node exits the overlay *alive*.

        Unlike :meth:`fail`, a leaving node had the chance to migrate its
        blocks out first (:meth:`repro.core.recovery.RecoveryManager.
        handle_leave` copies them to the nodes now responsible); whatever it
        still holds departs with it, so attached state listeners (the
        columnar block ledger) permanently release the remaining rows.
        Called by :meth:`repro.overlay.network.OverlayNetwork.leave`.
        """
        for listener in self._state_listeners:
            listener._note_departed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"OverlayNode({self.node_id!r}, {state}, used={self.used}/{self.capacity})"


def _used_get(self: OverlayNode) -> int:
    return self._used_value


def _used_set(self: OverlayNode, value: int) -> None:
    # ``recover`` and direct assignment (tests fill nodes with ``node.used =
    # node.capacity``) land here; ``store_block`` / ``_drop`` do the same
    # two steps in line, so the attached indexes' O(1) totals stay exact.
    value = int(value)
    delta = value - self._used_value
    self._used_value = value
    for listener in self._usage_listeners:
        listener.used_total += delta


#: Installed after the dataclass machinery runs (it shadows the ``used`` slot),
#: so the generated ``__init__`` (``self.used = used``) goes through the setter.
OverlayNode.used = property(_used_get, _used_set)  # type: ignore[assignment]


@dataclass(frozen=True)
class StoreResult:
    """Outcome of one file store, whichever scheme stored it.

    ``stored_bytes`` is what the store now holds for the file: the file size
    for CFS, the proposed system and the whole-file machine, the size times
    its replica count for PAST, and ``0`` on failure.  ``chunk_count`` is ``1``
    for the whole-file schemes, the number of fixed blocks for CFS (on failure,
    the blocks placed before it), and the number of chunk slots -- zero-sized
    ones included -- for the proposed system.  ``data_chunk_count`` counts only
    the chunks that hold data: the proposed system's non-empty slots, equal to
    ``chunk_count`` for the other schemes.  ``lookups`` counts DHT look-ups.
    """

    filename: str
    requested_size: int
    success: bool
    stored_bytes: int
    chunk_count: int
    data_chunk_count: int
    lookups: int
    failure_reason: Optional[str] = None


def store_refusal(filename: str, size, taken: Callable[[str], bool]) -> Optional[StoreResult]:
    """What a store answers before it looks anything up or moves a counter.

    A negative or non-finite ``size`` raises ``ParameterError``; a name ``taken``
    reports as already stored is refused with no lookup charged; otherwise
    ``None``, and the store goes ahead.
    """
    require_range("size", size, 0)
    if taken(filename):
        return StoreResult(filename, size, False, 0, 0, 0, 0, "file already stored")
    return None
