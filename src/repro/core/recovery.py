"""Failure handling, block regeneration and graceful migration (Section 4.4).

When a participant fails, the identifier-space region it owned is split
between its immediate neighbours; those neighbours become responsible for the
encoded blocks that used to live on the failed node and re-create them from
the surviving encoded blocks of the same chunk.  Key properties reproduced
here:

* a regenerated block is *functionally* equivalent, not byte-identical, to the
  lost one (with a rateless code new check blocks are simply appended);
* if the chunk has already lost too many blocks to decode, nothing can be
  regenerated and the chunk's data is lost;
* if the newly responsible node lacks capacity, the block is dropped and
  re-created at a different location (the paper's adopted choice, possible
  because of the rateless online code);
* CAT objects are re-replicated, and a lost CAT can be rebuilt by probing
  chunk names one past the zero-chunk limit (Section 4.4).

The ledger's unreleased rows of a node are the one record of what it held
(:meth:`~repro.core.block_ledger.BlockLedger.recovery_rows`, the paper's "list
of blocks stored on its neighbors"): :class:`RecoveryManager` walks them and
nothing else.  A copy still on a dead node's disk with no unreleased row (an
orphan: the repair re-pointed its placement while the node kept the bytes) was
already repaired or deleted, so repairing a node twice is a no-op.  Every
placement step walks its candidates with :func:`~repro.overlay.dht.first_fits`,
excluding the nodes holding a copy of the block's name on disk
(:meth:`~repro.core.block_ledger.BlockLedger.placement_disk_serials`, for a CAT
copy :meth:`~repro.core.block_ledger.BlockLedger.meta_disk_serials`; both count
a namesake file's copies): a node never takes a second copy of one name, and no
node keeps a list of what it holds.  Each row is one copy to re-create -- a
primary block, a neighbour replica, a CAT / metadata copy or (departures only)
a PAST/CFS copy, whose chunk has no :class:`~repro.core.storage.StoredChunk`
to decode -- and a failure and a departure re-create it with the same step
per copy kind: place it (DHT lookup plus the rateless relocation walk),
re-point the placement and mirror the ledger.  What each trigger keeps as its
own is where the bytes are read from and which counter books them: a failure reads the
surviving blocks and counts them as regenerated, a departure reads the leaving
node's copy and counts it as migrated.  In payload mode the bytes live on the
holders (:attr:`~repro.overlay.node.OverlayNode.payloads`): a departure moves
the leaving node's, a failure writes a surviving holder's (a freshly minted
check block for a rateless primary; the file's CAT when no CAT copy survives).
With a :class:`~repro.core.transfer.TransferScheduler` attached, the bytes each
step moves are charged to the fair-share bandwidth model so repairs take
simulated *time*.

Rows are applied one at a time (one row is classified and applied before the
next is read) because placement decisions consume capacity that later
decisions must observe -- exactly the seed ordering.  With no scheduler
attached (``transfers=None``, the default) every step applies instantaneously
and the impacts, totals and placements equal the frozen seed outputs in
``tests/golden/``; the oracle is ``tests/test_churn_equivalence.py``.

Graceful departures (:meth:`RecoveryManager.handle_leave`) are first-class:
the departing node's blocks are *copied out* to the nodes now responsible for
them before it leaves -- CFS and PAST both define this migration as
first-class, and their whole-file/stripe copies on a shared multi-tenant
ledger migrate through the same pipeline -- instead of being regenerated from
surviving redundancy afterwards.  Migration moves each block once (``B``
bytes) where regeneration reads ``required`` surviving blocks per lost block
(``required x B`` bytes), which is the traffic gap the
``repro.cli repair`` ablation measures.

The manager exposes per-failure accounting (bytes regenerated, bytes lost,
bytes migrated, repair completion times) which is exactly what Table 3 of the
paper and the bandwidth-aware repair experiment report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import naming
from repro.core.block_ledger import KIND_PRIMARY, KIND_REPLICA, BlockLedger
from repro.core.cat import ChunkAllocationTable
from repro.core.storage import StorageSystem, StoredChunk
from repro.core.transfer import TransferPacer, TransferScheduler, TransferSpec
from repro.erasure.base import DecodingError
from repro.overlay.dht import first_fits
from repro.overlay.node import OverlayNode


@dataclass
class FailureImpact:
    """Accounting for one node failure or departure (one Table 3 row share)."""

    failed_node: int
    blocks_lost: int = 0
    bytes_on_failed_node: int = 0
    bytes_regenerated: int = 0
    bytes_dropped: int = 0
    #: User data (chunk bytes) that became unrecoverable because of this failure.
    data_bytes_lost: int = 0
    chunks_lost: int = 0
    files_damaged: int = 0
    cat_copies_restored: int = 0
    #: Neighbour-replica copies re-created (re-replication / replica
    #: migration), restoring the placement's replication level.
    replicas_restored: int = 0
    #: Bytes copied out ahead of a graceful departure (handle_leave only).
    bytes_migrated: int = 0
    #: Bytes charged to the transfer scheduler for this repair (reads of the
    #: surviving blocks plus migrated copies); 0 in instantaneous mode.
    repair_traffic_bytes: int = 0
    #: Simulated start/finish of the repair's transfers (None when
    #: instantaneous or when nothing had to move).
    repair_started_at: Optional[float] = None
    repair_finished_at: Optional[float] = None
    #: Repair transfers resubmitted after a mid-flight source failure or
    #: timeout (each retry re-plans its read from a surviving copy).
    repair_retries: int = 0
    #: Repair transfers abandoned after exhausting the retry budget.
    repair_transfers_failed: int = 0

    @property
    def time_to_repair(self) -> Optional[float]:
        """Simulated time from failure to the last repair transfer completing."""
        if self.repair_started_at is None or self.repair_finished_at is None:
            return None
        return self.repair_finished_at - self.repair_started_at


class RecoveryManager:
    """Drives block regeneration after failures and migration before leaves.

    With ``transfers=None`` every step applies instantaneously.  With a
    scheduler attached, the logical state change still applies immediately
    (placements are exact at all times) while the bytes the step moves are
    charged to the fair-share bandwidth model; the repair is *complete* --
    for time-to-repair purposes -- when its last transfer drains.
    """

    def __init__(
        self,
        storage: StorageSystem,
        transfers: Optional[TransferScheduler] = None,
        repair_window: Optional[int] = None,
        repair_weight: float = 1.0,
    ) -> None:
        self.storage = storage
        self.dht = storage.dht
        #: Fair-share bandwidth model; ``None`` (the default) keeps every
        #: repair instantaneous.  Read sources are congestion-ranked only when
        #: it also carries a topology, so the access-only and instantaneous
        #: paths keep the seed selection order.
        self.transfers = transfers
        #: The store's tenant: a failure repairs only its chunk and meta rows
        #: (an untagged store's are the default tenant 0's) and tags the
        #: transfers with it -- ``None`` stays untagged, the untagged QoS
        #: oracle.  A departure tags each copy with its row's tenant instead.
        self.tenant = storage.store_tenant
        #: Per-transfer timeout (simulated time) applied to every repair
        #: transfer; ``None`` (the default) preserves untimed transfers.
        self.transfer_timeout: Optional[float] = None
        #: How many times one repair transfer is resubmitted after a failure
        #: or timeout before the bytes are abandoned.
        self.max_retries: int = 3
        #: Base delay of the exponential retry backoff (doubles per attempt).
        self.retry_backoff: float = 1.0
        #: The one repair submission path when a scheduler is attached: the
        #: admission controller of the repair class.  ``repair_window`` bounds
        #: in-flight repair transfers (overflow queues FIFO -- backpressure,
        #: not drops); ``None`` is its pass-through, one batch per submission
        #: (the seed behaviour).  ``repair_weight`` is the class's fair-share
        #: weight (< 1.0 de-prioritises repair below weight-1.0 foreground
        #: traffic on every shared link), checked here.
        self.pacer: Optional[TransferPacer] = None
        if transfers is not None:
            self.pacer = TransferPacer(
                transfers, max_in_flight=repair_window, weight=repair_weight
            )
        #: Transfer specs staged for the failure currently being processed:
        #: ``(size, src, dst, ctx, tenant)`` where ``ctx`` is ``None`` or a
        #: ``(mode, chunk, position)`` re-planning context.
        self._staged: List[
            Tuple[float, Optional[int], Optional[int], Optional[tuple], Optional[int]]
        ] = []
        self.impacts: List[FailureImpact] = []

    # ------------------------------------------------------------------ failure --
    def handle_failure(self, node_id: int) -> FailureImpact:
        """Fail ``node_id`` and regenerate what can be regenerated.

        The node is marked failed in the overlay, removed from the DHT view,
        and each of its unreleased ledger rows is repaired: blocks whose chunk
        is still decodable are re-created on the node now responsible for
        their name (or elsewhere if that node is full); chunks that are no
        longer decodable are counted as lost data.  The rows are the record:
        a copy on the dead node's disk with no unreleased row was already
        repaired or deleted, so a second call on the same node is a no-op.

        The rows come from one read of the ledger's per-owner row index and
        every decodability check is an O(1) counter read; impacts, placements
        and Table 3 rows equal the frozen seed dict-walk outputs
        (``tests/test_churn_equivalence.py``).
        """
        ledger = self.storage.ledger
        node = self.dht.network.node(node_id)
        rows = ledger.recovery_rows(node)
        impact = self._begin(node_id, node)

        if node.alive:
            self.dht.network.fail(node_id)  # the ledger is notified via its listener
        self.dht.remove(node_id)  # incremental boundary patch, not an O(N) rebuild
        records = ledger.row_records(rows)
        ledger.ensure_digests(rows, [record[0] for record in records])

        damaged_files: set[str] = set()
        for row, record in zip(rows, records):
            self._apply_failure_row(row, record, node_id, impact, ledger, damaged_files)
        impact.files_damaged = len(damaged_files)
        self._finish(impact)
        return impact

    def _apply_failure_row(
        self, row: int, record: tuple, failed_node: int, impact: FailureImpact,
        ledger: BlockLedger, damaged_files: set,
    ) -> None:
        """Repair one ledger row (``record``: its :meth:`BlockLedger.row_records` entry)
        of a failed node."""
        name, file_idx, chunk_idx, placement_idx, size, _, tenant = record
        if tenant != (self.tenant or 0):
            return  # another tenant's row: its manager repairs it
        if placement_idx < 0:
            target, copied = self._copy_meta(ledger, row, name, size, impact)
            if not copied:
                return
            impact.bytes_regenerated += size
            if self.transfers is None and not self.storage.payload_mode:
                return
            # Read from a surviving replica in the name's neighbourhood; with
            # none left only the receiver's downlink is charged.
            copies = ledger.meta_disk_serials(row)
            holders = [candidate for candidate in self.dht.neighbors(target.node_id, 8)
                       if candidate.alive and candidate.serial in copies]
            source = next(iter(self._least_congested([h.node_id for h in holders])), None)
            self._stage(size, source, target.node_id)
            if self.storage.payload_mode:
                # The bytes come from a live source, never the dead holder: a
                # surviving copy, else the CAT of the file stored under that
                # name (a restored copy's row names no file).
                payload = next((h.payloads[name] for h in holders if name in h.payloads), None)
                stored = None if payload is not None else self.storage.files.get(naming.cat_file(name))
                if stored is not None:
                    payload = stored.cat.serialize().encode("utf-8")
                if payload is not None:
                    target.payloads[name] = payload
            return
        chunk = ledger.chunk_object(chunk_idx)
        if chunk is None:
            return  # a PAST/CFS copy: the baselines have no regeneration
        if not ledger.chunk_recoverable(chunk_idx):  # below the decode threshold
            damaged_files.add(ledger.file_name(file_idx))
            if not chunk.counted_lost:
                impact.data_bytes_lost += chunk.size
                impact.chunks_lost += 1
                chunk.counted_lost = True
            return
        digest = ledger.row_digest(row)
        # A *primary* loss re-points the placement at a fresh block only when
        # the placement's primary lived on the failed node; otherwise the dead
        # copy was a neighbour replica and is re-replicated -- re-pointing the
        # primary from a replica row would erode the replication level.
        primary = ledger.placement_primary(placement_idx) == failed_node
        if primary:
            new_holder = self._repoint_primary(ledger, row, placement_idx, name, size, digest)
        else:
            new_holder = self._repoint_replica(ledger, row, placement_idx, name, size, digest,
                                               impact)
        if new_holder is None:
            impact.bytes_dropped += size
            return
        impact.bytes_regenerated += size
        if self.transfers is None and not self.storage.payload_mode:
            return
        position = ledger.placement_position(placement_idx)
        dst = new_holder.node_id
        if self.transfers is not None:
            # A lost replica is copied from a surviving holder of the block
            # (one read); a lost primary -- or a replica with no intact copy
            # left -- is decoded from ``required`` reads of the other placements.
            source = None if primary else self._copy_source(placement_idx, {failed_node, dst})
            if source is not None:
                self._stage(size, source, dst, ("copy", chunk, position))
            else:
                for source in self.regeneration_sources(chunk, position):
                    self._stage(size, source, dst, ("regen", chunk, position))
        if not self.storage.payload_mode:
            return
        network = self.dht.network
        holders = [network.node(holder) for holder in ledger.placement_holders(placement_idx)
                   if holder in network]
        if not primary:
            payload = next((h.payloads[name] for h in holders if name in h.payloads), None)
            if payload is not None:
                new_holder.payloads[name] = payload
        elif chunk.encoded is not None and position < len(chunk.encoded.blocks):
            payload = chunk.encoded.blocks[position].data
            fresh = self._fresh_check_block(chunk)
            if fresh is not None:
                # Rateless repair (Section 4.4): the replacement is a *new*
                # check block continuing the stream, not a byte-identical
                # copy of the lost one.
                chunk.encoded.blocks[position] = fresh
                payload = fresh.data
            # The new primary gets it, and surviving replicas -- which still
            # hold the *old* payload under this block name -- are refreshed so
            # a later fetch cannot serve stale bytes keyed by the new index.
            for holder in holders:
                if holder is new_holder or name in holder.payloads:
                    holder.payloads[name] = payload

    def _fresh_check_block(self, chunk: StoredChunk):
        """Mint a brand-new encoded block for a rateless chunk, if possible.

        Returns ``None`` for non-rateless codes (their repair re-places the
        original payload) and when the stored blocks no longer determine the
        chunk.  For the online code, ``generate_additional_blocks`` continues
        the check-block stream straight from the stored blocks: the new block
        is one XOR of some of them, so nothing is decoded, and the cached
        code-structure layer reuses the graph the encoder built.
        """
        code = self.storage.codec.code
        if not hasattr(code, "generate_additional_blocks") or chunk.encoded is None:
            return None
        encoded = chunk.encoded
        try:
            (block,) = code.generate_additional_blocks(
                encoded, {b.index: b.data for b in encoded.blocks}, 1
            )
        except DecodingError:  # peeling stalled: fall back to copying the lost payload
            return None
        encoded.metadata["output_blocks"] = block.index + 1
        return block

    # ---------------------------------------------------------------- departure --
    def handle_leave(self, node_id: int) -> FailureImpact:
        """Gracefully migrate a node's blocks out, then remove it.

        The departing node's copies are *moved* (each block crosses the
        network once, charged to the node's uplink) to the nodes that become
        responsible for them -- the same targets the post-failure regeneration
        pipeline would pick -- before :meth:`~repro.overlay.network.
        OverlayNetwork.leave` releases whatever could not be placed.  On a
        multi-tenant ledger the PAST/CFS copies migrate too.
        When redundancy is intact and capacity suffices, the resulting
        placements are identical to failing the node and regenerating
        (``tests/test_soak.py``'s migration-conserves-bytes oracle).
        """
        node = self.dht.network.node(node_id)
        ledger = self.storage.ledger
        rows = ledger.recovery_rows(node)
        impact = self._begin(node_id, node)

        self.dht.remove(node_id)  # lookups now exclude the departing node
        records = ledger.row_records(rows)
        ledger.ensure_digests(rows, [record[0] for record in records])
        for row, record in zip(rows, records):
            self._apply_migration_row(row, record, node, impact, ledger)
        self._finish(impact)
        self.dht.network.leave(node_id)  # releases whatever was not migrated
        return impact

    def _apply_migration_row(
        self, row: int, record: tuple, node: OverlayNode, impact: FailureImpact,
        ledger: BlockLedger,
    ) -> None:
        """Copy one ledger row (``record``: its :meth:`BlockLedger.row_records` entry)
        of a departing node out.

        Every tenant's rows migrate: the departure is final (``network.leave``
        permanently releases whatever stays behind, and no other tenant's
        manager can run on a node that already left), and the ledger
        bookkeeping is tenant-exact either way.  A copy's bytes (payload
        mode) live on the leaving node, so they move with it, whoever owns them.
        """
        name, file_idx, chunk_idx, placement_idx, size, kind, tenant = record
        # The transfer tag follows the *row's* tenant; a single-tenant ledger
        # keeps the manager's own tag so the untagged oracle holds end to end.
        tag = tenant if ledger.multi_tenant else None
        leaving = node.node_id
        payload = node.payloads.get(name)
        if placement_idx < 0:
            target, copied = self._copy_meta(ledger, row, name, size, impact)
            if copied:
                impact.bytes_migrated += size
                self._stage(size, leaving, target.node_id, tenant=tag)
            if payload is not None and target.alive and target.serial in ledger.meta_disk_serials(row):
                target.payloads.setdefault(name, payload)
        elif ledger.chunk_object(chunk_idx) is None:
            # A baseline (PAST/CFS) copy goes where the baseline would
            # re-insert it -- the name's root, or the root's neighbourhood
            # (where a fellow replica usually already sits on the root) -- and
            # keeps its kind, so a moved primary stays the placement's primary.
            placed = self.place_block(name, size, ledger.row_key(row),
                                      ledger.placement_disk_serials(placement_idx))
            if placed is None:
                impact.bytes_dropped += size
            else:
                impact.bytes_migrated += size
                self._stage(size, leaving, placed.node_id, tenant=tag)
                ledger.replace_copy(row, placed, size, ledger.row_digest(row), kind)
        else:
            chunk = ledger.chunk_object(chunk_idx)
            position = ledger.placement_position(placement_idx)
            digest = ledger.row_digest(row)
            primary = ledger.placement_primary(placement_idx) == leaving
            if primary:
                new_holder = self._repoint_primary(ledger, row, placement_idx, name, size, digest)
            else:
                new_holder = self._repoint_replica(ledger, row, placement_idx, name, size, digest,
                                                   impact)
            if new_holder is None:
                impact.bytes_dropped += size
                if primary:
                    return  # the primary stays on the leaving node until ``network.leave``
            else:
                impact.bytes_migrated += size
                dst = new_holder.node_id
                self._stage(size, leaving, dst, ("copy", chunk, position), tag)
                if payload is not None:
                    new_holder.payloads[name] = payload
        node.remove_block(name, size)

    # ------------------------------------------------------------- copy steps --
    def place_block(self, block_name: str, size: int, key: int, exclude) -> Optional[OverlayNode]:
        """Find a live node to hold a re-created copy (``key``: the row's digest).

        When the responsible node lacks capacity the paper adopts "drop and
        create another one at a different location": walk the target's
        neighbours until one accepts (``None`` when none does).  The failed or
        departing node has already left the DHT view, so it is never a
        candidate; nor is a node whose serial is in ``exclude`` (the block's
        on-disk holders: a node never takes a second copy of one block).
        """
        target = self.dht.locate_key(key)
        placed = (first_fits((target,), block_name, size, exclude)
                  or first_fits(self.dht.neighbors(target.node_id, 8), block_name, size, exclude))
        return placed[0] if placed else None

    def _repoint_primary(
        self, ledger: BlockLedger, row: int, placement_idx: int, name: str, size: int,
        digest: bytes,
    ) -> Optional[OverlayNode]:
        """Place a new primary copy (keyed by ``digest``) and re-point the placement at it.

        The old primary's ``row`` leaves the placement in the ledger; the
        placement keeps its replicas.  Returns the new holder, or ``None``
        when no node near the name's root has room.
        """
        new_holder = self.place_block(name, size, int.from_bytes(digest, "big"),
                                      ledger.placement_disk_serials(placement_idx))
        if new_holder is None:
            return None
        ledger.replace_copy(row, new_holder, size, digest, KIND_PRIMARY)
        return new_holder

    def _repoint_replica(
        self, ledger: BlockLedger, row: int, placement_idx: int, name: str, size: int,
        digest: bytes, impact: FailureImpact,
    ) -> Optional[OverlayNode]:
        """Swap a gone neighbour replica (``row``) for a new copy near the primary.

        The new copy goes to the first node of the primary's identifier-space
        neighbourhood -- where the original replication pass looked -- that
        has no copy on disk and has room; the gone holder's row is then
        released.  The disk exclusion covers every holder: the neighbourhood
        leaves out the primary's own id, and every other holder id belongs
        to the (up or down) node owning an unreleased row, since a node id is
        free to rejoin only after its rows were released.  With no room
        anywhere the row stays, dead but revivable.  Returns the new holder,
        or ``None``.
        """
        placed = first_fits(self.dht.neighbors(ledger.placement_primary(placement_idx), 8),
                            name, size, ledger.placement_disk_serials(placement_idx))
        if not placed:
            return None
        new_holder = placed[0]
        impact.replicas_restored += 1
        ledger.replace_copy(row, new_holder, size, digest, KIND_REPLICA)
        return new_holder

    def _copy_meta(
        self, ledger: BlockLedger, row: int, name: str, size: int, impact: FailureImpact
    ) -> Tuple[OverlayNode, bool]:
        """Re-create a CAT / metadata copy on the node responsible for its name.

        One lookup and no relocation walk; nothing happens when that node
        already holds a copy of the CAT or is full.  The restored row keeps the
        row's file and tenant.  Returns the responsible node and whether a
        copy was made.
        """
        target = self.dht.locate_key(ledger.row_key(row))
        if not first_fits((target,), name, size, ledger.meta_disk_serials(row)):
            return target, False
        impact.cat_copies_restored += 1
        ledger.restore_meta_copy(target, row)
        return target, True

    # ---------------------------------------------------------- read sources --
    def _least_congested(self, ids: List[int]) -> List[int]:
        """``ids`` ranked by outbound path congestion, least congested first.

        Sources whose uplink/rack/site stages are saturated sort last, so a
        repair read prefers copies reachable without crossing a hot trunk.
        The sort is stable and gated on an attached topology: with no
        topology (or an unconstrained one, where every congestion is 0) the
        placement order is kept exactly -- the infinite-core oracle's
        selection guarantee.
        """
        transfers = self.transfers
        if transfers is None or transfers.topology is None or len(ids) < 2:
            return ids
        return sorted(ids, key=transfers.source_congestion)

    def regeneration_sources(self, chunk: StoredChunk, skip_position: int) -> List[int]:
        """Live node ids a regeneration reads its ``required`` input blocks from.

        One surviving copy per placement (the decoder needs ``required``
        distinct blocks of the chunk), skipping the placement being repaired,
        congestion-ranked before truncation to ``required``.  Only consulted
        when a transfer scheduler is charging repair traffic.
        """
        ledger = self.storage.ledger
        sources = []
        for position, placement_idx in enumerate(
            ledger.chunk_placement_indexes(chunk.ledger_index)
        ):
            owner = ledger.live_copy_owner(placement_idx) if position != skip_position else None
            if owner is not None:
                sources.append(owner.node_id)
        return self._least_congested(sources)[: self.storage.codec.spec().required_blocks()]

    def _copy_source(self, placement_idx: int, exclude: set) -> Optional[int]:
        """A live holder of the placement's block a copy can be read from."""
        holders = [node_id for node_id in self.storage.live_holders(placement_idx)
                   if node_id not in exclude]
        return next(iter(self._least_congested(holders)), None)

    def _replan_source(
        self, ctx: Optional[tuple], failed_src: Optional[int], dst: Optional[int]
    ) -> Optional[int]:
        """Pick a surviving node for a retried repair read.

        ``("copy", chunk, position)`` retries prefer another intact copy of
        the *same* placement (primary or neighbour replica); ``("regen", ...)``
        retries -- and copy retries with no intact copy left -- fall back to
        the decode-read sources of the chunk's other placements.  ``None``
        charges the receiver's downlink only (context-free transfers such as
        meta restores keep their original endpoints).
        """
        if ctx is None:
            return failed_src
        mode, chunk, position = ctx
        exclude = {x for x in (failed_src, dst) if x is not None}
        if mode == "copy":
            source = self._copy_source(
                self.storage.ledger.placement_for(chunk.ledger_index, position), exclude)
            if source is not None:
                return source
        return next(
            (src for src in self.regeneration_sources(chunk, position) if src not in exclude),
            None,
        )

    # -------------------------------------------------------------- transfers --
    def _begin(self, node_id: int, node: OverlayNode) -> FailureImpact:
        """A new impact for ``node``; its repair traffic starts now."""
        # Every copy on the node's disk, in whichever ledgers hold its rows.
        on_disk = node.disk_sizes()
        impact = FailureImpact(
            failed_node=node_id,
            blocks_lost=len(on_disk),
            bytes_on_failed_node=sum(on_disk),
        )
        self._staged = []
        if self.transfers is not None:
            impact.repair_started_at = self.transfers.sim.now
        return impact

    def _stage(
        self,
        size: float,
        src: Optional[int],
        dst: Optional[int],
        ctx: Optional[tuple] = None,
        tenant: Optional[int] = None,
    ) -> None:
        if self.transfers is not None:
            self._staged.append(
                (size, src, dst, ctx, self.tenant if tenant is None else tenant)
            )

    def _finish(self, impact: FailureImpact) -> None:
        """Submit the staged transfers, wire the completion accounting, record ``impact``.

        Each transfer that fails mid-flight -- a link on its path cut to zero,
        or its :attr:`transfer_timeout` expired (``None`` unless a caller sets
        it) -- is resubmitted after an exponential backoff with its read
        re-planned onto a surviving copy, up to :attr:`max_retries` times; the
        repair is complete when every staged byte has either drained or been
        abandoned.  A node failure alone does not fail a transfer: the fabric
        does not watch liveness, so bytes from a source that died mid-flight
        still arrive.
        """
        self.impacts.append(impact)
        staged, self._staged = self._staged, []
        if self.transfers is None or not staged:
            return
        state = {"pending": len(staged)}

        def settle() -> None:
            state["pending"] -= 1
            if state["pending"] == 0:
                impact.repair_finished_at = self.transfers.sim.now

        def submit_spec(size, src, dst, ctx, tenant, attempt) -> TransferSpec:
            def on_failed(
                transfer, size=size, dst=dst, ctx=ctx, tenant=tenant, attempt=attempt
            ) -> None:
                if attempt >= self.max_retries:
                    impact.repair_transfers_failed += 1
                    settle()
                    return
                impact.repair_retries += 1
                new_src = self._replan_source(ctx, transfer.src, dst)
                delay = self.retry_backoff * (2.0 ** attempt)
                spec = submit_spec(size, new_src, dst, ctx, tenant, attempt + 1)
                self.transfers.sim.schedule(
                    delay, lambda spec=spec: self.pacer.submit_many([spec])
                )

            impact.repair_traffic_bytes += int(size)
            return TransferSpec(
                size, src, dst,
                on_complete=lambda _t: settle(),
                on_failed=on_failed,
                timeout=self.transfer_timeout,
                tenant=tenant,
            )

        self.pacer.submit_many(
            [
                submit_spec(size, src, dst, ctx, tenant, 0)
                for size, src, dst, ctx, tenant in staged
            ]
        )

    # ---------------------------------------------------------------- CAT rebuild --
    def rebuild_cat(self, filename: str, probe_limit: Optional[int] = None) -> ChunkAllocationTable:
        """Reconstruct a file's CAT by probing chunk names one by one.

        Section 4.4: chunk sizes are discovered incrementally; a missing chunk
        either means a zero-sized chunk or the end of the file, and because
        consecutive zero-sized chunks are bounded, probing one past the limit
        pins down the true end of the file.  A probe finds a chunk only while
        the ledger holds a live copy of one of its blocks, so a chunk whose
        every copy is gone reads as missing and the rebuilt table comes out
        short.
        """
        stored = self.storage.files.get(filename)
        if stored is None:
            raise KeyError(f"unknown file: {filename!r}")
        limit = (
            probe_limit
            if probe_limit is not None
            else self.storage.policy.max_consecutive_zero_chunks + 1
        )
        sizes: List[int] = []
        missing_run = 0
        chunk_no = 1
        while missing_run < limit:
            chunk = stored.chunks[chunk_no - 1] if chunk_no <= len(stored.chunks) else None
            found = (chunk is not None and chunk.ledger_index is not None
                     and chunk.ledger.chunk_live_blocks(chunk.ledger_index) > 0)
            size = chunk.size if found else 0
            sizes.append(size)
            missing_run = 0 if size else missing_run + 1
            chunk_no += 1
        # Trim the trailing zero probes that only served to detect the end.
        while sizes and sizes[-1] == 0:
            sizes.pop()
        return ChunkAllocationTable.from_chunk_sizes(filename, sizes)

    # ---------------------------------------------------------------- summaries --
    def totals(self) -> Dict[str, float]:
        """Aggregated accounting across all handled failures (Table 3 totals)."""
        if not self.impacts:
            return {
                "failures": 0.0,
                "total_regenerated_bytes": 0.0,
                "total_data_lost_bytes": 0.0,
                "total_migrated_bytes": 0.0,
                "mean_regenerated_per_failure": 0.0,
                "std_regenerated_per_failure": 0.0,
            }
        import numpy as np

        regenerated = np.asarray([impact.bytes_regenerated for impact in self.impacts], dtype=float)
        lost = float(sum(impact.data_bytes_lost for impact in self.impacts))
        migrated = float(sum(impact.bytes_migrated for impact in self.impacts))
        return {
            "failures": float(len(self.impacts)),
            "total_regenerated_bytes": float(regenerated.sum()),
            "total_data_lost_bytes": lost,
            "total_migrated_bytes": migrated,
            "mean_regenerated_per_failure": float(regenerated.mean()),
            "std_regenerated_per_failure": float(regenerated.std()),
        }

    def repair_times(self) -> List[float]:
        """Time-to-repair of every impact whose transfers have drained."""
        return [
            impact.time_to_repair
            for impact in self.impacts
            if impact.time_to_repair is not None
        ]
