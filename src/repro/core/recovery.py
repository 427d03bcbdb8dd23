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
* if the newly responsible node lacks capacity, the block is either dropped
  and re-created at a different location (the paper's adopted choice, possible
  because of the rateless online code) or skipped, per policy;
* CAT objects are re-replicated, and a lost CAT can be rebuilt by probing
  chunk names one past the zero-chunk limit (Section 4.4).

The ledger's unreleased rows of a node are the one record of what it held
(:meth:`~repro.core.block_ledger.BlockLedger.recovery_rows`, the paper's "list
of blocks stored on its neighbors"): :class:`RecoveryManager` walks them and
nothing else.  A name still in a dead node's ``stored_blocks`` dict with no
unreleased row was already repaired or deleted, so repairing a node twice is a
no-op.  Two collaborators do the per-row work:

* :class:`RepairPlanner` *selects* which surviving nodes a regeneration
  reads from (congestion-ranked when a topology is attached);
* :class:`RepairExecutor` *applies* each step: it places the
  replacement copy (DHT lookup plus the rateless relocation walk), re-points
  the placement bookkeeping, mirrors the ledger, and -- when a
  :class:`~repro.core.transfer.TransferScheduler` is attached -- charges the
  bytes that step moves to the fair-share bandwidth model so repairs take
  simulated *time*.

Classification and execution stay interleaved (one row is classified and
applied before the next is read) because placement decisions consume capacity
that later decisions must observe -- exactly the seed ordering.  With no
scheduler attached (``transfers=None``, the default) the executor applies
every step instantaneously and the impacts, totals and placements equal the
frozen seed outputs in ``tests/golden/``; the oracle is
``tests/test_churn_equivalence.py``.

Graceful departures (:meth:`RecoveryManager.handle_leave`) are first-class:
the departing node's blocks are *copied out* to the nodes now responsible for
them before it leaves -- CFS and PAST both define this migration as
first-class, and their whole-file/stripe replica rows on a shared multi-tenant
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

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.block_ledger import BlockLedger, TenantLedgerView
from repro.core.cat import ChunkAllocationTable
from repro.core.storage import BlockPlacement, StorageSystem, StoredChunk
from repro.core.transfer import TransferPacer, TransferScheduler, TransferSpec
from repro.erasure.base import DecodingError
from repro.overlay.ids import NodeId
from repro.overlay.node import OverlayNode


@dataclass
class FailureImpact:
    """Accounting for one node failure or departure (one Table 3 row share)."""

    failed_node: NodeId
    blocks_lost: int = 0
    bytes_on_failed_node: int = 0
    bytes_regenerated: int = 0
    bytes_relocated: int = 0
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


class RepairPlanner:
    """Selects the surviving nodes a repair reads from.

    The planner never mutates placement state; it is consulted once per
    repaired row (and once per retried transfer), after the steps before it
    have been applied, because executing a step consumes target capacity and
    creates copies that later selections observe.
    """

    def __init__(self, storage: StorageSystem, transfers: Optional[TransferScheduler]) -> None:
        self.storage = storage
        #: Transfer scheduler consulted for congestion-aware source ranking;
        #: ranking activates only when it also carries a topology, so the
        #: access-only and instantaneous paths keep the seed selection order.
        self.transfers = transfers

    def _rank_sources(self, candidates: list, early_stop: int) -> list:
        """Stable-sort read-source candidates by outbound path congestion.

        Candidates whose uplink/rack/site stages are saturated sort last, so
        a repair read prefers copies reachable without crossing a hot trunk.
        The sort is stable and gated on an attached topology: with no
        topology (or an unconstrained one, where every congestion is 0) the
        original placement order is preserved exactly -- the infinite-core
        oracle's selection guarantee.
        """
        transfers = self.transfers
        if transfers is None or transfers.topology is None or len(candidates) <= 1:
            return candidates[:early_stop]
        ranked = sorted(
            candidates,
            key=lambda node: transfers.source_congestion(int(node.node_id)),
        )
        return ranked[:early_stop]

    # ---------------------------------------------------------- read sources --
    def regeneration_sources(self, chunk: StoredChunk, skip_position: int) -> List[OverlayNode]:
        """Live nodes a regeneration reads its ``required`` input blocks from.

        One surviving copy per placement (the decoder needs ``required``
        distinct blocks of the chunk), skipping the placement being repaired.
        Only consulted when a transfer scheduler is charging repair traffic.
        With a topology attached the candidates are congestion-ranked (least
        saturated outbound path first) before truncation to ``required``.
        """
        required = self.storage.codec.spec().required_blocks()
        rank = self.transfers is not None and self.transfers.topology is not None
        sources: List[OverlayNode] = []
        ledger = self.storage.ledger
        for position, placement_idx in enumerate(
            ledger.chunk_placement_indexes(chunk.ledger_index)
        ):
            if position == skip_position:
                continue
            owner = ledger.live_copy_owner(placement_idx)
            if owner is not None:
                sources.append(owner)
                if not rank and len(sources) >= required:
                    break
        return self._rank_sources(sources, required)


class RepairExecutor:
    """Applies repair/migration steps: placement, bookkeeping, bandwidth.

    With ``transfers=None`` every step applies instantaneously.  With a
    scheduler attached, the logical state change still applies immediately
    (placements are exact at all times) while the bytes the step moves are
    charged to the fair-share bandwidth model; the repair is *complete* --
    for time-to-repair purposes -- when its last transfer drains.
    """

    def __init__(
        self,
        storage: StorageSystem,
        transfers: Optional[TransferScheduler],
        planner: RepairPlanner,
        repair_weight: float,
        tenant: Optional[int],
        pacer: Optional[TransferPacer],
    ) -> None:
        self.storage = storage
        self.dht = storage.dht
        self.transfers = transfers
        #: Picks the decode-read sources of a regeneration, and of a failed
        #: repair transfer that re-plans its read from a surviving copy.
        self.planner = planner
        #: Per-transfer timeout (simulated time) applied to every repair
        #: transfer; ``None`` (the default) preserves untimed transfers.
        self.transfer_timeout: Optional[float] = None
        #: How many times one repair transfer is resubmitted after a failure
        #: or timeout before the bytes are abandoned.
        self.max_retries: int = 3
        #: Base delay of the exponential retry backoff (doubles per attempt).
        self.retry_backoff: float = 1.0
        #: Fair-share weight of repair transfers (< 1.0 de-prioritises repair
        #: below weight-1.0 foreground traffic on every shared link).
        self.repair_weight = repair_weight
        #: Optional admission controller: repair submissions beyond its
        #: bounded in-flight window are queued (never dropped) and drain as
        #: completions free slots -- the recovery-storm backpressure valve.
        #: ``None`` submits directly (the seed behaviour).
        self.pacer = pacer
        #: Tenant tag charged to this executor's repair transfers (``None`` =
        #: untagged, the single-tenant default).  A store built on a
        #: :class:`~repro.core.block_ledger.TenantLedgerView` repairs under
        #: its own tenant; cross-tenant migrations pass the row's tenant
        #: explicitly.
        self.tenant = tenant
        #: Transfer specs staged for the failure currently being processed:
        #: ``(size, src, dst, ctx, tenant)`` where ``ctx`` is ``None`` or a
        #: ``(mode, chunk, position)`` re-planning context.
        self._staged: List[
            Tuple[float, Optional[int], Optional[int], Optional[tuple], Optional[int]]
        ] = []

    # -------------------------------------------------------------- staging --
    def begin(self, impact: FailureImpact) -> None:
        """Start charging a new failure's repair traffic."""
        self._staged = []
        if self.transfers is not None:
            impact.repair_started_at = self.transfers.sim.now

    def finish(self, impact: FailureImpact) -> None:
        """Submit the staged transfers and wire the completion accounting.

        Each transfer that fails mid-flight (source endpoint died, bandwidth
        cut to zero, or deadline expired) is resubmitted after an exponential
        backoff with its read re-planned onto a surviving copy, up to
        :attr:`max_retries` times; the repair is complete when every staged
        byte has either drained or been abandoned.
        """
        if self.transfers is None or not self._staged:
            self._staged = []
            return
        staged = self._staged
        self._staged = []
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
                    delay, lambda spec=spec: self._submit([spec])
                )

            impact.repair_traffic_bytes += int(size)
            return TransferSpec(
                size, src, dst,
                on_complete=lambda _t: settle(),
                on_failed=on_failed,
                timeout=self.transfer_timeout,
                tenant=tenant,
            )

        self._submit(
            [
                submit_spec(size, src, dst, ctx, tenant, 0)
                for size, src, dst, ctx, tenant in staged
            ]
        )

    def _submit(self, specs: List[TransferSpec]) -> None:
        """Route repair specs through the admission window (when configured).

        Without a pacer the specs go straight to the scheduler tagged with
        the repair weight class -- weight 1.0 is arithmetically the unweighted
        seed path, so the default stays bit-identical.  The tenant tag rides
        through either route.
        """
        if self.pacer is not None:
            self.pacer.submit_many(specs)
        else:
            self.transfers.submit_many(
                [replace(spec, weight=self.repair_weight) for spec in specs]
            )

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
        if mode == "copy" and 0 <= position < len(chunk.placements):
            source = self._copy_source(chunk, position, exclude)
            if source is not None:
                return source
        for source in self.planner.regeneration_sources(chunk, position):
            if int(source.node_id) not in exclude:
                return int(source.node_id)
        return None

    # ------------------------------------------------------------ regenerate --
    def apply_regeneration(
        self,
        chunk: StoredChunk,
        placement_index: int,
        block_name: str,
        size: int,
        failed_node: NodeId,
        impact: FailureImpact,
        key: int,
        digest: bytes,
    ) -> None:
        """Re-create one lost block and re-point its placement.

        Regenerating the block requires reading the surviving blocks of the
        chunk (cost charged by the Table 3 experiment as "data regenerated",
        and by the transfer scheduler as ``required`` reads of ``size`` bytes
        each).  The placement re-point is mirrored into the ledger.
        """
        sources: List[OverlayNode] = []
        if self.transfers is not None:
            # Collected before the re-point so the fresh copy is never a source.
            sources = self.planner.regeneration_sources(chunk, placement_index)
        new_holder = self.place_block(block_name, size, exclude=failed_node, key=key)
        if new_holder is None:
            impact.bytes_dropped += size
            return
        old_placement = chunk.placements[placement_index]
        chunk.placements[placement_index] = BlockPlacement(
            block_name=block_name,
            node_id=new_holder.node_id,
            size=size,
            replica_nodes=old_placement.replica_nodes,
        )
        impact.bytes_regenerated += size
        for source in sources:
            self._stage(
                size,
                int(source.node_id),
                int(new_holder.node_id),
                ("regen", chunk, placement_index),
            )
        ledger = self.storage.ledger
        ledger.replace_primary(
            ledger.placement_for(chunk.ledger_index, placement_index),
            int(old_placement.node_id),
            new_holder,
            block_name,
            size,
            digest,
        )
        if self.storage.payload_mode and chunk.encoded is not None:
            index = placement_index
            if index < len(chunk.encoded.blocks):
                payload = chunk.encoded.blocks[index].data
                fresh = self._fresh_check_block(chunk)
                if fresh is not None:
                    # Rateless repair (Section 4.4): the replacement is a *new*
                    # check block continuing the stream, not a byte-identical
                    # copy of the lost one.
                    chunk.encoded.blocks[index] = fresh
                    payload = fresh.data
                self.storage._block_payloads[(int(new_holder.node_id), block_name)] = payload
                # Surviving replicas still hold the *old* payload under this
                # block name; refresh them so a later fetch from a replica
                # cannot serve stale bytes keyed by the new stream index.
                for replica_id in old_placement.replica_nodes:
                    replica_key = (int(replica_id), block_name)
                    if replica_key in self.storage._block_payloads:
                        self.storage._block_payloads[replica_key] = payload

    def _fresh_check_block(self, chunk: StoredChunk):
        """Mint a brand-new encoded block for a rateless chunk, if possible.

        Returns ``None`` for non-rateless codes (their repair re-places the
        original payload).  For the online code, the surviving blocks are
        decoded and ``generate_additional_blocks`` continues the check-block
        stream -- the cached code-structure layer means this reuses the graph
        the encoder built rather than re-deriving it.
        """
        code = self.storage.codec.code
        if not hasattr(code, "generate_additional_blocks") or chunk.encoded is None:
            return None
        encoded = chunk.encoded
        try:
            data = code.decode(encoded, {b.index: b.data for b in encoded.blocks})
        except DecodingError:  # peeling stalled: fall back to copying the lost payload
            return None
        (block,) = code.generate_additional_blocks(encoded, data, 1)
        encoded.metadata["output_blocks"] = block.index + 1
        return block

    # ---------------------------------------------------------- re-replicate --
    def apply_rereplication(
        self,
        chunk: StoredChunk,
        placement_index: int,
        block_name: str,
        size: int,
        failed_node: NodeId,
        impact: FailureImpact,
        key: int,
        digest: bytes,
    ) -> None:
        """Re-create a lost neighbour-replica copy (durability repair).

        The primary placement is untouched; a fresh copy of the *same* block
        is placed near the primary (the same neighbourhood the original
        replication walk used) and swapped into ``placement.replica_nodes``
        for the dead holder, restoring the placement's replication level.
        The copy is read from a surviving holder of the block (one ``size``
        read, not ``required`` decode reads); only when no intact copy is
        left is the replica regenerated from the chunk's other placements.
        """
        old_placement = chunk.placements[placement_index]
        survivors = tuple(
            nid for nid in old_placement.replica_nodes if int(nid) != int(failed_node)
        )
        new_holder = self.place_replica(old_placement, block_name, size, exclude=failed_node)
        if new_holder is None:
            chunk.placements[placement_index] = BlockPlacement(
                block_name=block_name,
                node_id=old_placement.node_id,
                size=size,
                replica_nodes=survivors,
            )
            impact.bytes_dropped += size
            return
        chunk.placements[placement_index] = BlockPlacement(
            block_name=block_name,
            node_id=old_placement.node_id,
            size=size,
            replica_nodes=survivors + (new_holder.node_id,),
        )
        impact.bytes_regenerated += size
        impact.replicas_restored += 1
        if self.transfers is not None:
            source = self._copy_source(
                chunk, placement_index, exclude={int(failed_node), int(new_holder.node_id)}
            )
            if source is not None:
                self._stage(
                    size, source, int(new_holder.node_id), ("copy", chunk, placement_index)
                )
            else:
                for src in self.planner.regeneration_sources(chunk, placement_index):
                    self._stage(
                        size,
                        int(src.node_id),
                        int(new_holder.node_id),
                        ("regen", chunk, placement_index),
                    )
        ledger = self.storage.ledger
        ledger.replace_replica(
            ledger.placement_for(chunk.ledger_index, placement_index),
            int(failed_node),
            new_holder,
            block_name,
            size,
            digest,
        )
        if self.storage.payload_mode:
            payloads = self.storage._block_payloads
            for holder in (int(old_placement.node_id), *(int(nid) for nid in survivors)):
                payload = payloads.get((holder, block_name))
                if payload is not None:
                    payloads[(int(new_holder.node_id), block_name)] = payload
                    break
            payloads.pop((int(failed_node), block_name), None)

    def place_replica(
        self, placement: BlockPlacement, block_name: str, size: int, exclude: NodeId
    ) -> Optional[OverlayNode]:
        """Pick a live node near the primary for a re-created replica copy.

        Walks the primary's identifier-space neighbourhood -- the same nodes
        the original replication pass considered -- skipping the primary,
        the dead/departing holder and the surviving replicas.
        """
        taken = {int(placement.node_id), int(exclude)}
        taken.update(int(nid) for nid in placement.replica_nodes)
        for candidate in self.dht.neighbors(placement.node_id, 8):
            if int(candidate.node_id) in taken:
                continue
            if candidate.store_block(block_name, size):
                return candidate
        return None

    def _copy_source(self, chunk: StoredChunk, position: int, exclude: set) -> Optional[int]:
        """A live holder of the placement's block a copy can be read from.

        With a topology attached, the least congested holder (outbound path)
        wins; ties -- and the no-topology path -- keep the primary-first
        placement order.
        """
        placement = chunk.placements[position]
        network = self.dht.network
        candidates: List[int] = []
        for node_id in (placement.node_id, *placement.replica_nodes):
            if int(node_id) in exclude:
                continue
            if node_id in network and network.node(node_id).has_block(placement.block_name):
                if self.transfers is None or self.transfers.topology is None:
                    return int(node_id)
                candidates.append(int(node_id))
        if not candidates:
            return None
        # min() keeps the first of tied candidates, so zero congestion
        # everywhere reproduces the placement-order pick exactly.
        return min(candidates, key=self.transfers.source_congestion)

    def place_block(
        self, block_name: str, size: int, exclude: NodeId, key: int
    ) -> Optional[OverlayNode]:
        """Find a live node to hold a regenerated or migrated block (``key``: the row's digest).

        When the responsible node lacks capacity the paper adopts "drop and
        create another one at a different location": walk the target's
        neighbours until one accepts (``None`` when none does).
        """
        target = self.dht.locate_key(key)
        if target.node_id != exclude and target.store_block(block_name, size):
            return target
        for candidate in self.dht.neighbors(target.node_id, 8):
            if candidate.node_id == exclude:
                continue
            if candidate.store_block(block_name, size):
                return candidate
        return None

    # ------------------------------------------------------------------ meta --
    def restore_object_copy(
        self,
        name: str,
        size: int,
        impact: FailureImpact,
        key: int,
        digest: bytes,
    ) -> None:
        target = self.dht.locate_key(key)
        if target.has_block(name):
            # The responsible node already has a replica; nothing to do.
            return
        if target.store_block(name, size):
            impact.cat_copies_restored += 1
            impact.bytes_regenerated += size
            # The restore is read from a surviving CAT replica in the name's
            # neighbourhood, charging that node's uplink; only when no live
            # replica is found does the charge fall back to the receiver's
            # downlink alone.
            self._stage(size, self._meta_source(name, target), int(target.node_id))
            self.storage.ledger.restore_meta_copy(target, name, size, digest)

    def _meta_source(self, name: str, target: OverlayNode) -> Optional[int]:
        """The surviving replica a meta/CAT restore copies its bytes from.

        Congestion-ranked like the block reads: with a topology attached the
        least loaded surviving replica serves the restore.
        """
        if self.transfers is None:
            return None
        candidates: List[int] = []
        for candidate in self.dht.neighbors(target.node_id, 8):
            if candidate.node_id != target.node_id and candidate.has_block(name):
                if self.transfers.topology is None:
                    return int(candidate.node_id)
                candidates.append(int(candidate.node_id))
        if not candidates:
            return None
        return min(candidates, key=self.transfers.source_congestion)

    # ------------------------------------------------------------- migration --
    def migrate_block(
        self,
        chunk: StoredChunk,
        placement_index: int,
        block_name: str,
        size: int,
        leaving: OverlayNode,
        impact: FailureImpact,
        key: int,
        digest: bytes,
        tenant: Optional[int],
    ) -> None:
        """Copy one encoded block off a departing node before it leaves.

        Unlike regeneration, migration moves the existing bytes once
        (``size`` bytes over the departing node's uplink) -- no surviving
        blocks are read and no fresh check block is minted.  The placement is
        re-pointed at the node now responsible for the name, exactly where the
        regeneration path would have re-created it.  ``tenant`` charges the
        copy to the row's tenant (``None`` = the executor's own).
        """
        new_holder = self.place_block(block_name, size, exclude=leaving.node_id, key=key)
        if new_holder is None:
            impact.bytes_dropped += size
            return
        old_placement = chunk.placements[placement_index]
        chunk.placements[placement_index] = BlockPlacement(
            block_name=block_name,
            node_id=new_holder.node_id,
            size=size,
            replica_nodes=old_placement.replica_nodes,
        )
        impact.bytes_migrated += size
        self._stage(
            size, int(leaving.node_id), int(new_holder.node_id),
            ("copy", chunk, placement_index), tenant,
        )
        ledger = self.storage.ledger
        ledger.replace_primary(
            ledger.placement_for(chunk.ledger_index, placement_index),
            int(old_placement.node_id),
            new_holder,
            block_name,
            size,
            digest,
        )
        if self.storage.payload_mode:
            payload_key = (int(leaving.node_id), block_name)
            payload = self.storage._block_payloads.pop(payload_key, None)
            if payload is not None:
                self.storage._block_payloads[(int(new_holder.node_id), block_name)] = payload
        leaving.remove_block(block_name)

    def migrate_replica(
        self,
        chunk: StoredChunk,
        placement_index: int,
        block_name: str,
        size: int,
        leaving: OverlayNode,
        impact: FailureImpact,
        key: int,
        digest: bytes,
        tenant: Optional[int],
    ) -> None:
        """Copy a neighbour-replica copy off a departing node.

        The migration counterpart of :meth:`apply_rereplication`: the primary
        placement is untouched and the departing holder's slot in
        ``placement.replica_nodes`` is re-pointed at the migrated copy, so a
        graceful departure preserves the placement's replication level
        instead of eroding it (or, worse, re-pointing the primary).
        """
        old_placement = chunk.placements[placement_index]
        survivors = tuple(
            nid for nid in old_placement.replica_nodes if int(nid) != int(leaving.node_id)
        )
        new_holder = self.place_replica(
            old_placement, block_name, size, exclude=leaving.node_id
        )
        if new_holder is None:
            chunk.placements[placement_index] = BlockPlacement(
                block_name=block_name,
                node_id=old_placement.node_id,
                size=size,
                replica_nodes=survivors,
            )
            impact.bytes_dropped += size
            leaving.remove_block(block_name)
            return
        chunk.placements[placement_index] = BlockPlacement(
            block_name=block_name,
            node_id=old_placement.node_id,
            size=size,
            replica_nodes=survivors + (new_holder.node_id,),
        )
        impact.bytes_migrated += size
        impact.replicas_restored += 1
        self._stage(
            size, int(leaving.node_id), int(new_holder.node_id),
            ("copy", chunk, placement_index), tenant,
        )
        ledger = self.storage.ledger
        ledger.replace_replica(
            ledger.placement_for(chunk.ledger_index, placement_index),
            int(leaving.node_id),
            new_holder,
            block_name,
            size,
            digest,
        )
        if self.storage.payload_mode:
            payload = self.storage._block_payloads.pop(
                (int(leaving.node_id), block_name), None
            )
            if payload is not None:
                self.storage._block_payloads[(int(new_holder.node_id), block_name)] = payload
        leaving.remove_block(block_name)

    def migrate_meta(
        self,
        name: str,
        size: int,
        leaving: OverlayNode,
        impact: FailureImpact,
        key: int,
        digest: bytes,
        tenant: Optional[int],
    ) -> None:
        """Copy a CAT/metadata object off a departing node.

        Mirrors :meth:`restore_object_copy`'s placement rule (single lookup,
        skip if the responsible node already holds a replica, no relocation
        walk) so migration and post-failure restoration land copies on the
        same nodes.  ``tenant`` tags the restored row explicitly (a shared
        multi-tenant ledger migrates every tenant's copies through one
        executor); ``None`` uses the executor's own store tenant.
        """
        target = self.dht.locate_key(key)
        if not target.has_block(name) and target.store_block(name, size):
            impact.cat_copies_restored += 1
            impact.bytes_migrated += size
            self._stage(size, int(leaving.node_id), int(target.node_id), tenant=tenant)
            ledger = self.storage.ledger
            if tenant is None:
                ledger.restore_meta_copy(target, name, size, digest)
            else:
                base = getattr(ledger, "base", ledger)
                base.restore_meta_copy(target, name, size, digest, tenant=tenant)
        if self.storage.payload_mode:
            payload = self.storage._block_payloads.pop((int(leaving.node_id), name), None)
            if payload is not None and target.has_block(name):
                self.storage._block_payloads.setdefault((int(target.node_id), name), payload)
        leaving.remove_block(name)

    def migrate_group_row(
        self,
        row: int,
        name: str,
        size: int,
        leaving: OverlayNode,
        impact: FailureImpact,
        ledger: BlockLedger,
        tenant: Optional[int],
    ) -> None:
        """Copy one baseline (PAST/CFS) replica-group row off a departing node.

        The copy goes to the node now responsible for the stored name -- the
        root PAST/CFS would re-insert it at -- falling back to the root's
        identifier-space neighbours when the root cannot take it (it is full,
        or it already holds a fellow replica of the same group, which is the
        common case for PAST's leaf-set replicas); that is the same
        neighbourhood the baselines place their replicas on.  Only when no
        nearby node accepts is the copy dropped with the departure.
        """
        key = ledger.row_key(row)
        target = self.dht.locate_key(key)
        placed: Optional[OverlayNode] = None
        if target.node_id != leaving.node_id and target.store_block(name, size):
            placed = target
        else:
            for candidate in self.dht.neighbors(target.node_id, 8):
                if candidate.node_id == leaving.node_id:
                    continue
                if candidate.store_block(name, size):
                    placed = candidate
                    break
        if placed is not None:
            impact.bytes_migrated += size
            self._stage(size, int(leaving.node_id), int(placed.node_id), tenant=tenant)
            ledger.migrate_group_row(row, placed)
        else:
            impact.bytes_dropped += size
        leaving.remove_block(name)


class RecoveryManager:
    """Drives block regeneration after failures and migration before leaves."""

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
        #: repair instantaneous.
        self.transfers = transfers
        #: Tenant whose chunk and meta rows this manager repairs after a
        #: failure (0 for a private ledger; shared ledgers tag rows per tenant).
        self.tenant_id = storage.ledger.tenant_id
        #: Repair QoS knobs: ``repair_window`` bounds in-flight repair
        #: transfers (overflow queues FIFO -- backpressure, not drops) and
        #: ``repair_weight`` is the repair class's fair-share weight; the
        #: defaults (no window, weight 1.0) are the seed behaviour.
        self.pacer: Optional[TransferPacer] = None
        if transfers is not None and repair_window is not None:
            self.pacer = TransferPacer(
                transfers, max_in_flight=repair_window, weight=repair_weight
            )
        self.planner = RepairPlanner(storage, transfers)
        # A tenant-scoped store repairs under its own tenant tag; a private
        # (or raw shared) ledger stays untagged -- the untagged QoS oracle.
        tagged = isinstance(storage.ledger, TenantLedgerView)
        self.executor = RepairExecutor(
            storage, transfers, self.planner, repair_weight,
            tenant=self.tenant_id if tagged else None, pacer=self.pacer,
        )
        self.impacts: List[FailureImpact] = []

    # ------------------------------------------------------------------ failure --
    def handle_failure(self, node_id: NodeId) -> FailureImpact:
        """Fail ``node_id`` and regenerate what can be regenerated.

        The node is marked failed in the overlay, removed from the DHT view,
        and each of its unreleased ledger rows is repaired: blocks whose chunk
        is still decodable are re-created on the node now responsible for
        their name (or elsewhere if that node is full); chunks that are no
        longer decodable are counted as lost data.  The rows are the record:
        a name in the dead node's dict with no unreleased row was already
        repaired or deleted, so a second call on the same node is a no-op.

        The rows come from one read of the ledger's per-owner row index and
        every decodability check is an O(1) counter read; impacts, placements
        and Table 3 rows equal the frozen seed dict-walk outputs
        (``tests/test_churn_equivalence.py``).
        """
        ledger = self.storage.ledger
        node = self.dht.network.node(node_id)
        impact = FailureImpact(failed_node=node_id)
        impact.blocks_lost = len(node.stored_blocks)
        impact.bytes_on_failed_node = sum(node.stored_blocks.values())
        self.executor.begin(impact)

        rows = ledger.recovery_rows(node)
        if node.alive:
            self.dht.network.fail(node_id)  # the ledger is notified via its listener
        self.dht.remove(node_id)  # incremental boundary patch, not an O(N) rebuild
        ledger.ensure_digests(rows)

        damaged_files: set[str] = set()
        for row in rows:
            self._apply_failure_row(row, node_id, impact, ledger, damaged_files)
        impact.files_damaged = len(damaged_files)
        self.executor.finish(impact)
        self.impacts.append(impact)
        return impact

    def _apply_failure_row(
        self, row: int, failed_node: NodeId, impact: FailureImpact, ledger: BlockLedger,
        damaged_files: set,
    ) -> None:
        """Repair one ledger row of a failed node."""
        if ledger.row_group(row) >= 0 or ledger.row_tenant(row) != self.tenant_id:
            # A baseline replica-group row (the baselines have no
            # regeneration) or another tenant's row (its manager repairs it).
            return
        name = ledger.row_name(row)
        file_idx, chunk_idx, placement_idx, size = ledger.row_fields(row)
        key = ledger.row_key(row)
        digest = ledger.row_digest(row)
        if placement_idx < 0:
            self.executor.restore_object_copy(name, size, impact, key, digest)
            return
        chunk = ledger.chunk_object(chunk_idx)
        if not ledger.chunk_recoverable(chunk_idx):  # below the decode threshold
            damaged_files.add(ledger.file_name(file_idx))
            if not getattr(chunk, "_counted_lost", False):
                impact.data_bytes_lost += chunk.size
                impact.chunks_lost += 1
                setattr(chunk, "_counted_lost", True)
            return
        position = ledger.placement_position(placement_idx)
        # A *primary* loss re-points the placement at a fresh block only when
        # the placement's primary lived on the failed node; otherwise the dead
        # copy was a neighbour replica and is re-replicated -- re-pointing the
        # primary from a replica row would erode the replication level.
        apply = (
            self.executor.apply_regeneration
            if int(chunk.placements[position].node_id) == int(failed_node)
            else self.executor.apply_rereplication
        )
        apply(chunk, position, name, size, failed_node, impact, key, digest)

    # ---------------------------------------------------------------- departure --
    def handle_leave(self, node_id: NodeId) -> FailureImpact:
        """Gracefully migrate a node's blocks out, then remove it.

        The departing node's copies are *moved* (each block crosses the
        network once, charged to the node's uplink) to the nodes that become
        responsible for them -- the same targets the post-failure regeneration
        pipeline would pick -- before :meth:`~repro.overlay.network.
        OverlayNetwork.leave` releases whatever could not be placed.  On a
        multi-tenant ledger the PAST/CFS replica-group rows migrate too.
        When redundancy is intact and capacity suffices, the resulting
        placements are identical to failing the node and regenerating
        (``tests/test_soak.py``'s migration-conserves-bytes oracle).
        """
        node = self.dht.network.node(node_id)
        impact = FailureImpact(failed_node=node_id)
        impact.blocks_lost = len(node.stored_blocks)
        impact.bytes_on_failed_node = sum(node.stored_blocks.values())
        self.executor.begin(impact)

        self.dht.remove(node_id)  # lookups now exclude the departing node
        ledger = self.storage.ledger
        rows = ledger.recovery_rows(node)
        ledger.ensure_digests(rows)
        for row in rows:
            self._apply_migration_row(row, node, impact, ledger)
        self.executor.finish(impact)
        self.dht.network.leave(node_id)  # releases whatever was not migrated
        self.impacts.append(impact)
        return impact

    def _apply_migration_row(
        self, row: int, node: OverlayNode, impact: FailureImpact, ledger: BlockLedger
    ) -> None:
        """Copy one ledger row of a departing node out."""
        name = ledger.row_name(row)
        # The transfer tag follows the *row's* tenant (a departure migrates
        # every tenant's copies through one executor); a single-tenant ledger
        # stays untagged so the untagged oracle holds end to end.
        row_tenant = ledger.row_tenant(row) if ledger.multi_tenant else None
        if ledger.row_group(row) >= 0:
            # Baseline replica-group copy (any tenant): representation-free move.
            self.executor.migrate_group_row(
                row, name, int(ledger.row_fields(row)[3]), node, impact, ledger, row_tenant
            )
            return
        # Chunk and meta rows migrate regardless of tenant: the departure is
        # final (``network.leave`` permanently releases whatever stays behind,
        # and no other tenant's manager can run on a node that already left),
        # and the ledger bookkeeping is tenant-exact either way -- re-pointed
        # placements inherit their file's tenant, and restored meta copies
        # keep the departing row's tag.  The one cross-tenant gap is payload
        # mode: another tenant's block *bytes* live in that tenant's storage
        # and are not relocated here (capacity accounting stays exact).
        file_idx, chunk_idx, placement_idx, size = ledger.row_fields(row)
        key = ledger.row_key(row)
        digest = ledger.row_digest(row)
        if placement_idx < 0:
            self.executor.migrate_meta(name, size, node, impact, key, digest, row_tenant)
            return
        chunk = ledger.chunk_object(chunk_idx)
        position = ledger.placement_position(placement_idx)
        migrate = (
            self.executor.migrate_block
            if int(chunk.placements[position].node_id) == int(node.node_id)
            else self.executor.migrate_replica
        )
        migrate(chunk, position, name, size, node, impact, key, digest, row_tenant)

    # ---------------------------------------------------------------- CAT rebuild --
    def rebuild_cat(self, filename: str, probe_limit: Optional[int] = None) -> ChunkAllocationTable:
        """Reconstruct a file's CAT by probing chunk names one by one.

        Section 4.4: chunk sizes are discovered incrementally; a missing chunk
        either means a zero-sized chunk or the end of the file, and because
        consecutive zero-sized chunks are bounded, probing one past the limit
        pins down the true end of the file.
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
        chunk_by_no = {chunk.chunk_no: chunk for chunk in stored.chunks}
        while missing_run < limit:
            chunk = chunk_by_no.get(chunk_no)
            if chunk is None or chunk.is_empty or not chunk.placements:
                sizes.append(0)
                missing_run += 1
            else:
                sizes.append(chunk.size)
                missing_run = 0
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
