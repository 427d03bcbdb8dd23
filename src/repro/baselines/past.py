"""PAST baseline: whole-file storage on the DHT root of the file name.

PAST (Rowstron & Druschel, SOSP 2001) stores each file in its entirety on the
node whose id is numerically closest to ``SHA-1(filename)``, with ``k``
replicas on that node's leaf-set neighbours.  When the target node cannot hold
the file, PAST retries by *rehashing the file name with a new salt* (Section 3
of the paper).  The failure mode the paper highlights -- a store fails when no
probed node can hold the entire file, so the maximum storable file size is
bounded by the largest single contribution -- emerges directly from this
implementation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import naming
from repro.core.block_ledger import BlockLedger
from repro.core.storage import LedgerStore
from repro.overlay.dht import DHTView, first_fits
from repro.overlay.node import OverlayNode, StoreResult, store_refusal
from repro.overlay.validation import require_range


class PastStore(LedgerStore):
    """A PAST-style whole-file store over a DHT view.

    The per-attempt lookup runs on the array-backed placement engine (raw
    SHA-1 -> boundary ``bisect``); it resolves every name to the same node,
    and charges the same lookup count, as the seed ``DHTView.lookup`` walk
    (``tests/reference/seed_placement.py`` is that reference).

    Every stored file is registered in the columnar
    :class:`~repro.core.block_ledger.BlockLedger` as one chunk with one
    placement that needs one live copy (salted/replica copies are
    first-class row kinds), which makes
    :meth:`is_file_available` an O(1) counter read that stays exact under
    out-of-band ``fail()``/``recover()``/``leave()`` churn.  Pass ``ledger``
    to share one ledger instance with other stores on the same overlay.
    ``files`` maps each stored name to the name it is stored under (salted
    after a retry).  Not to its ledger file index, as ``CfsStore.files`` does:
    the registration is buffered, so the index exists only from the next flush
    (``ledger.file_index`` flushes); the holders are the file's one placement
    in the ledger.
    """

    def __init__(
        self,
        dht: DHTView,
        replication: int = 1,
        retries: int = 3,
        ledger: Optional[BlockLedger] = None,
        tenant: Optional[str] = None,
    ) -> None:
        require_range("replication", replication, 1)
        require_range("retries", retries, 0)
        super().__init__(dht, ledger, tenant)
        self.replication = replication
        self.retries = retries

    def store_file(self, filename: str, size: int) -> StoreResult:
        """Insert one file; a single p2p lookup per attempt, as in PAST."""
        refused = store_refusal(filename, size, self._taken)
        if refused is not None:
            return refused
        lookups = 0
        namesakes = self.ledger.namesake_serials(filename)
        for attempt in range(self.retries + 1):
            name = naming.salted_name(filename, attempt)
            target = self.dht.locate_name(name)
            lookups += 1
            holders = self._try_place(name, size, target, namesakes.get(name, ()))
            if holders is not None:
                self.files[filename] = name
                # Buffered: the single-row column writes happen at the next
                # flush point (a liveness event or a ledger read), file by
                # file, keeping the ledger out of the store loop.
                self.ledger.queue_whole_file(
                    filename, size, name, holders, salted=attempt > 0, tenant=self.store_tenant
                )
                self.total_lookups += lookups
                return StoreResult(
                    filename=filename,
                    requested_size=size,
                    success=True,
                    stored_bytes=size * len(holders),
                    chunk_count=1,
                    data_chunk_count=1,
                    lookups=lookups,
                )
        self.total_lookups += lookups
        return StoreResult(
            filename=filename,
            requested_size=size,
            success=False,
            stored_bytes=0,
            chunk_count=0,
            data_chunk_count=0,
            lookups=lookups,
            failure_reason=f"no node could hold {size} bytes after {self.retries + 1} attempts",
        )

    def _try_place(self, name: str, size: int, target: OverlayNode,
                   exclude) -> Optional[List[OverlayNode]]:
        """Place the file on ``target`` plus replication-1 neighbours (none on ``exclude``);
        None on failure."""
        if not first_fits((target,), name, size, exclude):
            return None
        holders = [target]
        if self.replication > 1:
            extra = self.replication - 1
            holders += first_fits(self.dht.neighbors(target.node_id, extra * 2), name, size,
                                  exclude, extra)
            if len(holders) < self.replication:
                # PAST requires all k replicas; undo and report failure.
                for holder in holders:
                    holder.release_block(name, size)
                return None
        return holders
