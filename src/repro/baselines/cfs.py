"""CFS baseline: fixed-size block striping with successor replication.

CFS (Dabek et al., SOSP 2001) splits every file into fixed-size blocks and
stores each block on the node responsible for the block's key, replicating it
on the ``k`` successors of that key.  The paper's criticism -- the number of
blocks, and therefore the number of p2p look-ups, grows linearly with file
size, and the probability that *some* block placement fails grows as
``1 - (1 - p)^n`` -- emerges directly from this implementation.

The authors of CFS use 8 KB blocks; the paper's simulations use 4 MB "to
reduce unnecessary DHT look-ups" given the large files, and so does the
default here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import naming
from repro.core.block_ledger import BlockLedger
from repro.core.storage import LedgerStore
from repro.overlay.dht import DHTView, first_fits
from repro.overlay.ids import key_for
from repro.overlay.node import OverlayNode, StoreResult, store_refusal
from repro.overlay.validation import require_range

#: The block size used in the paper's simulations (4 MB).
DEFAULT_BLOCK_SIZE = 4 * (1 << 20)


class CfsStore(LedgerStore):
    """A CFS-style fixed-block store over a DHT view.

    The attempt-0 placements of *all* blocks of a file are resolved in one
    pass -- the block names are hashed in a batch and pushed through the
    ``searchsorted`` kernel of the array-backed placement engine -- and only
    blocks whose target turns out to be full fall back to per-attempt salted
    re-hashing, in the one-lookup-per-attempt retry order.  Per-file
    bookkeeping lives in the columnar
    :class:`~repro.core.block_ledger.BlockLedger` as one chunk with a
    placement per block, all of which it needs (one bulk column write per
    stored file; replica and salted rows are first-class row kinds), which
    makes :meth:`is_file_available` an O(1) counter read that stays exact
    under out-of-band churn.  Results, placements and lookup counts are
    identical to the seed one-``DHTView.lookup``-per-attempt store kept as
    ``tests/reference/seed_placement.py``; the equivalence is asserted by
    ``tests/test_placement_equivalence.py``.  ``files`` maps each stored name
    to its ledger file index.
    """

    def __init__(
        self,
        dht: DHTView,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 1,
        retries_per_block: int = 3,
        ledger: Optional[BlockLedger] = None,
        tenant: Optional[str] = None,
    ) -> None:
        require_range("block_size", block_size, 1)
        require_range("replication", replication, 1)
        require_range("retries_per_block", retries_per_block, 0)
        super().__init__(dht, ledger, tenant)
        self.block_size = block_size
        self.replication = replication
        self.retries_per_block = retries_per_block

    def block_count_for(self, size: int) -> int:
        """Number of fixed-size blocks a file of ``size`` bytes is split into."""
        if size <= 0:
            return 0
        return -(-size // self.block_size)

    def store_file(self, filename: str, size: int) -> StoreResult:
        """Insert one file; one p2p lookup per block placement attempt.

        Every attempt-0 target is batch-resolved, then applied.  Those
        resolutions are speculative (a file that fails at block ``i`` never
        needs blocks beyond ``i`` looked up), so lookups are charged to the
        view only as placement attempts are actually consumed -- one lookup
        per attempt, even on failed stores.  The loop carries no per-block
        tuples: placed holders accumulate in one list and the whole file is
        registered into the columnar ledger with a single bulk column write.
        """
        refused = store_refusal(filename, size, self._taken)
        if refused is not None:
            return refused
        block_count = self.block_count_for(size)
        state = self.dht.state
        names = naming.stripe_names(filename, block_count)
        if block_count:
            # Raises LookupError on an empty view, like a first dht.lookup;
            # a zero-block file never looks anything up.
            targets = self.dht.resolve_digests(naming.name_digests(names), count=False).tolist()
        else:
            targets = []
        state_nodes = state.nodes
        namesakes = self.ledger.namesake_serials(filename)
        holders: List[OverlayNode] = []
        append_holder = holders.append
        salted: List[int] = []
        replicas: List[Tuple[int, OverlayNode]] = []
        extra_lookups = 0
        remaining = size
        block_size = self.block_size
        retries = self.retries_per_block
        replication = self.replication
        replicated = replication > 1
        for index, (name, target_index) in enumerate(zip(names, targets)):
            block_bytes = block_size if remaining >= block_size else remaining
            remaining -= block_bytes
            target = state_nodes[target_index]
            exclude = namesakes.get(name, ()) if namesakes else ()
            if not target.store_block(name, block_bytes, exclude):
                # Salted retries: resolved lazily, one lookup per attempt.
                # (No per-call lookup_count bump here: this path charges the
                # view's counter in bulk, for parity with failed-store accounting.)
                for attempt in range(1, retries + 1):
                    name = naming.salted_name(names[index], attempt)
                    target = state.lookup_node(key_for(name))
                    extra_lookups += 1
                    exclude = namesakes.get(name, ())
                    if target.store_block(name, block_bytes, exclude):
                        names[index] = name
                        salted.append(index)
                        break
                else:
                    lookups = index + 1 + extra_lookups
                    self.dht.lookup_count += lookups
                    return self._fail(filename, size, names, holders, replicas, lookups, index)
            append_holder(target)
            if replicated:
                # Successor replicas, none on the primary or on ``exclude``.
                successors = [node for node in self.dht.successors(target.node_id, replication * 2)
                              if node.node_id != target.node_id]
                replicas += [(index, replica) for replica in
                             first_fits(successors, name, block_bytes, exclude, replication - 1)]
        lookups = block_count + extra_lookups
        self.dht.lookup_count += lookups
        self.total_lookups += lookups
        self.files[filename] = self.ledger.register_striped_file(
            filename, size, names, holders, block_size, salted=salted, replicas=replicas,
            tenant=self.store_tenant,
        )
        return StoreResult(
            filename=filename,
            requested_size=size,
            success=True,
            stored_bytes=size,
            chunk_count=block_count,
            data_chunk_count=block_count,
            lookups=lookups,
        )

    def _fail(
        self,
        filename: str,
        size: int,
        names: List[str],
        holders: List[OverlayNode],
        replicas: List[Tuple[int, OverlayNode]],
        lookups: int,
        index: int,
    ) -> StoreResult:
        """Failure accounting: nothing was registered yet, so every block
        placed so far (each a full block: only the last one can be short) is
        released."""
        self.total_lookups += lookups
        for block_index, holder in enumerate(holders):
            holder.release_block(names[block_index], self.block_size)
        for block_index, replica in replicas:
            replica.release_block(names[block_index], self.block_size)
        return StoreResult(
            filename=filename,
            requested_size=size,
            success=False,
            stored_bytes=0,
            chunk_count=len(holders),
            data_chunk_count=len(holders),
            lookups=lookups,
            failure_reason=f"block {index} could not be placed",
        )

    def chunk_sizes(self, filename: str) -> List[int]:
        """Sizes of the blocks a stored file was split into (Table 1).

        Every block is ``block_size`` bytes except the last, which holds the remainder.
        """
        entry = self.files.get(filename)
        if entry is None:
            return []
        full, rest = divmod(self.ledger.file_size(entry), self.block_size)
        return [self.block_size] * full + ([rest] if rest else [])

    def block_entries(self, filename: str) -> List[tuple[str, OverlayNode, int, List[OverlayNode]]]:
        """Per-block ``(stored name, primary, size, replicas)`` bookkeeping.

        Read from the file's ledger placements (the primary, then the
        unreleased replicas) -- the accessor the equivalence oracles compare
        through.
        """
        entry = self.files.get(filename)
        if entry is None:
            return []
        ledger = self.ledger
        entries = []
        for placement, size in zip(ledger.file_placements(entry), self.chunk_sizes(filename)):
            primary, *replicas = ledger.placement_nodes(placement)
            entries.append((ledger.placement_name(placement), primary, size, replicas))
        return entries
