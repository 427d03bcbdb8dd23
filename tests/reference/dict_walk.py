"""The seed dict walk, kept as a test-only auditor of the block ledger.

Before the columnar :class:`~repro.core.block_ledger.BlockLedger` existed,
every availability and usage answer was recomputed by walking each node's
``stored_blocks`` dict and each :class:`~repro.core.storage.StoredChunk`'s
``placements`` (now a view of the ledger's placement columns and replica rows,
so the walk checks the ledger's counters against what that view names and
what the nodes actually hold).  Nodes keep no such dict any more, and their
``stored_blocks`` is a view of the ledger, so the walk reads the dicts the
active :class:`~reference.recorder.BlockRecorder` rebuilt from the
``store_block`` / ``remove_block`` / ``release_block`` / ``recover`` calls instead: run it under the
``block_recorder`` fixture.  The functions
below are those walks (formerly the ``ledger is None`` arms of
``StorageSystem``, ``PastStore`` and ``CfsStore``); :func:`audit` asserts the
ledger's O(1) answers against them and is what the equivalence tests call
after every store / fail / recover / leave / compact step.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from reference.recorder import current

from repro.core.block_ledger import KIND_META


def cat_placement(storage, name: str) -> Tuple[str, int, int, Tuple[int, ...]]:
    """``(block name, primary id, size, replica ids)`` of a stored file's CAT object.

    The file's unreleased CAT rows in row order: the store registers the
    primary copy first, then its neighbour replicas.
    """
    ledger = storage.ledger
    rows = [row for row in ledger.file_rows(storage.files[name].ledger_index)
            if ledger._kind[row] == KIND_META and not ledger.row_released(row)]
    holders = tuple(ledger.row_owner(row).node_id for row in rows)
    return ledger.row_name(rows[0]), holders[0], int(ledger._size[rows[0]]), holders[1:]


def live_copies(network, placement) -> int:
    """Live nodes still holding the placement's block (primary + replicas)."""
    return sum(
        1
        for node_id in (placement.node_id, *placement.replica_nodes)
        if node_id in network and current().has_block(network.node(node_id), placement.block_name)
    )


def live_placements(storage, chunk) -> int:
    """Distinct placements of ``chunk`` with at least one surviving copy."""
    network = storage.dht.network
    return sum(1 for placement in chunk.placements if live_copies(network, placement) > 0)


def chunk_decodable(storage, chunk) -> bool:
    """Whether enough encoded blocks of ``chunk`` survive to decode it."""
    if chunk.is_empty:
        return True
    return live_placements(storage, chunk) >= storage.codec.spec().required_blocks()


def file_available(storage, name: str) -> bool:
    """Whether every chunk of the stored file can still be decoded."""
    stored = storage.files.get(name)
    if stored is None:
        return False
    return all(chunk_decodable(storage, chunk) for chunk in stored.chunks)


def unavailable_count(storage) -> int:
    """Stored files with at least one undecodable chunk."""
    return sum(1 for name in storage.files if not file_available(storage, name))


def stored_bytes(storage) -> int:
    """User bytes currently stored (sum of the per-file sizes)."""
    return sum(stored.size for stored in storage.files.values())


def live_bytes_and_count(network) -> Tuple[int, int]:
    """``(bytes, copies)`` summed over the live nodes' recorded blocks."""
    held = [current().blocks(node) for node in network.live_nodes()]
    return sum(sum(blocks.values()) for blocks in held), sum(len(blocks) for blocks in held)


def usage_summary(storage) -> Dict[str, float]:
    """``StorageSystem.usage_summary()`` recomputed from files and node dicts."""
    live_bytes, live_count = live_bytes_and_count(storage.dht.network)
    return {
        "file_count": float(len(storage.files)),
        "stored_file_bytes": float(stored_bytes(storage)),
        "live_block_bytes": float(live_bytes),
        "live_block_count": float(live_count),
        "utilization": storage.dht.utilization(),
    }


def past_holders(store, name: str) -> List:
    """The holders of a PAST file's one placement (primary first), as the ledger names them."""
    ledger = store.ledger
    placements = ledger.file_placements(ledger.file_index(name, store.store_tenant))
    return ledger.placement_nodes(placements[0]) if len(placements) else []


def past_file_available(store, name: str) -> bool:
    """PAST: at least one holder of the whole file is up and still has it."""
    if name not in store.files:
        return False
    stored_name = store.files[name]
    return any(current().has_block(holder, stored_name) for holder in past_holders(store, name))


def cfs_file_available(store, name: str) -> bool:
    """CFS: every fixed block has a live copy (primary or successor replica)."""
    if name not in store.files:
        return False
    return all(
        any(current().has_block(holder, block) for holder in (primary, *replicas))
        for block, primary, _, replicas in store.block_entries(name)
    )


def audit(storage) -> None:
    """Assert every ledger-backed answer of ``storage`` equals the dict walk.

    The node-dict byte/copy totals equal the ledger's as long as every copy
    on a live node is one the bookkeeping still references (a node that
    returns *unwiped* after its blocks were regenerated elsewhere would break
    that; no caller audits in that state).  The ledger's own laws (aggregates
    and row indexes against the raw columns) and the node index's (totals,
    listeners, patched boundaries) are checked first.
    """
    storage.ledger.check_invariants()
    storage.dht.state.check_invariants()
    for name, stored in storage.files.items():
        for chunk in stored.chunks:
            assert storage.chunk_is_recoverable(chunk) == chunk_decodable(storage, chunk), (
                name, chunk.chunk_no)
            if not chunk.is_empty:
                assert storage.ledger.chunk_live_blocks(chunk.ledger_index) == live_placements(
                    storage, chunk), (name, chunk.chunk_no)
        assert storage.is_file_available(name) == file_available(storage, name), name
    assert storage.unavailable_file_count() == unavailable_count(storage)
    assert storage.stored_bytes() == stored_bytes(storage)
    assert storage.usage_summary() == usage_summary(storage)
