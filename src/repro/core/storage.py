"""The contributory storage system (the paper's primary contribution).

:class:`StorageSystem` implements the store/retrieve pipeline of Section 4:

1. a file is split into variable-sized chunks, each sized by ``getCapacity``
   probes to the nodes that will hold its encoded blocks;
2. every chunk is erasure coded into ``m`` encoded blocks named
   ``filename_chunk_ECB`` and placed on the DHT node responsible for each name
   (plus optional neighbour replicas);
3. the chunk layout is recorded in a Chunk Allocation Table stored under
   ``filename.CAT`` and replicated on neighbouring nodes;
4. retrieval fetches the CAT, determines the needed chunks (whole file or a
   byte range), gathers enough encoded blocks per chunk and decodes them.

The class operates in two modes:

* **capacity mode** (default) tracks only sizes and placements -- this is what
  the large-scale insertion/availability/churn experiments use, mirroring the
  paper's own simulations;
* **payload mode** (``payload_mode=True``) moves real bytes through the real
  erasure coders, so store → fail nodes → retrieve round-trips are genuine
  end-to-end tests of the data path.  A copy's bytes live on its holder
  (:attr:`~repro.overlay.node.OverlayNode.payloads`) and leave with the block.

Where a block lives has one home, the block ledger; a store keeps only the
chunk layout (:class:`StoredFile`, :class:`StoredChunk`), whose
``placements`` and ``cat`` are built from the ledger and the chunk sizes on read.

A request's client and observer are arguments, resolved once per public entry.

:class:`LedgerStore` is what the three stores of the insertion comparison --
this one, :class:`~repro.baselines.past.PastStore` and
:class:`~repro.baselines.cfs.CfsStore` -- share: their file namespace on a
block ledger and the refusal of a name already taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import naming
from repro.core.block_ledger import KIND_RESTORED, BlockLedger, Placed
from repro.core.capacity import CapacityProbe, ProbeResult
from repro.core.cat import ChunkAllocationTable
from repro.core.policies import StoragePolicy
from repro.erasure.base import EncodedChunk
from repro.erasure.chunk_codec import ChunkCodec
from repro.erasure.null_code import NullCode
from repro.overlay.dht import DHTView, first_fits
from repro.overlay.node import BlockBytes, StoreResult, store_refusal
from repro.overlay.validation import require_range

#: Sentinel distinguishing "keyword not passed" from an explicit ``None``
#: (``client=None`` legitimately means "an external client outside the
#: overlay"), so per-call overrides can layer over :meth:`attach_transfers`.
_UNSET = object()

#: Salted re-hashes tried when the CAT object's responsible node is full.
CAT_STORE_RETRIES = 3


@dataclass(frozen=True)
class BlockPlacement:
    """Where one encoded block (and its optional replicas) lives: a view of the ledger."""

    block_name: str
    node_id: int
    size: int
    replica_nodes: Tuple[int, ...] = ()


@dataclass(slots=True)
class StoredChunk:
    """Book-keeping for one stored chunk: its place in the file, not where its blocks live."""

    chunk_no: int
    start: int
    size: int
    #: Bytes of each of the chunk's encoded blocks (every code pads them to one size).
    block_size: int = 0
    #: Present only in payload mode: the encoder output (needed to decode).
    encoded: Optional[EncodedChunk] = None
    #: The ledger holding the chunk's blocks and the chunk's index in it (``None``
    #: until the file's store succeeds; zero-sized chunks are never registered).
    ledger: Optional[BlockLedger] = field(default=None, repr=False, compare=False)
    ledger_index: Optional[int] = None
    #: Set by repair when the chunk falls below its decode threshold, so its
    #: lost bytes are counted once across all the failures that touch it.
    counted_lost: bool = False

    @property
    def is_empty(self) -> bool:
        """Whether this is a zero-sized placeholder chunk."""
        return self.size == 0

    @property
    def placements(self) -> List[BlockPlacement]:
        """Where each encoded block lives, built from the ledger on every read.

        The primary is the ledger's placement column and the replicas are
        the placement's unreleased replica rows, in row order; ``[]`` for a
        chunk the ledger never registered.
        """
        if self.ledger is None:
            return []
        ledger = self.ledger
        views = []
        for placement in ledger.chunk_placement_indexes(self.ledger_index):
            primary, *replicas = ledger.placement_holders(placement)
            views.append(BlockPlacement(ledger.placement_name(placement), primary,
                                        self.block_size, tuple(replicas)))
        return views


@dataclass(slots=True)
class StoredFile:
    """Book-keeping for one stored file."""

    name: str
    size: int
    chunks: List[StoredChunk]
    #: Index of this file in the columnar block ledger.
    ledger_index: Optional[int] = None

    @property
    def cat(self) -> ChunkAllocationTable:
        """The file's Chunk Allocation Table, built from the chunk sizes on every read."""
        return ChunkAllocationTable.from_chunk_sizes(self.name, [chunk.size for chunk in self.chunks])

    def data_chunks(self) -> List[StoredChunk]:
        """Chunks that actually hold data (non zero-sized)."""
        return [chunk for chunk in self.chunks if not chunk.is_empty]


@dataclass(frozen=True)
class RetrieveResult:
    """Outcome of one retrieval (whole file or byte range)."""

    filename: str
    complete: bool
    bytes_available: int
    chunks_needed: int
    chunks_recovered: int
    blocks_fetched: int
    lookups: int
    data: Optional[bytes] = None
    failure_reason: Optional[str] = None
    #: Chunks decoded from a strict k-of-n subset of their blocks (some
    #: copies were unreachable, but at least ``required`` survived).
    chunks_degraded: int = 0
    #: Chunks served entirely from the requesting client's block cache
    #: (no transfer charged, no holder touched).
    chunks_cached: int = 0

    @property
    def degraded(self) -> bool:
        """A successful read that had to decode around missing blocks."""
        return self.complete and self.chunks_degraded > 0


class LedgerStore:
    """A file namespace on a block ledger: the wiring PAST, CFS and ours share.

    The store registers its copies in ``ledger`` -- a private one unless a
    ledger is passed to share with other stores on the same overlay -- under
    the tenant id ``store_tenant`` (``None``: untagged).  ``files`` maps each
    stored name to the store's own record of it, and ``total_lookups`` counts
    the DHT look-ups its stores and reads charged.  Every scheme's file is
    chunks and placements in the ledger, so availability and deletion are
    one read of it for all three.
    """

    def __init__(self, dht: DHTView, ledger: Optional[BlockLedger],
                 tenant: Optional[str]) -> None:
        self.dht = dht
        self.ledger = BlockLedger(dht.network) if ledger is None else ledger
        self.store_tenant = None if tenant is None else self.ledger.ensure_tenant(tenant)
        #: A private ledger's namespace is exactly ``files``; only a shared
        #: ledger can hold a name another store registered, so only then is
        #: the ledger read before a store.
        self._ledger_shared = ledger is not None
        self.files: dict = {}
        self.total_lookups = 0

    def _taken(self, filename: str) -> bool:
        """Whether ``filename`` is already stored in this store's namespace."""
        return filename in self.files or (
            self._ledger_shared and self.ledger.file_index(filename, self.store_tenant) is not None
        )

    def is_file_available(self, filename: str) -> bool:
        """Whether every chunk of the file still has ``required`` placements with a live copy.

        O(1) from the ledger's counters.  In PAST's one placement one live
        replica is enough; CFS's chunk needs every block; ours needs any
        ``required`` blocks of each chunk.
        """
        if filename not in self.files:
            return False
        return self.ledger.file_available(self.ledger.file_index(filename, self.store_tenant))

    def delete_file(self, filename: str) -> bool:
        """Remove a file and every copy the ledger still references (its unreleased rows).

        The rows, not the holders a store saw at store time: a copy a
        departure moved is taken back from where it went.
        """
        if self.files.pop(filename, None) is None:
            return False
        ledger = self.ledger
        for row in ledger.file_rows(ledger.file_index(filename, self.store_tenant)):
            size, kind = ledger.row_fields(row)[3:]
            if not ledger.row_released(row) and kind != KIND_RESTORED:
                ledger.row_owner(row).remove_block(ledger.row_name(row), size)
        ledger.remove_file(filename, self.store_tenant)
        return True


class StorageSystem(LedgerStore):
    """The striped, erasure-coded contributory storage system."""

    files: Dict[str, StoredFile]

    def __init__(
        self,
        dht: DHTView,
        codec: Optional[ChunkCodec] = None,
        policy: Optional[StoragePolicy] = None,
        payload_mode: bool = False,
        ledger: Optional[BlockLedger] = None,
        tenant: Optional[str] = None,
    ) -> None:
        #: The ledger holds one row per stored copy, incrementally-maintained
        #: chunk decodability and O(1) usage/availability aggregates
        #: (``tests/reference/dict_walk.py`` re-derives each of them from the
        #: per-node dicts).  An untagged store (``tenant=None``) moves its
        #: bytes untagged, preserving the single-tenant scheduler oracle.
        super().__init__(dht, ledger, tenant)
        self.codec = codec or ChunkCodec(NullCode(), blocks_per_chunk=1)
        self.policy = policy or StoragePolicy()
        self.payload_mode = payload_mode
        #: Optional transfer fabric for charging data movement (see
        #: :meth:`attach_transfers`).  ``None`` (the default) keeps stores and
        #: retrieves instantaneous, exactly as before.
        self.transfers = None
        self._transfer_client: Optional[int] = None
        self._transfer_observer = None
        #: Optional per-client-node block cache (see :meth:`attach_cache`).
        self.cache = None
        #: Per-holder read traffic (bytes served) accumulated by capacity-mode
        #: chunk reads -- the serve path's load-balance histogram source.
        self.read_load: Dict[int, float] = {}
        self.probe = CapacityProbe(dht, self.policy.capacity_report_fraction)
        self.store_attempts = 0
        self.store_failures = 0
        self.failed_bytes = 0
        #: Reads that succeeded by decoding around missing blocks (k-of-n).
        self.degraded_reads = 0
        #: Reads that could not recover every requested chunk.
        self.failed_reads = 0

    def attach_transfers(self, scheduler, client: Optional[int] = None,
                         observer=None) -> None:
        """Charge this store's data movement to a transfer scheduler.

        Once attached, every placed copy (block, replica, CAT copy) and every
        capacity-mode chunk read submits a transfer tagged with
        :attr:`store_tenant` -- ``client`` is the flat node id the ingest and
        read traffic terminates at (``None`` models an external client outside
        the overlay's access links).  ``observer``, when given, is called with
        each charged transfer on completion (SLO probes measure the store's
        *own* data movement without picking up repair traffic that shares the
        tenant tag).  Placement decisions, results and lookup counts are
        unchanged; only the transfer fabric sees the new load.
        """
        self.transfers = scheduler
        self._transfer_client = client
        self._transfer_observer = observer

    def attach_cache(self, cache) -> None:
        """Serve repeat reads from per-client-node block caches.

        ``cache`` is a :class:`~repro.core.cache.CacheManager`.  Once
        attached, capacity-mode chunk reads and payload-mode block fetches
        consult the requesting client's cache before touching any holder: a
        full hit skips the transfer charge entirely, a miss charges the
        fabric (from the least-loaded live holder) and fills the cache.
        Detach by passing ``None``.  Reads with no resolved client id (no
        per-call ``client=`` and no attached default) bypass the cache.
        """
        self.cache = cache

    def _request(self, client, observer) -> tuple:
        """One request's ``(client, observer)``: per-call values over the defaults."""
        return (self._transfer_client if client is _UNSET else client,
                self._transfer_observer if observer is _UNSET else observer)

    def _charge(self, size: float, src: Optional[int], dst: Optional[int], observer) -> None:
        """Submit one tenant-tagged charging transfer (no-op when detached)."""
        if self.transfers is None or size <= 0:
            return
        self.transfers.submit(float(size), src, dst, on_complete=observer,
                              tenant=self.store_tenant)

    # ------------------------------------------------------------------ store --
    def store_file(self, filename: str, size: int, *,
                   client=_UNSET, observer=_UNSET) -> StoreResult:
        """Store a file of ``size`` bytes in capacity mode (sizes only).

        ``client``/``observer`` override the :meth:`attach_transfers`
        defaults for this one store (a serving gateway ingesting on behalf
        of a specific front-end node, with its own completion probe).  A
        negative or non-finite ``size`` raises ``ParameterError`` before any
        lookup or counter moves.
        """
        if self.payload_mode:
            raise RuntimeError("store_file() is for capacity mode; use store_bytes() in payload mode")
        return self._store(filename, size, None, *self._request(client, observer))

    def store_bytes(self, filename: str, data: bytes, *,
                    client=_UNSET, observer=_UNSET) -> StoreResult:
        """Store real file contents (payload mode)."""
        if not self.payload_mode:
            raise RuntimeError("store_bytes() requires payload_mode=True")
        return self._store(filename, len(data), data, *self._request(client, observer))

    def _store(self, filename: str, size: int, data: Optional[bytes], client,
               observer) -> StoreResult:
        refused = store_refusal(filename, size, self._taken)
        if refused is not None:
            return refused
        self.store_attempts += 1
        lookups_before = self.probe.total_probes
        chunks: List[StoredChunk] = []
        placed: List[Tuple[StoredChunk, List[Placed]]] = []
        remaining = size
        offset = 0
        chunk_no = 1
        consecutive_zero = 0
        encoded_blocks = self.codec.encoded_block_count()
        failure_reason: Optional[str] = None
        namesakes = self.ledger.namesake_serials(filename)

        while remaining > 0:
            probe = self.probe.probe_chunk_fast(filename, chunk_no, encoded_blocks)
            chunk_size = self._size_chunk(probe, remaining)
            chunk = StoredChunk(chunk_no=chunk_no, start=offset, size=chunk_size)
            if chunk_size > 0:
                chunk_data = data[offset : offset + chunk_size] if data is not None else None
                blocks = self._place_chunk(filename, chunk, probe, chunk_data, client, observer,
                                           namesakes)
                if blocks is None:
                    # Capacity evaporated between probe and store: the paper's
                    # remedy is to treat the chunk as zero-sized and continue.
                    chunk = StoredChunk(chunk_no=chunk_no, start=offset, size=0)
                else:
                    placed.append((chunk, blocks))
            chunks.append(chunk)
            if chunk.size == 0:
                consecutive_zero += 1
                if consecutive_zero > self.policy.max_consecutive_zero_chunks:
                    failure_reason = (
                        f"{consecutive_zero} consecutive zero-sized chunks "
                        f"(limit {self.policy.max_consecutive_zero_chunks})"
                    )
                    break
            else:
                consecutive_zero = 0
                offset += chunk.size
                remaining -= chunk.size
            chunk_no += 1

        if failure_reason is None and remaining == 0:
            stored = StoredFile(name=filename, size=size, chunks=chunks)
            cat = self._store_cat(filename, stored.cat, client, observer, namesakes)
            if cat is None:
                failure_reason = "unable to store chunk allocation table"
            else:
                self.files[filename] = stored
                self.ledger.register_file(
                    stored, self.codec.spec().required_blocks(), self.store_tenant, placed, cat
                )
                return StoreResult(
                    filename=filename,
                    requested_size=size,
                    success=True,
                    stored_bytes=size,
                    chunk_count=len(chunks),
                    data_chunk_count=len(placed),
                    lookups=self.probe.total_probes - lookups_before,
                )

        # Failure path: release every block placed so far.
        for _, blocks in placed:
            self._release(blocks)
        self.store_failures += 1
        self.failed_bytes += size
        return StoreResult(
            filename=filename,
            requested_size=size,
            success=False,
            stored_bytes=0,
            chunk_count=len(chunks),
            data_chunk_count=len(placed),
            lookups=self.probe.total_probes - lookups_before,
            failure_reason=failure_reason or "incomplete store",
        )

    def _size_chunk(self, probe: ProbeResult, remaining: int) -> int:
        """Chunk size implied by a probe's smallest offer and the remaining file bytes."""
        capacity = self.codec.max_chunk_size(probe.usable_block_size)
        if self.policy.min_chunk_size is not None and capacity < self.policy.min_chunk_size:
            return 0  # an offer too small to matter counts as no offer at all
        if self.policy.max_chunk_size is not None:
            capacity = min(capacity, self.policy.max_chunk_size)
        return min(remaining, capacity)

    def _place_chunk(
        self,
        filename: str,
        chunk: StoredChunk,
        probe: ProbeResult,
        chunk_data: Optional[bytes],
        client,
        observer,
        namesakes: Dict[str, set],
    ) -> Optional[List[Placed]]:
        """Place every encoded block of ``chunk``; ``None`` (nothing kept) if one did not fit.

        A block goes on no node in ``namesakes`` under its name.
        """
        payloads: Optional[List[BlockBytes]] = None
        if chunk_data is not None:
            chunk.encoded = self.codec.encode(chunk_data)
            payloads = [block.data for block in chunk.encoded.blocks]
            chunk.block_size = chunk.encoded.block_size
        else:
            # The last block of a chunk may be smaller; capacity mode keeps the
            # accounting simple and conservative by charging equal-sized blocks
            # that sum to at least the encoded chunk size.
            chunk.block_size = self.codec.encoded_block_size(chunk.size)
        block_size = chunk.block_size
        count = self.codec.encoded_block_count() if payloads is None else len(payloads)
        extra = self.policy.block_replication - 1

        blocks: List[Placed] = []
        for index in range(count):
            name = probe.block_names[index] if index < len(probe.block_names) else naming.block_name(
                filename, chunk.chunk_no, index + 1
            )
            node = probe.nodes[index] if index < len(probe.nodes) else self.dht.locate_name(name)
            exclude = namesakes.get(name, ()) if namesakes else ()
            if not node.store_block(name, block_size, exclude):
                self._release(blocks)
                return None
            # Best-effort neighbour replicas, none on ``exclude``.
            replicas = first_fits(self.dht.neighbors(node.node_id, extra * 2), name, block_size,
                                  exclude, extra) if extra > 0 else ()
            blocks.append((name, node, block_size, replicas))
            # Ingest charging: the client uploads the primary copy; neighbour
            # replicas are pushed onward by the primary holder.
            self._charge(block_size, client, node.node_id, observer)
            for replica in replicas:
                self._charge(block_size, node.node_id, replica.node_id, observer)
            if payloads is not None:
                for holder in (node, *replicas):
                    holder.payloads[name] = payloads[index]
        return blocks

    def _store_cat(self, filename: str, cat: ChunkAllocationTable, client,
                   observer, namesakes: Dict[str, set]) -> Optional[Placed]:
        """Store the CAT object and its replicas; None if no live node has room.

        The primary target is the node responsible for ``filename.CAT``; if it
        is full, salted retries re-hash the name, and as a last resort the CAT
        is diverted to the nearest neighbour with room (a CAT is a few hundred
        bytes, so it should never be the reason a multi-gigabyte store fails
        while free space remains anywhere in the pool).  No copy goes on a node
        in ``namesakes`` under its name.
        """
        size = cat.serialized_size
        serialized = cat.serialize().encode("utf-8") if self.payload_mode else None
        for attempt in range(CAT_STORE_RETRIES + 1):
            name = naming.cat_name(filename, attempt)
            node = self.dht.locate_name(name)
            if attempt == 0:
                root = node
            self.total_lookups += 1
            placed = first_fits((node,), name, size, namesakes.get(name, ()))
            if placed:
                break
        else:
            # Diversion: place the CAT on the closest neighbour with room.
            name = naming.cat_name(filename)
            placed = first_fits(self.dht.neighbors(root.node_id, 16), name, size,
                                namesakes.get(name, ()))
            if not placed:
                return None
        (node,) = placed
        self._charge(size, client, node.node_id, observer)
        replicas = first_fits(self.dht.neighbors(node.node_id, self.policy.cat_replication - 1),
                              name, size, namesakes.get(name, ()),
                              self.policy.cat_replication - 1)
        for neighbor in replicas:
            self._charge(size, node.node_id, neighbor.node_id, observer)
            if serialized is not None:
                neighbor.payloads[name] = serialized
        if serialized is not None:
            node.payloads[name] = serialized
        return name, node, size, replicas

    @staticmethod
    def _release(blocks: List[Placed]) -> None:
        """Take back every copy of blocks a store placed but did not keep."""
        for name, node, size, replicas in blocks:
            for holder in (node, *replicas):
                holder.release_block(name, size)

    # --------------------------------------------------------------- retrieval --
    def _fetch_block(self, ledger_placement: int, placement: BlockPlacement, index: int,
                     client: Optional[int]) -> Tuple[Optional[BlockBytes], bool]:
        """Fetch the bytes of stream block ``index`` (payload mode): cache, then holders.

        The first live holder with the block serves its ``payloads`` entry.
        Returns ``(payload, from_cache)``; a network fetch fills ``client``'s
        cache when one is attached.
        """
        name = placement.block_name
        use_cache = self.cache is not None and client is not None
        if use_cache:
            cached = self.cache.lookup_block(client, name, index)
            if cached is not None:
                return cached, True
        for node_id in self.live_holders(ledger_placement):
            payload = self.dht.network.node(node_id).payloads.get(name)
            if payload is not None:
                if use_cache:
                    self.cache.fill_block(client, name, placement.size, index, payload)
                return payload, False
        return None, False

    def chunk_is_recoverable(self, chunk: StoredChunk) -> bool:
        """Whether enough encoded blocks of ``chunk`` survive to decode it.

        One O(1) counter comparison against the ledger's incrementally
        maintained per-chunk live-block counts.
        """
        if chunk.is_empty:
            return True
        return self.ledger.chunk_recoverable(chunk.ledger_index)

    def unavailable_file_count(self) -> int:
        """Stored files that currently have at least one undecodable chunk.

        O(1) for an untagged store: the Figure 10 sweep samples this once per
        failure batch.
        """
        return self.ledger.tenant_aggregates(self.store_tenant)["unavailable_files"]

    def retrieve_file(self, filename: str, *,
                      client=_UNSET, observer=_UNSET) -> RetrieveResult:
        """Retrieve the entire file.

        ``client``/``observer`` override the :meth:`attach_transfers`
        defaults for this one read -- the requesting client's id also keys
        the block cache when one is attached.
        """
        return self._retrieve(filename, None, *self._request(client, observer))

    def retrieve_range(self, filename: str, offset: int, length: int, *,
                       client=_UNSET, observer=_UNSET) -> RetrieveResult:
        """Retrieve ``length`` bytes from ``offset``.  A number no file could serve raises
        ``ParameterError`` before the file is looked up; a range past its end, ``IndexError``."""
        require_range("offset", offset, 0)
        require_range("length", length, 0)
        return self._retrieve(filename, (offset, length), *self._request(client, observer))

    def live_holders(self, placement: int) -> List[int]:
        """The ledger placement's holders (primary first) that are up and hold its block."""
        network = self.dht.network
        on_disk = self.ledger.placement_disk_serials(placement)
        return [node_id for node_id in self.ledger.placement_holders(placement)
                if node_id in network and network.node(node_id).alive
                and network.node(node_id).serial in on_disk]

    def first_block_source(self, filename: str) -> Optional[Tuple[int, int]]:
        """The first holder that is up (primary, then replicas) of a file's first block,
        and the block's size; ``None`` for no file, a zero-sized first chunk or no holder up."""
        stored = self.files.get(filename)
        first = stored.chunks[0] if stored is not None and stored.chunks else None
        if first is None or first.ledger is None:
            return None
        network = self.dht.network
        for node_id in self.ledger.placement_holders(self.ledger.placement_for(first.ledger_index, 0)):
            if node_id in network and network.node(node_id).alive:
                return node_id, first.block_size
        return None

    def _serve_chunk_read(self, chunk: StoredChunk, placements: int, required: int, client,
                          observer) -> bool:
        """Account one recoverable capacity-mode chunk read; True on cache hit.

        With a cache attached and a client id resolved, a fully-cached chunk
        skips the transfer charge entirely; a miss drains from the
        least-loaded live holder of the first block (accumulated
        :attr:`read_load`, node id as tie-break; the primary when no copy
        answers) and fills the client's cache.  Without a
        cache the charge drains from the primary holder exactly as before
        (the cache-off serving oracle pins this bit-for-bit).
        """
        first = self.ledger.placement_for(chunk.ledger_index, 0)
        primary = src = self.ledger.placement_primary(first)
        if self.cache is not None and client is not None:
            names = [self.ledger.placement_name(placement)
                     for placement in range(first, first + min(required, placements))]
            if self.cache.lookup_chunk(client, names, chunk.size):
                return True
            holders = self.live_holders(first)
            if holders:
                src = min(holders, key=lambda nid: (self.read_load.get(nid, 0.0), nid))
            self.cache.note_source(src == primary)
            self.cache.fill_chunk(client, [(name, chunk.block_size) for name in names])
        self._charge(chunk.size, src, client, observer)
        self.read_load[src] = self.read_load.get(src, 0.0) + chunk.size
        return False

    def _retrieve(self, filename: str, span: Optional[Tuple[int, int]], client,
                  observer) -> RetrieveResult:
        """Read the whole file (``span=None``) or ``span = (offset, length)`` of it."""
        stored = self.files.get(filename)
        if stored is None:
            return RetrieveResult(
                filename=filename,
                complete=False,
                bytes_available=0,
                chunks_needed=0,
                chunks_recovered=0,
                blocks_fetched=0,
                lookups=0,
                failure_reason="unknown file",
            )
        if span is None:
            chunks = stored.data_chunks()
        else:  # the CAT names the chunks a byte range touches
            chunks = [stored.chunks[entry.chunk_no - 1]
                      for entry in stored.cat.chunks_for_range(*span) if not entry.is_empty]
        lookups = 1  # locating the CAT object
        blocks_fetched = 0
        recovered = 0
        degraded_chunks = 0
        cached_chunks = 0
        bytes_available = 0
        pieces: List[bytes] = []
        complete = True
        failure_reason: Optional[str] = None
        required = self.codec.spec().required_blocks()

        for chunk in chunks:
            if not self.payload_mode:
                placements = len(self.ledger.chunk_placement_indexes(chunk.ledger_index))
                lookups += min(required, placements)
                if self.chunk_is_recoverable(chunk):
                    recovered += 1
                    bytes_available += chunk.size
                    blocks_fetched += min(required, placements)
                    # Read charging: one decoded chunk's worth of traffic
                    # drains from a holder to the client (skipped entirely
                    # when the client's block cache holds the whole chunk).
                    served_from_cache = self._serve_chunk_read(
                        chunk, placements, required, client, observer)
                    if served_from_cache:
                        cached_chunks += 1
                    # Degraded: the decode works from a strict k-of-n subset
                    # because some placements lost every copy.  A pure cache
                    # hit never touches the holders, so a repeat read of a
                    # cached chunk is not re-counted as degraded.
                    elif self.ledger.chunk_live_blocks(chunk.ledger_index) < placements:
                        degraded_chunks += 1
                else:
                    complete = False
                    failure_reason = f"chunk {chunk.chunk_no} unrecoverable"
                continue
            # Payload mode: fetch enough blocks and decode.  Blocks are keyed
            # by their *stream index* in the chunk encoding (for rateless
            # codes the repair path mints replacement blocks whose indices
            # continue the stream rather than reusing the lost index).
            placements = chunk.placements
            if chunk.encoded is None:
                lookups += len(placements)
                complete = False
                failure_reason = f"chunk {chunk.chunk_no} has no encoder metadata"
                continue
            available: Dict[int, BlockBytes] = {}
            network_fetched = 0
            for index, placement in enumerate(placements):
                stream_index = (
                    chunk.encoded.blocks[index].index
                    if index < len(chunk.encoded.blocks)
                    else index
                )
                payload, from_cache = self._fetch_block(
                    self.ledger.placement_for(chunk.ledger_index, index), placement, stream_index,
                    client)
                lookups += 1
                if payload is not None:
                    available[stream_index] = payload
                    blocks_fetched += 1
                    if not from_cache:
                        network_fetched += 1
            try:
                piece = self.codec.decode(chunk.encoded, available)
            except Exception as error:  # noqa: BLE001 - decoding failure is a data-loss event
                complete = False
                failure_reason = f"chunk {chunk.chunk_no} decode failed: {error}"
                continue
            recovered += 1
            bytes_available += chunk.size
            if available and network_fetched == 0:
                # Served entirely from the client's cache: no holder was
                # touched, so the read is neither degraded nor charged.
                cached_chunks += 1
            elif len(available) < len(placements):
                degraded_chunks += 1
            pieces.append(piece)

        self.total_lookups += lookups
        if not complete:
            self.failed_reads += 1
        elif degraded_chunks:
            self.degraded_reads += 1
        data = None
        if self.payload_mode and complete:
            data = b"".join(pieces)
            if span is not None:  # cut the requested window out of the whole chunks
                start = span[0] - (chunks[0].start if chunks else 0)
                data = data[start : start + span[1]]
                bytes_available = len(data)
        return RetrieveResult(
            filename=stored.name,
            complete=complete,
            bytes_available=bytes_available,
            chunks_needed=len(chunks),
            chunks_recovered=recovered,
            blocks_fetched=blocks_fetched,
            lookups=lookups,
            data=data,
            failure_reason=failure_reason,
            chunks_degraded=degraded_chunks,
            chunks_cached=cached_chunks,
        )

    # --------------------------------------------------------------- statistics --
    def chunk_sizes(self, filename: str) -> List[int]:
        """Sizes of a stored file's data chunks (``[]`` for an unknown name)."""
        stored = self.files.get(filename)
        return [] if stored is None else [chunk.size for chunk in stored.data_chunks()]

    def stored_bytes(self) -> int:
        """Total bytes of user data currently stored (excluding coding overhead)."""
        return self.ledger.tenant_aggregates(self.store_tenant)["stored_data_bytes"]

    def usage_summary(self) -> Dict[str, float]:
        """This store's usage aggregates (O(1) ledger counters when untagged).

        ``live_block_bytes`` counts the copies the placement bookkeeping still
        references on live nodes (blocks, replicas and CAT copies including
        coding overhead); ``tests/test_placement_equivalence.py`` audits the
        counters against per-node ``{name: size}`` dicts recorded from the
        ``store_block`` / ``remove_block`` / ``release_block`` / ``recover`` calls themselves
        (``tests/reference/recorder.py``), not from the ledger.
        """
        counts = self.ledger.tenant_aggregates(self.store_tenant)
        return {
            "file_count": float(counts["active_files"]),
            "stored_file_bytes": float(counts["stored_data_bytes"]),
            "live_block_bytes": float(counts["live_bytes"]),
            "live_block_count": float(counts["live_rows"]),
            "utilization": self.dht.utilization(),
        }

    @property
    def file_count(self) -> int:
        """Number of files successfully stored and not deleted."""
        return len(self.files)
